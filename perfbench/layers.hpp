// Outside-in layer timing: the benchmark calls each layer's public entry
// points itself (vol::make_dataset, render::render_brick, the img kernels,
// Compositor::composite and core::gather_final inside mp::Runtime::run, the
// pvr service and process backends) and records a span around every call.
// Spans inside the program are not used; counts come from the structs the
// calls return.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/compositor.hpp"
#include "core/counters.hpp"
#include "core/order.hpp"
#include "mp/envelope.hpp"
#include "pvr/experiment.hpp"
#include "pvr/proc_runner.hpp"
#include "support.hpp"
#include "volume/datasets.hpp"

namespace perfbench {

namespace img = slspvr::img;
namespace core = slspvr::core;
namespace vol = slspvr::vol;
namespace pvr = slspvr::pvr;

inline constexpr int kImage = 384;
inline constexpr int kRanks = 4;
inline constexpr int kRing = 12;             ///< views on a camera ring
inline constexpr float kRingStepDeg = 30.0f; ///< kRing * step = one full turn

/// One camera view of one dataset, composited with one method.
struct ViewSpec {
  vol::DatasetKind dataset = vol::DatasetKind::EngineLow;
  double scale = 1.0;
  float rot_x = 18.0f;
  float rot_y = 24.0f;
  const core::Compositor* method = nullptr;

  [[nodiscard]] pvr::ExperimentConfig config() const;
};

/// One frame composited by the benchmark's own SPMD body.
struct SpmdFrame {
  double wall_ms = 0.0;          ///< contexts + Runtime::run + result assembly
  double run_ms = 0.0;           ///< mp::Runtime::run
  double body_max_ms = 0.0;      ///< slowest rank body
  double composite_max_ms = 0.0; ///< slowest rank's Compositor::composite
  double composite_min_ms = 0.0; ///< fastest rank's Compositor::composite
  double gather_ms = 0.0;        ///< slowest rank's core::gather_final
  core::OpTotals ops;            ///< summed over ranks
  std::uint64_t m_max = 0;
  std::uint64_t wire_bytes = 0;  ///< compositing-stage bytes received, all ranks
  std::uint64_t messages = 0;    ///< messages sent, all ranks and stages
  int stages = 0;                ///< compositing stages that carried traffic
  double sp2_ms = 0.0;           ///< modelled critical path (SP2 cost model)
  slspvr::mp::RetryStats retry;
};

/// Run `method` SPMD over `subimages` inside mp::Runtime::run, with spans
/// around each rank's composite and gather, then do the result assembly
/// Experiment::run does (cost model, timeline, M_max, received bytes).
SpmdFrame composite_spmd(const core::Compositor& method,
                         const std::vector<img::Image>& subimages,
                         const core::SwapOrder& order, bool folded, SpanLog* log,
                         std::int64_t frame, img::Image* final_image);

/// One view replayed layer by layer in isolation.
struct ViewReplay {
  double volume_ms = 0.0;           ///< vol::make_dataset
  double render_ms = 0.0;           ///< render::render_brick summed over bricks
  double render_max_brick_ms = 0.0; ///< slowest brick
  std::int64_t samples = 0;         ///< render::RenderStats::samples, all bricks
  double sequential_ms = 0.0;       ///< core::composite_reference
  std::vector<img::Image> subimages;
  core::SwapOrder order;
  bool folded = false;
  SpmdFrame spmd;                   ///< the replay's SPMD composite
  img::Image final_image;           ///< its gathered frame
};

ViewReplay replay_view(const ViewSpec& view, SpanLog& log, std::int64_t frame);

/// volume.*, render.*, core.sequential_ms from replays.
void add_volume_render_metrics(const std::vector<ViewReplay>& replays, Report& report);

/// core.* and mp.* from SPMD frames. `key` names each frame's view: exact
/// counts are averaged over distinct views (each view's first frame), times
/// are medians over all frames.
void add_core_mp_metrics(const std::vector<std::pair<int, SpmdFrame>>& frames,
                         const std::vector<double>& sequential_ms, Report& report);

/// image.* kernels on the workload's own subimages (one set per view).
void add_image_metrics(const std::vector<const std::vector<img::Image>*>& sets,
                       Report& report);

// ---------------------------------------------------------------------------
// pvr: FrameService

/// Per-frame service figures from FrameResult, plus the isolated replay of
/// the same view (run_ms - isolated = contention).
struct ServiceLayer {
  std::vector<double> queue_ms, run_ms, contention_ms;
  std::uint64_t shed = 0, rejected = 0;
};
void add_service_metrics(const ServiceLayer& layer, Report& report);

/// A FrameService session on a fixed view: one cold frame, then 40
/// closed-loop render-cache hits, each checked against `expected`.
ServiceLayer probe_service(const ViewSpec& view, double isolated_composite_ms,
                           const img::Image& expected, SpanLog& log, Report& report);

// ---------------------------------------------------------------------------
// pvr: process backend

/// A compositor that forwards to `inner` and stamps each rank-0 call's
/// begin and end into an anonymous shared mapping. Forked workers inherit
/// the mapping, so the parent reads per-frame times after the sequence.
class StampedCompositor final : public core::Compositor {
 public:
  StampedCompositor(const core::Compositor& inner, int frames);
  ~StampedCompositor() override;
  StampedCompositor(const StampedCompositor&) = delete;
  StampedCompositor& operator=(const StampedCompositor&) = delete;

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  using core::Compositor::composite;
  core::Ownership composite(slspvr::mp::Comm& comm, img::Image& image,
                            const core::SwapOrder& order, core::Counters& counters,
                            core::EngineContext& engine) const override;
  [[nodiscard]] slspvr::check::CommSchedule schedule(int ranks) const override {
    return inner_.schedule(ranks);
  }
  [[nodiscard]] std::optional<core::ExchangePlan> resume_plan(int ranks) const override {
    return inner_.resume_plan(ranks);
  }

  [[nodiscard]] std::int64_t begin_ns(int frame) const { return stamps_[2 * frame]; }
  [[nodiscard]] std::int64_t end_ns(int frame) const { return stamps_[2 * frame + 1]; }

 private:
  const core::Compositor& inner_;
  int frames_;
  std::int64_t* stamps_;
  mutable int calls_ = 0;  ///< per process: only rank 0 (one thread) counts
};

/// One pvr::run_compositing_sequence call, measured from outside.
struct SequenceRun {
  pvr::SequenceRunResult result;
  std::vector<std::int64_t> begin_ns, end_ns;  ///< rank-0 composite per frame
  double wall_ms = 0.0;
  double cpu_ms = 0.0;       ///< this process + reaped workers
  double peak_rss_mb = 0.0;  ///< larger of this process and its largest worker
  /// Frame periods: rank-0 composite begin to the next frame's begin.
  [[nodiscard]] std::vector<double> periods_ms() const;
};

/// `frames` frames of `dataset` with resident workers; the camera steps by
/// `step_y` degrees per frame from `base`.
SequenceRun run_sequence(const vol::Dataset& dataset, const core::Compositor& method,
                         const pvr::ExperimentConfig& base, float step_y, int frames,
                         SpanLog* log, std::int64_t frame_base);

/// A sequence frame is clean when nothing faulted, healed or retried.
[[nodiscard]] bool clean(const pvr::FaultReport& report);

struct ProcsLayer {
  std::vector<double> composite_ms;  ///< workers' MethodResult::wall_ms
  std::vector<double> overhead_ms;   ///< period - slowest render - composite
  double first_frame_ms = 0.0;       ///< cold 1-frame sequence
  int respawns = 0;
  std::uint64_t stale_rejects = 0;
};

/// Split `run`'s frame periods into layers. `slowest_render_ms(f)` is the
/// isolated slowest-brick render of frame f's view.
ProcsLayer procs_layer(const SequenceRun& run,
                       const std::function<double(int)>& slowest_render_ms);
void add_procs_metrics(const ProcsLayer& layer, Report& report);

/// Median wall of three cold 1-frame sequences of `base`.
double first_frame_ms(const vol::Dataset& dataset, const core::Compositor& method,
                      const pvr::ExperimentConfig& base, SpanLog& log);

/// A 24-frame fixed-camera sequence on `view` (whose dataset is `dataset`)
/// for workloads whose own frames do not use the process backend, plus the
/// cold first frame. Frames are checked against the replay of the same view.
ProcsLayer probe_procs(const ViewSpec& view, const vol::Dataset& dataset,
                       const ViewReplay& replay, SpanLog& log, Report& report);

}  // namespace perfbench
