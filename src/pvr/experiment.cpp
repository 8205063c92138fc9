#include "pvr/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <tuple>

#include "core/binary_tree.hpp"
#include "core/engine.hpp"
#include "core/fold.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "core/reference.hpp"
#include "mp/runtime.hpp"
#include "pvr/distribute.hpp"
#include "pvr/recovery.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "render/splatting.hpp"

namespace slspvr::pvr {

FramePartition partition_frame(const vol::Dataset& dataset, const ExperimentConfig& config) {
  const vol::Dims dims = dataset.volume.dims();
  const render::OrthoCamera camera(dims, config.image_size, config.image_size,
                                   config.rot_x_deg, config.rot_y_deg);
  float dir[3];
  camera.view_dir_array(dir);
  FramePartition out;
  if (vol::is_power_of_two(config.ranks)) {
    const vol::KdPartition partition =
        config.balanced_partition
            ? vol::kd_partition_balanced(dataset.volume, config.ranks, 64)
            : vol::kd_partition(dims, config.ranks);
    out.bricks = partition.bricks;
    out.order = core::make_swap_order(partition, dir);
  } else {
    out.bricks = vol::slab_partition(dims, config.ranks, /*axis=*/0);
    out.order = core::make_fold_order(config.ranks, /*axis=*/0, dir);
  }
  return out;
}

void render_subimage(const vol::Dataset& dataset, const ExperimentConfig& config,
                     const vol::Brick& brick, img::Image& out,
                     render::KeptRenderers* renderers, std::size_t slot) {
  const render::OrthoCamera camera(dataset.volume.dims(), config.image_size, config.image_size,
                                   config.rot_x_deg, config.rot_y_deg);
  render::RaycastOptions options;
  options.step = config.step;
  if (config.use_splatting) {
    render::splat_brick(dataset.volume, dataset.tf, camera, brick, out);
  } else if (renderers != nullptr) {
    renderers->render(slot, dataset.volume, dataset.tf, brick, camera, out, options);
  } else {
    render::render_brick(dataset.volume, dataset.tf, camera, brick, out, options);
  }
}

std::vector<img::Image> render_subimages(const vol::Dataset& dataset,
                                         const ExperimentConfig& config,
                                         const std::vector<vol::Brick>& bricks,
                                         render::KeptRenderers* renderers) {
  const std::size_t n = bricks.size();
  // Every subimage is allocated here, before any task starts: allocated
  // inside the tasks, they would come from glibc's per-thread arenas and
  // raise the peak RSS of an owner that renders frame after frame.
  std::vector<img::Image> subimages;
  subimages.reserve(n);
  for (std::size_t i = 0; i < n; ++i) subimages.emplace_back(config.image_size, config.image_size);
  if (renderers != nullptr) renderers->reserve(n);

  std::vector<std::exception_ptr> errors(n);
  const auto render_one = [&](std::size_t i) {
    try {
      render_subimage(dataset, config, bricks[i], subimages[i], renderers, i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 1; i < n; ++i) {
    try {
      threads.emplace_back(render_one, i);
    } catch (const std::system_error&) {
      render_one(i);  // no thread to be had: render the brick here
    }
  }
  if (n > 0) render_one(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return subimages;
}

Experiment::Experiment(const ExperimentConfig& config)
    : Experiment(vol::make_dataset(config.dataset, config.volume_scale), config) {}

Experiment::Experiment(const vol::Dataset& dataset, const ExperimentConfig& config,
                       render::KeptRenderers* renderers)
    : config_(config) {
  if (config.ranks <= 0) throw std::invalid_argument("Experiment: ranks must be positive");

  // Partitioning phase.
  FramePartition partition = partition_frame(dataset, config);
  bricks_ = std::move(partition.bricks);
  order_ = std::move(partition.order);

  // Rendering phase. The distributed path executes the partitioning phase
  // over the message-passing runtime (rank 0 ships ghost bricks, PEs render
  // local-only); the default renders every brick at once against the shared
  // volume — identical images, no partition traffic to account.
  if (config.distributed_partitioning && !config.use_splatting) {
    const render::OrthoCamera camera(dataset.volume.dims(), config.image_size,
                                     config.image_size, config.rot_x_deg, config.rot_y_deg);
    render::RaycastOptions options;
    options.step = config.step;
    DistributedRender distributed =
        distribute_and_render(dataset.volume, dataset.tf, bricks_, camera, options);
    subimages_ = std::move(distributed.subimages);
    total_partition_bytes_ = distributed.total_partition_bytes;
    max_partition_bytes_ = distributed.max_partition_bytes;
    return;
  }
  subimages_ = render_subimages(dataset, config, bricks_, renderers);
}

img::Image Experiment::reference() const {
  return core::composite_reference(subimages_, order_.front_to_back);
}

MethodResult run_compositing(const core::Compositor& method,
                             const std::vector<img::Image>& subimages,
                             const core::SwapOrder& order, const core::CostModel& model,
                             const core::EngineConfig& engine, core::EngineArena* arena) {
  core::EngineArena local_arena(engine);
  if (arena == nullptr) arena = &local_arena;
  Attempt attempt = run_attempt(method, subimages, order, model, {}, nullptr, arena);
  // Preserve the historical contract: a rank failure in the plain entry
  // point rethrows the original (primary) exception after the join.
  for (const mp::RankFailure& f : attempt.failures) {
    if (f.primary) std::rethrow_exception(f.error);
  }
  if (!attempt.failures.empty()) std::rethrow_exception(attempt.failures.front().error);
  return std::move(attempt.result);
}

void FaultReport::order_events() {
  std::stable_sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    return std::tuple(a.attempt, !a.primary, a.rank) < std::tuple(b.attempt, !b.primary, b.rank);
  });
}

std::string FaultReport::summary() const {
  std::string healed;
  if (retry_stats.naks > 0 || retry_stats.retransmits > 0) {
    healed = "; transport healed " + std::to_string(retry_stats.retransmits) +
             " message(s), " + std::to_string(retry_stats.healed_bytes) + " byte(s) (" +
             std::to_string(retry_stats.naks) + " NAK(s))";
  }
  if (retry_stats.abandoned > 0) {
    healed += "; " + std::to_string(retry_stats.abandoned) +
              " channel(s) abandoned after retry exhaustion";
  }
  if (respawns > 0) {
    healed += "; resurrected " + std::to_string(respawns) + " worker incarnation(s)";
    if (stale_rejects > 0) {
      healed += ", " + std::to_string(stale_rejects) + " stale-generation frame(s) rejected";
    }
  }
  if (!faulted) return "no faults" + healed;
  std::string out = std::to_string(failed_ranks.size()) + " PE(s) failed (rank";
  for (const int r : failed_ranks) {
    out += ' ';
    out += std::to_string(r);
  }
  out += "), " + std::to_string(pixels_lost) + " rendered pixel(s) lost, " +
         std::to_string(retries) + " retry round(s): ";
  if (resumed) {
    out += "finished via mid-frame repair";
    if (resume_epoch >= 0) out += " from epoch " + std::to_string(resume_epoch);
  } else if (degraded) {
    out += "finished degraded from the survivors";
  } else {
    out += "frame lost";
  }
  return out + healed;
}

FtMethodResult run_compositing_ft(const core::Compositor& method,
                                  const std::vector<img::Image>& subimages,
                                  const core::SwapOrder& order, const mp::FaultPlan& faults,
                                  const core::CostModel& model,
                                  const core::EngineConfig& engine, core::EngineArena* arena) {
  const int ranks = static_cast<int>(subimages.size());
  core::EngineArena local_arena(engine);
  if (arena == nullptr) arena = &local_arena;
  FtMethodResult out;

  mp::FaultInjector injector(faults);
  mp::RunOptions opts;
  opts.retry = faults.retry;
  if (!faults.empty()) {
    opts.injector = &injector;
    opts.recv_timeout = faults.recv_timeout;
  }
  // Retain per-stage partials only when faults can actually strike — the
  // clean path keeps its zero-copy fast path.
  SnapshotStore store(ranks);
  SnapshotStore* retain = faults.empty() ? nullptr : &store;
  Attempt first = run_attempt(method, subimages, order, model, opts, retain, arena);
  out.report.retry_stats += first.retry_stats;
  if (first.failures.empty()) {
    out.result = std::move(first.result);
    return out;
  }

  out.report.faulted = true;
  std::vector<bool> failed(static_cast<std::size_t>(ranks), false);
  for (const mp::RankFailure& f : first.failures) {
    out.report.events.push_back({f.rank, f.stage, f.primary, /*attempt=*/0, f.what});
    if (f.primary) failed[static_cast<std::size_t>(f.rank)] = true;
  }
  // recover_frame orders the events, these attempt-0 ones included.
  return recover_frame(method, subimages, order, model, store, std::move(failed),
                       std::move(out.report), arena);
}

FtMethodResult Experiment::run_ft(const core::Compositor& method,
                                  const mp::FaultPlan& faults) const {
  const core::ResolvedMethod resolved(method, config_.ranks);
  return run_compositing_ft(resolved.get(), subimages_, order_, faults, config_.cost_model,
                            config_.engine);
}

MethodResult Experiment::run(const core::Compositor& method) const {
  const core::ResolvedMethod resolved(method, config_.ranks);
  return run_compositing(resolved.get(), subimages_, order_, config_.cost_model,
                         config_.engine);
}

std::vector<const core::Compositor*> MethodSet::paper_methods() {
  return {&core::bs(), &core::bsbr(), &core::bslc(), &core::bsbrc()};
}

std::vector<const core::Compositor*> MethodSet::proposed_methods() {
  return {&core::bsbr(), &core::bslc(), &core::bsbrc()};
}

std::vector<const core::Compositor*> MethodSet::all_methods() {
  static const core::BinaryTreeCompositor tree;
  static const core::ParallelPipelineCompositor pipeline;
  auto methods = paper_methods();
  methods.insert(methods.end(), {&core::bsbrs(), &tree, &core::direct_send_full(),
                                 &core::direct_send_sparse(), &pipeline});
  return methods;
}

std::vector<const core::Compositor*> MethodSet::plan_combinations() {
  using core::CodecKind;
  using core::PlanCompositor;
  using core::PlanFamily;
  using core::TrackerKind;
  static const PlanCompositor kary_bs("KaryBS", PlanFamily::kKary, CodecKind::kFullPixel,
                                      TrackerKind::kNone);
  static const PlanCompositor kary_br("KaryBR", PlanFamily::kKary, CodecKind::kBoundingRect,
                                      TrackerKind::kUnion);
  static const PlanCompositor kary_brc("KaryBRC", PlanFamily::kKary, CodecKind::kRleRect,
                                       TrackerKind::kUnion);
  static const PlanCompositor kary_lc("KaryLC", PlanFamily::kKary, CodecKind::kInterleavedRle,
                                      TrackerKind::kNone);
  static const PlanCompositor tree_brc("Tree-BRC", PlanFamily::kBinaryTree,
                                       CodecKind::kRleRect, TrackerKind::kUnion);
  static const PlanCompositor ds_brc("DirectSend-BRC", PlanFamily::kDirectSend,
                                     CodecKind::kRleRect, TrackerKind::kUnion);
  return {&kary_bs, &kary_br, &kary_brc, &kary_lc, &tree_brc, &ds_brc};
}

}  // namespace slspvr::pvr
