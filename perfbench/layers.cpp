#include "layers.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/cost_model.hpp"
#include "core/fold.hpp"
#include "core/reference.hpp"
#include "core/timeline.hpp"
#include "core/worker_pool.hpp"
#include "image/kernels.hpp"
#include "mp/runtime.hpp"
#include "pvr/frame_service.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "volume/partition.hpp"

namespace perfbench {

namespace mp = slspvr::mp;
namespace render = slspvr::render;

pvr::ExperimentConfig ViewSpec::config() const {
  pvr::ExperimentConfig c;
  c.dataset = dataset;
  c.volume_scale = scale;
  c.image_size = kImage;
  c.ranks = kRanks;
  c.rot_x_deg = rot_x;
  c.rot_y_deg = rot_y;
  return c;
}

SpmdFrame composite_spmd(const core::Compositor& method,
                         const std::vector<img::Image>& subimages,
                         const core::SwapOrder& order, bool folded, SpanLog* log,
                         std::int64_t frame, img::Image* final_image) {
  const int ranks = static_cast<int>(subimages.size());
  const auto n = static_cast<std::size_t>(ranks);
  const core::FoldCompositor fold(method);
  const core::Compositor& m = folded ? static_cast<const core::Compositor&>(fold) : method;

  SpmdFrame out;
  Scope call(log, "pvr.frame", frame, -1, 0);
  core::EngineArena arena(core::EngineConfig{}, ranks);
  std::vector<core::Counters> per_rank(n);
  std::vector<double> body(n), comp(n), gather(n);
  img::Image root_frame;

  Scope run_scope(log, "mp.run", frame, call.id(), 0);
  const std::int64_t run_id = run_scope.id();
  const mp::RunResult run = mp::Runtime::run(ranks, [&](mp::Comm& comm) {
    const int r = comm.rank();
    const auto i = static_cast<std::size_t>(r);
    Scope body_scope(log, "mp.rank_body", frame, run_id, r);
    img::Image local = subimages[i];  // methods mutate their input
    core::Ownership owned;
    {
      Scope c(log, "core.composite", frame, body_scope.id(), r);
      owned = m.composite(comm, local, order, per_rank[i], arena.context(r));
      comp[i] = c.close();
    }
    Scope g(log, "core.gather", frame, body_scope.id(), r);
    img::Image gathered = core::gather_final(comm, local, owned, /*root=*/0);
    gather[i] = g.close();
    if (r == 0) root_frame = std::move(gathered);
    body[i] = body_scope.close();
  });
  out.run_ms = run_scope.close();

  const mp::TrafficTrace& trace = run.trace();
  const core::CostModel model = core::CostModel::sp2();
  out.sp2_ms = model.critical_path(per_rank, trace).total_ms();
  (void)core::simulate_timeline(per_rank, trace, model);  // Experiment::run's work too
  out.m_max = core::max_received_message_bytes(trace);
  std::set<int> stages;
  for (int r = 0; r < ranks; ++r) {
    out.wire_bytes += core::received_message_bytes(trace, r);
    out.messages += trace.sent(r).size();
    for (const mp::MessageRecord& rec : trace.received(r)) {
      if (rec.stage >= 1 && rec.tag >= 0) stages.insert(rec.stage);
    }
    out.ops.over_ops += per_rank[static_cast<std::size_t>(r)].over_ops;
    out.ops.encoded_pixels += per_rank[static_cast<std::size_t>(r)].encoded_pixels;
    out.ops.rect_scanned += per_rank[static_cast<std::size_t>(r)].rect_scanned;
    out.ops.codes_emitted += per_rank[static_cast<std::size_t>(r)].codes_emitted;
  }
  out.stages = static_cast<int>(stages.size());
  out.retry = trace.retry_stats();
  out.body_max_ms = *std::max_element(body.begin(), body.end());
  out.composite_max_ms = *std::max_element(comp.begin(), comp.end());
  out.composite_min_ms = *std::min_element(comp.begin(), comp.end());
  out.gather_ms = *std::max_element(gather.begin(), gather.end());
  if (final_image != nullptr) *final_image = std::move(root_frame);
  out.wall_ms = call.close();
  return out;
}

ViewReplay replay_view(const ViewSpec& view, SpanLog& log, std::int64_t frame) {
  ViewReplay out;
  Scope root(&log, "replay.view", frame, -1, 0);

  Scope v(&log, "volume.make_dataset", frame, root.id(), 0);
  const vol::Dataset dataset = vol::make_dataset(view.dataset, view.scale);
  out.volume_ms = v.close();

  // The partitioning phase as Experiment's constructor runs it.
  const pvr::ExperimentConfig cfg = view.config();
  const vol::Dims dims = dataset.volume.dims();
  const render::OrthoCamera camera(dims, cfg.image_size, cfg.image_size, cfg.rot_x_deg,
                                   cfg.rot_y_deg);
  float dir[3];
  camera.view_dir_array(dir);
  std::vector<vol::Brick> bricks;
  if (vol::is_power_of_two(cfg.ranks)) {
    const vol::KdPartition partition = vol::kd_partition(dims, cfg.ranks);
    bricks = partition.bricks;
    out.order = core::make_swap_order(partition, dir);
  } else {
    bricks = vol::slab_partition(dims, cfg.ranks, /*axis=*/0);
    out.order = core::make_fold_order(cfg.ranks, /*axis=*/0, dir);
    out.folded = true;
  }

  render::RaycastOptions options;
  options.step = cfg.step;
  for (std::size_t b = 0; b < bricks.size(); ++b) {
    img::Image sub(cfg.image_size, cfg.image_size);
    render::RenderStats stats;
    Scope r(&log, "render.render_brick", frame, root.id(), static_cast<int>(b));
    render::render_brick(dataset.volume, dataset.tf, camera, bricks[b], sub, options, &stats);
    const double ms = r.close();
    out.render_ms += ms;
    out.render_max_brick_ms = std::max(out.render_max_brick_ms, ms);
    out.samples += stats.samples;
    out.subimages.push_back(std::move(sub));
  }

  {
    Scope s(&log, "core.sequential", frame, root.id(), 0);
    const img::Image reference =
        core::composite_reference(out.subimages, out.order.front_to_back);
    out.sequential_ms = s.close();
  }
  out.spmd = composite_spmd(*view.method, out.subimages, out.order, out.folded, &log, frame,
                            &out.final_image);
  return out;
}

void add_volume_render_metrics(const std::vector<ViewReplay>& replays, Report& report) {
  std::vector<double> volume, view_ms;
  double render_total = 0.0;
  double samples = 0.0;
  for (const ViewReplay& r : replays) {
    volume.push_back(r.volume_ms);
    view_ms.push_back(r.render_ms);
    render_total += r.render_ms;
    samples += static_cast<double>(r.samples);
  }
  const auto views = static_cast<double>(replays.size());
  report.add("volume.make_dataset_ms", median(volume), "ms", volume.size());
  report.add("render.view_ms", median(view_ms), "ms", view_ms.size());
  report.add("render.samples_per_frame", samples / views, "count");
  report.add("render.ns_per_sample", render_total * 1e6 / samples, "ns");
}

void add_core_mp_metrics(const std::vector<std::pair<int, SpmdFrame>>& frames,
                         const std::vector<double>& sequential_ms, Report& report) {
  std::vector<double> comp_max, comp_min, gather, spawn_join;
  std::map<int, const SpmdFrame*> first;  // each view's first frame: exact counts
  std::uint64_t naks = 0, retransmits = 0;
  for (const auto& [key, f] : frames) {
    comp_max.push_back(f.composite_max_ms);
    comp_min.push_back(f.composite_min_ms);
    gather.push_back(f.gather_ms);
    spawn_join.push_back(f.run_ms - f.body_max_ms);
    naks += f.retry.naks;
    retransmits += f.retry.retransmits;
    first.emplace(key, &f);
  }
  double over = 0, encoded = 0, scanned = 0, codes = 0, m_max = 0, sp2 = 0, messages = 0,
         per_stage = 0;
  for (const auto& [key, f] : first) {
    over += static_cast<double>(f->ops.over_ops);
    encoded += static_cast<double>(f->ops.encoded_pixels);
    scanned += static_cast<double>(f->ops.rect_scanned);
    codes += static_cast<double>(f->ops.codes_emitted);
    m_max += static_cast<double>(f->m_max);
    sp2 += f->sp2_ms;
    messages += static_cast<double>(f->messages);
    per_stage += static_cast<double>(f->wire_bytes) / std::max(1, f->stages);
  }
  const auto views = static_cast<double>(first.size());
  report.add("core.composite_ms_max", median(comp_max), "ms", comp_max.size());
  report.add("core.composite_ms_min", median(comp_min), "ms", comp_min.size());
  report.add("core.gather_ms", median(gather), "ms", gather.size());
  report.add("core.over_ops", over / views, "count");
  report.add("core.encoded_pixels", encoded / views, "count");
  report.add("core.rect_scanned", scanned / views, "count");
  report.add("core.codes_emitted", codes / views, "count");
  report.add("core.m_max_bytes", m_max / views, "B");
  report.add("core.sequential_ms", median(sequential_ms), "ms", sequential_ms.size());
  report.add("core.sp2_model_ms", sp2 / views, "model-ms");
  report.add("mp.spawn_join_ms", median(spawn_join), "ms", spawn_join.size());
  report.add("mp.messages_per_frame", messages / views, "count");
  report.add("mp.bytes_per_stage", per_stage / views, "B");
  report.add("mp.naks", static_cast<double>(naks), "count");
  report.add("mp.retransmits", static_cast<double>(retransmits), "count");
}

namespace {

/// Median ns per pixel and computed GB/s of `pass` (returns pixels and
/// bytes moved, accumulates its own kernel time) over repeated passes.
template <typename Pass>
void time_kernel(const char* name, Pass&& pass, Report& report) {
  constexpr int kReps = 7;
  constexpr double kMinRepMs = 20.0;
  std::vector<double> ns_per_px, gbps;
  for (int rep = 0; rep < kReps; ++rep) {
    double pixels = 0.0, bytes = 0.0, ms = 0.0;
    while (ms < kMinRepMs) pass(pixels, bytes, ms);
    ns_per_px.push_back(ms * 1e6 / pixels);
    gbps.push_back(bytes / (ms * 1e6));
  }
  report.add(std::string("image.") + name + "_ns_per_px", median(ns_per_px), "ns");
  report.add(std::string("image.") + name + "_gbps", median(gbps), "GB/s");
}

}  // namespace

void add_image_metrics(const std::vector<const std::vector<img::Image>*>& sets,
                       Report& report) {
  namespace kern = img::kern;
  constexpr double kPx = sizeof(img::Pixel);
  img::Image local;
  time_kernel("over", [&](double& pixels, double& bytes, double& ms) {
    for (const auto* set : sets) {
      for (std::size_t i = 0; i + 1 < set->size(); ++i) {
        local = (*set)[i];  // fresh operand, outside the timed call
        const std::int64_t t0 = now_ns();
        const std::int64_t n =
            img::composite_region(local, (*set)[i + 1], local.bounds(), /*front=*/true);
        ms += ms_between(t0, now_ns());
        pixels += static_cast<double>(n);
        bytes += 3.0 * kPx * static_cast<double>(n);  // read both, write one
      }
    }
  }, report);
  time_kernel("bound", [&](double& pixels, double& bytes, double& ms) {
    for (const auto* set : sets) {
      for (const img::Image& sub : *set) {
        std::int64_t scanned = 0;
        const std::int64_t t0 = now_ns();
        const img::Rect rect = img::bounding_rect_of(sub, sub.bounds(), &scanned);
        ms += ms_between(t0, now_ns());
        (void)rect;
        pixels += static_cast<double>(scanned);
        bytes += kPx * static_cast<double>(scanned);
      }
    }
  }, report);
  img::Rle rle;
  time_kernel("rle", [&](double& pixels, double& bytes, double& ms) {
    for (const auto* set : sets) {
      for (const img::Image& sub : *set) {
        rle.codes.clear();
        rle.pixels.clear();
        kern::RunState state;
        const std::int64_t t0 = now_ns();
        for (int y = 0; y < sub.height(); ++y) {
          kern::rle_classify_span(&sub.at(0, y), sub.width(), state, rle);
        }
        kern::rle_classify_flush(state, rle);
        ms += ms_between(t0, now_ns());
        pixels += static_cast<double>(sub.pixel_count());
        bytes += kPx * static_cast<double>(sub.pixel_count()) +
                 static_cast<double>(rle.wire_bytes());
      }
    }
  }, report);
  std::vector<img::Pixel> staging;
  time_kernel("gather", [&](double& pixels, double& bytes, double& ms) {
    for (const auto* set : sets) {
      for (const img::Image& sub : *set) {
        const std::int64_t n = sub.pixel_count();
        staging.resize(static_cast<std::size_t>(n / kRanks + 1));
        const std::int64_t t0 = now_ns();
        for (int j = 0; j < kRanks; ++j) {  // the BSLC interleaved progression
          kern::gather_strided(sub.pixels().data(), j, kRanks, (n - j + kRanks - 1) / kRanks,
                               staging.data());
        }
        ms += ms_between(t0, now_ns());
        pixels += static_cast<double>(n);
        bytes += 2.0 * kPx * static_cast<double>(n);
      }
    }
  }, report);
}

void add_service_metrics(const ServiceLayer& layer, Report& report) {
  report.add_percentile("pvr.queue_ms_p50", layer.queue_ms, 50.0, "ms");
  report.add_percentile("pvr.run_ms_p50", layer.run_ms, 50.0, "ms");
  report.add("pvr.contention_ms", median(layer.contention_ms), "ms", layer.contention_ms.size());
  report.add("pvr.shed", static_cast<double>(layer.shed), "count");
  report.add("pvr.rejected", static_cast<double>(layer.rejected), "count");
}

ServiceLayer probe_service(const ViewSpec& view, double isolated_composite_ms,
                           const img::Image& expected, SpanLog& log, Report& report) {
  constexpr int kFrames = 40;
  pvr::FrameServiceConfig config;
  config.max_in_flight = 1;
  pvr::FrameService service(config);
  pvr::SessionConfig session;
  session.name = "probe";
  session.dataset = view.dataset;
  session.volume_scale = view.scale;
  session.image_size = kImage;
  session.ranks = kRanks;
  const int id = service.add_session(session, *view.method);
  pvr::FrameRequest request;
  request.rot_x_deg = view.rot_x;
  request.rot_y_deg = view.rot_y;

  ServiceLayer out;
  std::uint64_t bad = 0;
  for (int i = 0; i <= kFrames; ++i) {  // frame 0 is the cold render-cache fill
    Scope client(&log, "pvr.probe_submit", i, -1, 0);
    auto future = service.submit(id, request);
    if (!future) {
      ++out.rejected;
      continue;
    }
    pvr::FrameResult result = future->get();
    client.close();
    if (result.status != pvr::FrameStatus::kDone || result.report.faulted ||
        !bytes_equal(result.image, expected)) {
      ++bad;
    }
    if (i == 0) continue;
    out.queue_ms.push_back(result.queue_ms);
    out.run_ms.push_back(result.run_ms);
    out.contention_ms.push_back(result.run_ms - isolated_composite_ms);
  }
  out.shed = service.stats().shed;
  if (bad > 0) {
    report.checks_ok = false;
    report.note("service probe: " + std::to_string(bad) + " frame(s) differ from the replay");
  }
  return out;
}

StampedCompositor::StampedCompositor(const core::Compositor& inner, int frames)
    : inner_(inner), frames_(frames) {
  const std::size_t bytes = sizeof(std::int64_t) * 2 * static_cast<std::size_t>(frames);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap of the frame stamp table failed");
  stamps_ = static_cast<std::int64_t*>(p);
  std::fill(stamps_, stamps_ + 2 * frames, std::int64_t{0});
}

StampedCompositor::~StampedCompositor() {
  ::munmap(stamps_, sizeof(std::int64_t) * 2 * static_cast<std::size_t>(frames_));
}

core::Ownership StampedCompositor::composite(slspvr::mp::Comm& comm, img::Image& image,
                                             const core::SwapOrder& order,
                                             core::Counters& counters,
                                             core::EngineContext& engine) const {
  if (comm.rank() != 0 || calls_ >= frames_) {
    return inner_.composite(comm, image, order, counters, engine);
  }
  const int slot = calls_++;
  stamps_[2 * slot] = now_ns();
  core::Ownership owned = inner_.composite(comm, image, order, counters, engine);
  stamps_[2 * slot + 1] = now_ns();
  return owned;
}

std::vector<double> SequenceRun::periods_ms() const {
  std::vector<double> out;
  for (std::size_t f = 0; f + 1 < begin_ns.size(); ++f) {
    out.push_back(ms_between(begin_ns[f], begin_ns[f + 1]));
  }
  return out;
}

SequenceRun run_sequence(const vol::Dataset& dataset, const core::Compositor& method,
                         const pvr::ExperimentConfig& base, float step_y, int frames,
                         SpanLog* log, std::int64_t frame_base) {
  const StampedCompositor stamped(method, frames);
  pvr::SequenceProcOptions opts;
  opts.frames = frames;
  opts.rot_step_x = 0.0f;
  opts.rot_step_y = step_y;

  SequenceRun out;
  const Usage u0 = usage();
  Scope call(log, "pvr.sequence", frame_base, -1, 0);
  out.result = pvr::run_compositing_sequence(stamped, dataset, base, opts);
  out.wall_ms = call.close();
  const Usage u1 = usage();
  out.cpu_ms = (u1.cpu_ms - u0.cpu_ms) + (u1.child_cpu_ms - u0.child_cpu_ms);
  out.peak_rss_mb = std::max(u1.rss_mb, u1.child_rss_mb);

  for (int f = 0; f < frames; ++f) {
    out.begin_ns.push_back(stamped.begin_ns(f));
    out.end_ns.push_back(stamped.end_ns(f));
  }
  if (log != nullptr) {
    for (int f = 0; f < frames; ++f) {
      const std::int64_t next = f + 1 < frames ? out.begin_ns[static_cast<std::size_t>(f) + 1]
                                               : out.end_ns[static_cast<std::size_t>(f)];
      Span frame_span{"pvr.procs_frame", out.begin_ns[static_cast<std::size_t>(f)], next,
                      log->next_id(), call.id(), frame_base + f, 0};
      log->add(frame_span);
      log->add(Span{"core.composite", out.begin_ns[static_cast<std::size_t>(f)],
                    out.end_ns[static_cast<std::size_t>(f)], log->next_id(), frame_span.id,
                    frame_base + f, 0});
    }
  }
  return out;
}

bool clean(const pvr::FaultReport& report) {
  return !report.faulted && !report.degraded && !report.resumed && report.retries == 0 &&
         report.failed_ranks.empty() && report.events.empty() && !report.retry_stats.any() &&
         report.respawns == 0 && report.stale_rejects == 0;
}

ProcsLayer procs_layer(const SequenceRun& run,
                       const std::function<double(int)>& slowest_render_ms) {
  ProcsLayer out;
  const std::vector<double> periods = run.periods_ms();
  const auto& frames = run.result.frames;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    out.composite_ms.push_back(frames[f].result.wall_ms);
  }
  // Period f runs from frame f's composite to frame f+1's: frame f's
  // composite and gather, report shipping and routing, then frame f+1's
  // render; what the render and composite leave is barrier and transport.
  for (std::size_t f = 0; f < periods.size(); ++f) {
    out.overhead_ms.push_back(periods[f] - frames[f].result.wall_ms -
                              slowest_render_ms(static_cast<int>(f) + 1));
  }
  out.respawns = run.result.report.respawns;
  out.stale_rejects = run.result.report.stale_rejects;
  return out;
}

void add_procs_metrics(const ProcsLayer& layer, Report& report) {
  report.add_percentile("pvr.procs_composite_ms_p50", layer.composite_ms, 50.0, "ms");
  report.add("pvr.procs_overhead_ms", median(layer.overhead_ms), "ms", layer.overhead_ms.size());
  report.add("pvr.procs_first_frame_ms", layer.first_frame_ms, "ms");
  report.add("pvr.respawns", static_cast<double>(layer.respawns), "count");
  report.add("pvr.stale_rejects", static_cast<double>(layer.stale_rejects), "count");
}

double first_frame_ms(const vol::Dataset& dataset, const core::Compositor& method,
                      const pvr::ExperimentConfig& base, SpanLog& log) {
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    walls.push_back(run_sequence(dataset, method, base, 0.0f, 1, &log, -1 - i).wall_ms);
  }
  return median(walls);
}

ProcsLayer probe_procs(const ViewSpec& view, const vol::Dataset& dataset,
                       const ViewReplay& replay, SpanLog& log, Report& report) {
  constexpr int kFrames = 24;
  const SequenceRun run =
      run_sequence(dataset, *view.method, view.config(), 0.0f, kFrames, &log, 1'000'000);
  std::uint64_t bad = 0;
  for (const pvr::FtMethodResult& f : run.result.frames) {
    if (!clean(f.report) || !bytes_equal(f.result.final_image, replay.final_image)) ++bad;
  }
  if (!clean(run.result.report) || static_cast<int>(run.result.frames.size()) != kFrames) ++bad;
  if (bad > 0) {
    report.checks_ok = false;
    report.note("procs probe: " + std::to_string(bad) + " frame(s) differ from the replay");
  }
  ProcsLayer out = procs_layer(run, [&](int) { return replay.render_max_brick_ms; });
  out.first_frame_ms = first_frame_ms(dataset, *view.method, view.config(), log);
  return out;
}

}  // namespace perfbench
