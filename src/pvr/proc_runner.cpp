#include "pvr/proc_runner.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/engine.hpp"
#include "core/fold.hpp"
#include "core/reference.hpp"
#include "core/worker_pool.hpp"
#include "core/timeline.hpp"
#include "mp/communicator.hpp"
#include "mp/socket.hpp"
#include "mp/socket_transport.hpp"
#include "mp/supervisor.hpp"
#include "pvr/recovery.hpp"
#include "pvr/serialize.hpp"
#include "render/raycast.hpp"
#include "volume/partition.hpp"

namespace slspvr::pvr {

namespace {

/// kReport payload discriminators (the frame's tag field).
constexpr int kReportState = 1;      ///< counters + traffic records + wall clock
constexpr int kReportImage = 2;      ///< rank 0's gathered final frame
constexpr int kReportFailure = 3;    ///< stage, primary flag, reason
constexpr int kReportSnapshots = 4;  ///< retained per-stage partials
constexpr int kReportSubimage = 5;   ///< demoted roster: the rank's rendered
                                     ///< subimage (the parent folds the frame
                                     ///< out from these)

/// Execute a planted process-level crash. kExit does not return.
void trigger_crash(const ProcCrash& crash) {
  switch (crash.kind) {
    case ProcCrash::Kind::kSigstop:
      (void)::raise(SIGSTOP);
      break;
    case ProcCrash::Kind::kSigsegv:
      // Die by the default action even where a handler is installed (the
      // sanitizers install one that reports and exits instead).
      (void)::signal(SIGSEGV, SIG_DFL);
      (void)::raise(SIGSEGV);
      break;
    case ProcCrash::Kind::kExit:
      std::_Exit(crash.exit_code);
    case ProcCrash::Kind::kSigkill:
      (void)::raise(SIGKILL);
      break;
  }
}

void ship_state(mp::SocketTransport& sock, int rank, const mp::CommContext& ctx,
                const core::Counters& counters, double wall_ms) {
  ByteWriter w;
  write_counters(w, counters);
  const auto& sent = ctx.trace.sent(rank);
  w.u32(static_cast<std::uint32_t>(sent.size()));
  for (const mp::MessageRecord& rec : sent) write_record(w, rec);
  const auto& received = ctx.trace.received(rank);
  w.u32(static_cast<std::uint32_t>(received.size()));
  for (const mp::MessageRecord& rec : received) write_record(w, rec);
  const auto& clock = ctx.trace.clock(rank);
  w.u32(static_cast<std::uint32_t>(clock.size()));
  for (const std::uint64_t c : clock) w.u64(c);
  w.u64(ctx.trace.naks(rank));
  w.u64(ctx.trace.retry_messages(rank));
  w.u64(ctx.trace.retry_bytes(rank));
  w.u64(ctx.trace.abandoned(rank));
  w.f64(wall_ms);
  sock.send_report(kReportState, w.take());
}

void ship_failure(mp::SocketTransport& sock, int stage, bool primary,
                  const std::string& what, const SnapshotStore& store, int rank) {
  {
    ByteWriter w;
    w.i32(stage);
    w.u8(primary ? 1 : 0);
    w.str(what);
    sock.send_report(kReportFailure, w.take());
  }
  {
    ByteWriter w;
    const auto& snaps = store.slots(rank);
    w.u32(static_cast<std::uint32_t>(snaps.size()));
    for (const SnapshotStore::Snap& snap : snaps) {
      w.i32(snap.stage);
      write_rect(w, snap.region);
      write_image(w, snap.image);
    }
    sock.send_report(kReportSnapshots, w.take());
  }
}

mp::Endpoint make_endpoint(const ProcOptions& opts) {
  if (opts.endpoint_override) return mp::parse_endpoint(*opts.endpoint_override);
  mp::Endpoint ep;
  if (opts.transport == "tcp") {
    ep.kind = mp::Endpoint::Kind::kTcp;
    ep.host = "127.0.0.1";
    ep.port = 0;  // ephemeral; resolved by the supervisor's listen
    return ep;
  }
  if (opts.transport != "unix") {
    throw std::invalid_argument("ProcOptions.transport must be \"unix\" or \"tcp\", got \"" +
                                opts.transport + "\"");
  }
  // One live supervisor per path: the pid disambiguates concurrent test
  // binaries, the counter disambiguates runs within this process.
  static int counter = 0;
  ep.kind = mp::Endpoint::Kind::kUnix;
  ep.path = "/tmp/slspvr-" + std::to_string(::getpid()) + "-" + std::to_string(counter++) +
            ".sock";
  return ep;
}

/// One worker's kReportFailure payload, decoded.
struct WorkerFailureReport {
  int rank = -1;
  int stage = 0;
  bool primary = false;
  std::string what;
};

/// Everything the parent can decode out of one frame's worker reports.
struct DecodedReports {
  std::vector<core::Counters> counters;
  std::vector<bool> have_state;
  std::vector<double> walls;
  std::optional<img::Image> final_image;
  std::vector<WorkerFailureReport> worker_failures;
  SnapshotStore store;
  mp::TrafficTrace trace;
  /// kReportSubimage per rank (demoted roster only).
  std::vector<std::optional<img::Image>> subimages;

  explicit DecodedReports(int ranks)
      : counters(static_cast<std::size_t>(ranks)),
        have_state(static_cast<std::size_t>(ranks), false),
        walls(static_cast<std::size_t>(ranks), 0.0),
        store(ranks),
        trace(ranks),
        subimages(static_cast<std::size_t>(ranks)) {}
};

/// Decode a report stream. A report truncated by a dying worker is dropped
/// (its death is already a recorded failure); the frame CRC has vouched for
/// everything that parses.
DecodedReports decode_reports(const std::vector<mp::WorkerReport>& reports, int ranks) {
  DecodedReports dec(ranks);
  for (const mp::WorkerReport& rep : reports) {
    if (rep.rank < 0 || rep.rank >= ranks) continue;
    const std::size_t i = static_cast<std::size_t>(rep.rank);
    ByteReader r(rep.payload);
    try {
      switch (rep.kind) {
        case kReportState: {
          dec.counters[i] = read_counters(r);
          std::vector<mp::MessageRecord> sent(r.u32());
          for (mp::MessageRecord& rec : sent) rec = read_record(r);
          std::vector<mp::MessageRecord> received(r.u32());
          for (mp::MessageRecord& rec : received) rec = read_record(r);
          std::vector<std::uint64_t> clock(r.u32());
          for (std::uint64_t& c : clock) c = r.u64();
          const std::uint64_t naks = r.u64();
          const std::uint64_t retries = r.u64();
          const std::uint64_t retry_bytes = r.u64();
          const std::uint64_t abandoned = r.u64();
          dec.walls[i] = r.f64();
          dec.trace.import_rank(rep.rank, std::move(sent), std::move(received),
                                std::move(clock), naks, retries, retry_bytes, abandoned);
          dec.have_state[i] = true;
          break;
        }
        case kReportImage:
          dec.final_image = read_image(r);
          break;
        case kReportFailure: {
          WorkerFailureReport wf;
          wf.rank = rep.rank;
          wf.stage = r.i32();
          wf.primary = r.u8() != 0;
          wf.what = r.str();
          dec.worker_failures.push_back(std::move(wf));
          break;
        }
        case kReportSnapshots: {
          const std::uint32_t n = r.u32();
          for (std::uint32_t k = 0; k < n; ++k) {
            const int stage = r.i32();
            const img::Rect region = read_rect(r);
            dec.store.add(rep.rank, stage, read_image(r), region);
          }
          break;
        }
        case kReportSubimage:
          dec.subimages[i] = read_image(r);
          break;
        default:
          break;  // unknown report kind: forward compatibility, skip
      }
    } catch (const std::out_of_range&) {
      continue;
    }
  }
  return dec;
}

/// The camera for frame `f` of a sequence: the base view stepped per frame,
/// exactly as examples/rotation_sweep steps views. Pure, so a respawned
/// worker derives the same view as everyone else.
ExperimentConfig sequence_frame_config(const ExperimentConfig& base,
                                       const SequenceProcOptions& opts, int frame) {
  ExperimentConfig cfg = base;
  cfg.rot_x_deg = base.rot_x_deg + opts.rot_step_x * static_cast<float>(frame);
  cfg.rot_y_deg = base.rot_y_deg + opts.rot_step_y * static_cast<float>(frame);
  return cfg;
}

/// A worker's whole life (any incarnation): connect, hello with the
/// generation, then loop kFrameStart -> render own brick -> composite ->
/// kFrameDone until the supervisor says kShutdown. Every frame builds a
/// fresh CommContext, so per-channel seq spaces restart cleanly per frame
/// and per generation. The composite and gather calls are run_compositing's
/// SPMD body exactly, so a clean frame is byte-identical to the in-process
/// one.
int sequence_worker_main(int rank, std::uint32_t generation, const mp::Endpoint& endpoint,
                         const core::Compositor& method, const vol::Dataset& dataset,
                         const ExperimentConfig& base, const SequenceProcOptions& opts) {
  mp::Fd link;
  try {
    link = mp::connect_with_backoff(endpoint, opts.proc.connect, rank);
  } catch (...) {
    return mp::kWorkerExitConnect;
  }

  try {
    {
      mp::Frame hello;
      hello.kind = mp::FrameKind::kHello;
      hello.source = rank;
      hello.generation = generation;
      mp::send_all(link.get(), mp::pack_frame(hello));
    }

    mp::SocketTransport::Options topts;
    topts.backend = opts.proc.transport;
    topts.heartbeat_interval = opts.proc.heartbeat_interval;
    topts.generation = generation;
    mp::SocketTransport sock(rank, std::move(link), std::move(topts));
    sock.start();

    // One explicit engine context for this rank, built from the same
    // EngineConfig the thread backend gives every rank and reused across
    // the whole frame sequence — scratch warms up on frame 0 and stays hot.
    core::EngineContext engine(base.engine);

    const int ranks = base.ranks;
    const core::ResolvedMethod resolved(method, ranks);
    // This rank's brick, prepared on the first frame it renders and again
    // only if the brick or the step changes. kd and slab bricks depend only
    // on the dims, balanced kd bricks on the volume: an incarnation
    // prepares once.
    render::KeptRenderers renderer;

    for (;;) {
      const std::optional<mp::FrameRoster> roster = sock.await_frame_start(opts.frame_deadline);
      if (!roster) break;  // kShutdown, dead link, or frame deadline
      const int frame = roster->frame;
      const ExperimentConfig cfg = sequence_frame_config(base, opts, frame);
      const FramePartition partition = partition_frame(dataset, cfg);
      img::Image local(cfg.image_size, cfg.image_size);
      render_subimage(dataset, cfg, partition.bricks[static_cast<std::size_t>(rank)], local,
                      &renderer);

      if (!roster->demoted.empty()) {
        // Demoted roster: no full-strength plan exists anymore. Every
        // survivor ships its rendered subimage and the parent folds the
        // frame out degraded — the bottom rung of the recovery ladder.
        ByteWriter w;
        write_image(w, local);
        sock.send_report(kReportSubimage, w.take());
        sock.end_frame(frame, /*aborted=*/false);
        continue;
      }

      mp::CommContext ctx(ranks);
      ctx.mailboxes[static_cast<std::size_t>(rank)].set_capacity(opts.proc.inbox_capacity);
      ctx.stage_observer = [&sock, &opts, frame](int r, int stage) {
        sock.note_stage(stage);
        for (const ProcCrash& crash : opts.crashes) {
          if (crash.rank == r && crash.stage == stage &&
              (crash.frame < 0 || crash.frame == frame)) {
            trigger_crash(crash);
          }
        }
      };

      SnapshotStore store(ranks);
      sock.begin_frame(&ctx);
      bool aborted = false;
      try {
        const RetentionGuard retention(&store);
        mp::Comm comm(&ctx, rank);
        core::Counters counters;
        const auto t0 = std::chrono::steady_clock::now();
        const core::Ownership owned =
            resolved.get().composite(comm, local, partition.order, counters, engine);
        img::Image gathered = core::gather_final(comm, local, owned, /*root=*/0);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count();
        ship_state(sock, rank, ctx, counters, wall_ms);
        if (rank == 0) {
          ByteWriter w;
          write_image(w, gathered);
          sock.send_report(kReportImage, w.take());
        }
      } catch (const mp::PeerFailedError& e) {
        aborted = true;
        ship_failure(sock, ctx.trace.stage(rank), /*primary=*/false, e.what(), store, rank);
      } catch (const std::exception& e) {
        aborted = true;
        const int stage = ctx.trace.stage(rank);
        sock.announce_failure(stage, e.what());
        ship_failure(sock, stage, /*primary=*/true, e.what(), store, rank);
      }
      sock.end_frame(frame, aborted);
    }

    if (sock.link_lost()) return mp::kWorkerExitError;
    sock.goodbye_and_wait(opts.proc.drain_deadline);
    return mp::kWorkerExitClean;
  } catch (...) {
    return mp::kWorkerExitError;
  }
}

}  // namespace

SequenceRunResult run_compositing_sequence(const core::Compositor& method,
                                           const vol::Dataset& dataset,
                                           const ExperimentConfig& base,
                                           const SequenceProcOptions& opts) {
  const int ranks = base.ranks;
  if (ranks <= 0) {
    throw std::invalid_argument("run_compositing_sequence: ranks must be positive");
  }
  if (opts.frames <= 0) {
    throw std::invalid_argument("run_compositing_sequence: frames must be positive");
  }

  mp::SupervisorOptions sup;
  sup.endpoint = make_endpoint(opts.proc);
  sup.procs = ranks;
  sup.heartbeat_timeout = opts.proc.heartbeat_timeout;
  sup.accept_deadline = opts.proc.accept_deadline;
  sup.drain_deadline = opts.proc.drain_deadline;

  mp::SequenceOptions seq;
  seq.frames = opts.frames;
  seq.respawn = opts.respawn;

  mp::SequenceOutcome outcome = mp::Supervisor::run_sequence(
      sup, seq, [&](int rank, std::uint32_t generation, const mp::Endpoint& at) {
        return sequence_worker_main(rank, generation, at, method, dataset, base, opts);
      });
  if (sup.endpoint.kind == mp::Endpoint::Kind::kUnix) (void)::unlink(sup.endpoint.path.c_str());

  // Results carry the resolved method's name ("Fold+..." at a
  // non-power-of-two rank count), as Experiment::run's do.
  const core::ResolvedMethod resolved_method(method, ranks);
  const core::Compositor& resolved = resolved_method.get();

  SequenceRunResult out;
  out.report.respawns = outcome.respawns;
  out.report.generations = outcome.generations;
  out.report.stale_rejects = outcome.stale_rejects;
  std::vector<bool> ever_failed(static_cast<std::size_t>(ranks), false);
  for (const int r : outcome.demoted) {
    if (r >= 0 && r < ranks) ever_failed[static_cast<std::size_t>(r)] = true;
  }

  for (mp::FrameOutcome& fo : outcome.frames) {
    const ExperimentConfig cfg = sequence_frame_config(base, opts, fo.frame);
    DecodedReports dec = decode_reports(fo.reports, ranks);
    // Free the raw report bytes now: kept until the loop ends, every frame's
    // encoded image would stay alive next to its decoded copy.
    fo.reports.clear();

    FtMethodResult ft;
    ft.report.retry_stats += dec.trace.retry_stats();
    // Failed resurrections between frames are provenance, not frame faults:
    // the frame that follows ran at whatever strength the roster says.
    for (const mp::WorkerFailure& f : fo.boundary_failures) {
      ft.report.events.push_back(
          {f.rank, f.stage, /*primary=*/true, /*attempt=*/0, "boundary: " + f.what});
    }

    if (!fo.demoted.empty()) {
      // Bottom rung: the roster is demoted, survivors shipped raw subimages,
      // and the parent folds the frame out here in depth order. A survivor
      // that died mid-frame (or whose subimage never arrived) is folded out
      // too — a blank subimage is the over-operator identity.
      const FramePartition partition = partition_frame(dataset, cfg);
      std::vector<bool> lost(static_cast<std::size_t>(ranks), false);
      for (const int r : fo.demoted) {
        if (r >= 0 && r < ranks) lost[static_cast<std::size_t>(r)] = true;
      }
      for (const mp::WorkerFailure& f : fo.failures) {
        ft.report.events.push_back({f.rank, f.stage, /*primary=*/true, /*attempt=*/0, f.what});
        if (f.rank >= 0 && f.rank < ranks) lost[static_cast<std::size_t>(f.rank)] = true;
      }
      std::vector<img::Image> subs;
      subs.reserve(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        if (!lost[i] && dec.subimages[i]) {
          subs.push_back(std::move(*dec.subimages[i]));
        } else {
          lost[i] = true;  // survivor whose subimage never arrived
          subs.emplace_back(cfg.image_size, cfg.image_size);
        }
      }
      ft.report.faulted = true;
      ft.report.degraded = true;
      std::vector<vol::Brick> lost_bricks;
      for (int r = 0; r < ranks; ++r) {
        if (!lost[static_cast<std::size_t>(r)]) continue;
        ft.report.failed_ranks.push_back(r);
        lost_bricks.push_back(partition.bricks[static_cast<std::size_t>(r)]);
      }
      const img::Rect full{0, 0, cfg.image_size, cfg.image_size};
      for (const img::Image& sub : render_subimages(dataset, cfg, lost_bricks)) {
        ft.report.pixels_lost += img::count_non_blank(sub, full);
      }
      ft.result.method = std::string(resolved.name());
      ft.result.final_image = core::composite_reference(subs, partition.order.front_to_back);
    } else if (fo.failures.empty()) {
      // Clean full-strength frame: assemble the MethodResult from the
      // shipped reports; frame f is byte-identical to the in-process run of
      // the same view.
      if (!dec.final_image ||
          !std::all_of(dec.have_state.begin(), dec.have_state.end(),
                       [](bool b) { return b; })) {
        throw mp::TransportError("run_compositing_sequence: clean frame " +
                                 std::to_string(fo.frame) + " but incomplete worker reports");
      }
      MethodResult& result = ft.result;
      result.method = std::string(resolved.name());
      result.per_rank = std::move(dec.counters);
      result.times = base.cost_model.critical_path(result.per_rank, dec.trace);
      result.timeline = core::simulate_timeline(result.per_rank, dec.trace, base.cost_model);
      result.m_max = core::max_received_message_bytes(dec.trace);
      result.received_bytes_per_rank.resize(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        result.received_bytes_per_rank[static_cast<std::size_t>(r)] =
            core::received_message_bytes(dec.trace, r);
      }
      result.wall_ms = *std::max_element(dec.walls.begin(), dec.walls.end());
      result.final_image = std::move(*dec.final_image);
    } else {
      // Mid-frame deaths at full strength: re-render the frame's subimages
      // here and run the in-frame recovery ladder (mid-frame plan repair
      // from shipped snapshots, else degraded recomposite).
      const FramePartition partition = partition_frame(dataset, cfg);
      const std::vector<img::Image> subs = render_subimages(dataset, cfg, partition.bricks);
      ft.report.faulted = true;
      std::vector<bool> failed(static_cast<std::size_t>(ranks), false);
      for (const mp::WorkerFailure& f : fo.failures) {
        ft.report.events.push_back({f.rank, f.stage, /*primary=*/true, /*attempt=*/0, f.what});
        if (f.rank >= 0 && f.rank < ranks) failed[static_cast<std::size_t>(f.rank)] = true;
      }
      for (const WorkerFailureReport& wf : dec.worker_failures) {
        if (wf.primary) continue;
        ft.report.events.push_back(
            {wf.rank, wf.stage, /*primary=*/false, /*attempt=*/0, wf.what});
      }
      ft = recover_frame(resolved, subs, partition.order, base.cost_model, dec.store,
                         std::move(failed), std::move(ft.report));
    }
    ft.report.order_events();

    out.report.faulted = out.report.faulted || ft.report.faulted;
    out.report.degraded = out.report.degraded || ft.report.degraded;
    if (ft.report.resumed) {
      // The aggregate names an epoch only while every repaired frame agrees.
      const bool agrees = !out.report.resumed || out.report.resume_epoch == ft.report.resume_epoch;
      out.report.resume_epoch = agrees ? ft.report.resume_epoch : -1;
      out.report.resumed = true;
    }
    out.report.retries += ft.report.retries;
    out.report.pixels_lost += ft.report.pixels_lost;
    out.report.retry_stats += ft.report.retry_stats;
    for (const int r : ft.report.failed_ranks) {
      if (r >= 0 && r < ranks) ever_failed[static_cast<std::size_t>(r)] = true;
    }
    out.report.events.insert(out.report.events.end(), ft.report.events.begin(),
                             ft.report.events.end());
    out.frames.push_back(std::move(ft));
  }

  for (int r = 0; r < ranks; ++r) {
    if (ever_failed[static_cast<std::size_t>(r)]) out.report.failed_ranks.push_back(r);
  }
  return out;
}

}  // namespace slspvr::pvr
