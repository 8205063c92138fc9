// slspvr_render — command-line driver for the whole system.
//
// Renders a built-in test sample or a user-supplied raw volume (SLSVOL1
// format, see volume/volume.hpp) through the sort-last pipeline with a
// chosen compositing method, renderer, processor count and view, and writes
// the result as PGM. The tool a downstream user reaches for first.
//
// usage:
//   slspvr_render [options]
//     --dataset <engine_low|engine_high|head|cube>   (default head)
//     --volume <file.vol>        raw volume instead of a built-in dataset
//     --tf <lo,hi,opacity>       ramp transfer function for --volume
//     --method <bs|bsbr|bslc|bsbrc|bsbrs|tree|direct|pipeline>
//     --ranks <n>                processor count (any; non-pow2 folds)
//     --image <n>                image size (default 384)
//     --scale <f>                built-in dataset scale (default 0.5)
//     --rotx/--roty <deg>        view rotation (default 18 / 24)
//     --renderer <raycast|splat> rendering-phase algorithm (default raycast)
//     --shear-warp-preview <p>   also render the full volume by shear-warp
//                                into <p> (single-node preview path)
//     --out <path.pgm>           output image (default out/render.pgm)
//     --stats                    print per-rank counters
//     --fault-kill <r,s>         inject a PE kill at rank r, stage s
//                                (repeatable; runs fault-tolerant/degraded)
//     --fault-drop <s,d,tag>     drop one message source s -> dest d with the
//                                given tag (-1 = any; repeatable)
//     --fault-corrupt <s,d,b>    flip b random bytes of one s -> d message
//     --fault-delay <s,d,ms>     delay one s -> d message by ms milliseconds
//     --fault-seed <n>           RNG seed for the corruption byte choices
//     --retry-max <n>            enable the reliable transport: up to n
//                                NAK/retransmit rounds per receive (drops and
//                                corruption heal instead of degrading)
//     --retry-base-ms <ms>       first retry backoff step (default 1)
//     --recv-timeout <ms>        receive deadline + blocked-rank watchdog
//     --workers-per-rank <n>     intra-rank engine workers: each rank fans
//                                its decode/composite bands across n threads
//                                (default 1; frames are byte-identical for
//                                any n, on both backends)
//     --sessions <n>             frame-service mode: n concurrent client
//                                sessions of the in-process FrameService,
//                                each with its own camera offset and pooled
//                                engine arena, interleaved over the shared
//                                rank pool (writes out-s0.pgm..s<n-1>; any
//                                --fault-* flags apply to session 0 only, to
//                                demonstrate per-frame fault isolation;
//                                excludes --procs/--volume)
//     --procs <n>                multi-process backend: n real worker
//                                processes over sockets (excludes the
//                                in-process --fault-*/--retry-*/--recv-timeout
//                                injection flags; implies --ranks n)
//     --transport <unix|tcp>     socket flavour for --procs (default unix)
//     --heartbeat-ms <n>         worker heartbeat interval
//     --heartbeat-timeout-ms <n> supervisor silence threshold
//     --frames <n>               with --procs: render an n-frame camera sweep
//                                with resident workers; dead ranks respawn at
//                                frame boundaries (n > 1 writes
//                                out-f0.pgm..f<n-1>; default 1)
//     --respawn-max <n>          resurrections per rank before the circuit
//                                breaker demotes it for good (default 2)
//     --proc-kill <r,s[@f]>      worker r SIGKILLs itself at stage s (real
//                                crash; the frame finishes from survivors);
//                                @f limits the crash to sequence frame f
//     --proc-stall <r,s[@f]>     worker r SIGSTOPs itself at stage s (caught
//                                by the heartbeat watchdog)
//     --proc-segv <r,s[@f]>      worker r SIGSEGVs itself at stage s
//     --proc-exit <r,s[@f]>      worker r exits nonzero at stage s
//                                (crash flags repeat; --stats and
//                                --shear-warp-preview need a single frame)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "core/binary_tree.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "core/worker_pool.hpp"
#include "image/compare.hpp"
#include "image/image_io.hpp"
#include "mp/fault.hpp"
#include "pvr/experiment.hpp"
#include "pvr/frame_service.hpp"
#include "pvr/proc_runner.hpp"
#include "pvr/report.hpp"
#include "render_cli.hpp"
#include "render/shear_warp.hpp"
#include "volume/datasets.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace img = slspvr::img;
namespace core = slspvr::core;
namespace render = slspvr::render;

namespace {

struct Args {
  vol::DatasetKind dataset = vol::DatasetKind::Head;
  std::optional<std::string> volume_path;
  float tf_lo = 60.0f, tf_hi = 140.0f, tf_opacity = 0.45f;
  std::string method = "bsbrc";
  int ranks = 8;
  int image = 384;
  double scale = 0.5;
  float rot_x = 18.0f, rot_y = 24.0f;
  std::string renderer = "raycast";
  std::optional<std::string> shear_warp_preview;
  std::string out = "out/render.pgm";
  bool stats = false;
  slspvr::mp::FaultPlan faults;
  bool fault_flags = false;  ///< any --fault-*/--retry-*/--recv-timeout seen
  bool ranks_given = false;
  int workers_per_rank = 1;
  int sessions = 0;  ///< 0 = single-frame mode; >= 2 = FrameService mode
  slspvr::tools::ProcCli procs;
};

[[noreturn]] void usage(int code) {
  std::cout << "see the header of tools/slspvr_render.cpp or README.md\n";
  std::exit(code);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        usage(2);
      }
      return argv[++i];
    };
    if (a == "--dataset") {
      const char* name = next();
      bool found = false;
      for (const auto kind : vol::kAllDatasets) {
        if (std::strcmp(name, vol::dataset_name(kind)) == 0) {
          args.dataset = kind;
          found = true;
        }
      }
      if (!found) {
        std::cerr << "unknown dataset " << name << "\n";
        usage(2);
      }
    } else if (a == "--volume") {
      args.volume_path = next();
    } else if (a == "--tf") {
      const std::vector<double> tf = slspvr::tools::parse_float_list(next(), "--tf", 3);
      args.tf_lo = static_cast<float>(tf[0]);
      args.tf_hi = static_cast<float>(tf[1]);
      args.tf_opacity = static_cast<float>(tf[2]);
    } else if (a == "--method") {
      args.method = next();
    } else if (a == "--ranks") {
      args.ranks = slspvr::tools::parse_positive_int(next(), "--ranks");
      args.ranks_given = true;
    } else if (a == "--workers-per-rank") {
      args.workers_per_rank = slspvr::tools::parse_workers_per_rank(next());
    } else if (a == "--sessions") {
      args.sessions = slspvr::tools::parse_positive_int(next(), "--sessions");
      if (args.sessions < 2) {
        std::cerr << "--sessions expects >= 2 concurrent sessions\n";
        usage(2);
      }
    } else if (slspvr::tools::try_parse_proc_flag(args.procs, a, next)) {
      // consumed by the multi-process flag family
    } else if (a == "--image") {
      args.image = slspvr::tools::parse_positive_int(next(), "--image");
    } else if (a == "--scale") {
      args.scale = slspvr::tools::parse_finite_float(next(), "--scale");
    } else if (a == "--rotx") {
      args.rot_x = static_cast<float>(slspvr::tools::parse_finite_float(next(), "--rotx"));
    } else if (a == "--roty") {
      args.rot_y = static_cast<float>(slspvr::tools::parse_finite_float(next(), "--roty"));
    } else if (a == "--renderer") {
      args.renderer = next();
    } else if (a == "--shear-warp-preview") {
      args.shear_warp_preview = next();
    } else if (a == "--out") {
      args.out = next();
    } else if (a == "--stats") {
      args.stats = true;
    } else if (a == "--fault-kill") {
      const slspvr::tools::RankStage kill = slspvr::tools::parse_rank_stage(next(), "--fault-kill");
      args.faults.kills.push_back({kill.rank, kill.stage});
    } else if (a == "--fault-drop") {
      // source,dest[,tag], -1 = any
      const std::vector<int> v = slspvr::tools::parse_int_list(next(), "--fault-drop", 2, 3);
      const int tag = v.size() == 3 ? v[2] : slspvr::mp::kAnyTagRule;
      args.faults.drops.push_back(
          {v[0], v[1], tag, slspvr::mp::kAnyStageRule, /*max_count=*/1});
    } else if (a == "--fault-corrupt") {
      // source,dest,bytes, -1 = any rank
      const std::vector<int> v = slspvr::tools::parse_int_list(next(), "--fault-corrupt", 3, 3);
      if (v[2] < 1) throw slspvr::tools::ParseError("--fault-corrupt: bytes must be >= 1");
      args.faults.corruptions.push_back({v[0], v[1], slspvr::mp::kAnyTagRule,
                                         slspvr::mp::kAnyStageRule, /*flip_bytes=*/v[2],
                                         /*truncate_bytes=*/0, /*max_count=*/1});
    } else if (a == "--fault-delay") {
      // source,dest,milliseconds, -1 = any rank
      const std::vector<int> v = slspvr::tools::parse_int_list(next(), "--fault-delay", 3, 3);
      if (v[2] < 1) throw slspvr::tools::ParseError("--fault-delay: milliseconds must be >= 1");
      args.faults.delays.push_back({v[0], v[1], slspvr::mp::kAnyTagRule,
                                    slspvr::mp::kAnyStageRule,
                                    std::chrono::milliseconds(v[2]), /*max_count=*/1});
    } else if (a == "--fault-seed") {
      args.faults.seed = slspvr::tools::parse_u64(next(), "--fault-seed");
    } else if (a == "--retry-max") {
      args.faults.retry.max_attempts = slspvr::tools::parse_positive_int(next(), "--retry-max");
    } else if (a == "--retry-base-ms") {
      args.faults.retry.base_delay =
          std::chrono::milliseconds(slspvr::tools::parse_positive_int(next(), "--retry-base-ms"));
    } else if (a == "--recv-timeout") {
      args.faults.recv_timeout =
          std::chrono::milliseconds(slspvr::tools::parse_positive_int(next(), "--recv-timeout"));
    } else if (a == "--help" || a == "-h") {
      usage(0);
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(2);
    }
  }
  // Multi-process contradiction rules (ParseError -> exit 2 in main).
  args.fault_flags = !args.faults.empty() || args.faults.retry.enabled() ||
                     args.faults.recv_timeout.count() > 0;
  slspvr::tools::validate_proc_cli(args.procs, args.fault_flags);
  if (args.procs.active()) {
    if (args.ranks_given && args.ranks != args.procs.procs) {
      throw slspvr::tools::ParseError("--ranks " + std::to_string(args.ranks) +
                                      " contradicts --procs " +
                                      std::to_string(args.procs.procs) +
                                      " (one worker process per rank)");
    }
    args.ranks = args.procs.procs;
  }
  if (args.sessions > 0 && args.procs.active()) {
    throw slspvr::tools::ParseError(
        "--sessions drives the in-process FrameService and excludes --procs");
  }
  if (args.sessions > 0 && args.volume_path) {
    throw slspvr::tools::ParseError("--sessions supports built-in datasets only");
  }
  if (!(args.scale > 0.0)) {
    std::cerr << "--scale must be > 0 (got " << args.scale << ")\n";
    usage(2);
  }
  if (args.renderer != "raycast" && args.renderer != "splat") {
    std::cerr << "unknown renderer " << args.renderer << " (raycast|splat)\n";
    usage(2);
  }
  for (const auto& kill : args.faults.kills) {
    if (kill.rank >= args.ranks) {
      std::cerr << "--fault-kill rank " << kill.rank << " out of range for --ranks "
                << args.ranks << "\n";
      usage(2);
    }
  }
  if (!args.faults.drops.empty() && !args.faults.retry.enabled() &&
      args.faults.recv_timeout.count() == 0) {
    std::cerr << "--fault-drop without --retry-max needs --recv-timeout so the "
                 "receiver fails over instead of hanging\n";
    usage(2);
  }
  return args;
}

const core::Compositor& method_named(const std::string& name) {
  static const core::BinaryTreeCompositor tree;
  static const core::ParallelPipelineCompositor pipeline;
  if (name == "bs") return core::bs();
  if (name == "bsbr") return core::bsbr();
  if (name == "bslc") return core::bslc();
  if (name == "bsbrc") return core::bsbrc();
  if (name == "bsbrs") return core::bsbrs();
  if (name == "tree") return tree;
  if (name == "direct") return core::direct_send_sparse();
  if (name == "pipeline") return pipeline;
  std::cerr << "unknown method " << name << "\n";
  usage(2);
}

// --sessions mode: N concurrent clients of the in-process FrameService,
// each with its own camera offset and pooled per-session engine arena,
// interleaved over the shared rank pool. Any --fault-* flags ride on
// session 0's frame only — the other sessions' frames must come back clean,
// which is the per-frame fault-isolation property in miniature.
int run_sessions(const Args& args, const core::Compositor& method) {
  const std::filesystem::path out(args.out);
  if (const auto parent = out.parent_path(); !parent.empty()) {
    std::filesystem::create_directories(parent);
  }
  const std::string ext = out.extension().empty() ? ".pgm" : out.extension().string();

  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 2;
  service_config.queue_depth = static_cast<std::size_t>(args.sessions);
  pvr::FrameService service(service_config);

  std::vector<std::future<pvr::FrameResult>> futures;
  for (int s = 0; s < args.sessions; ++s) {
    pvr::SessionConfig session;
    session.name = "s" + std::to_string(s);
    session.dataset = args.dataset;
    session.volume_scale = args.scale;
    session.image_size = args.image;
    session.ranks = args.ranks;
    session.engine.workers_per_rank = args.workers_per_rank;
    const int id = service.add_session(session, method);

    pvr::FrameRequest request;
    request.rot_x_deg = args.rot_x + 9.0f * static_cast<float>(s);
    request.rot_y_deg = args.rot_y + 6.0f * static_cast<float>(s);
    if (s == 0) request.faults = args.faults;
    auto future = service.submit(id, request);
    if (!future) throw std::runtime_error("frame service rejected session " + session.name);
    futures.push_back(std::move(*future));
  }
  service.drain();

  int faulted = 0;
  double max_latency_ms = 0.0;
  for (auto& future : futures) {
    pvr::FrameResult frame = future.get();
    max_latency_ms = std::max(max_latency_ms, frame.latency_ms);
    std::filesystem::path frame_path = out.parent_path();
    frame_path /= out.stem().string() + "-s" + std::to_string(frame.session) + ext;
    img::write_pgm(frame.image, frame_path.string());
    faulted += frame.report.faulted ? 1 : 0;
    std::cout << "session " << frame.session << ": " << frame_path.string() << " ("
              << (frame.report.degraded
                      ? "degraded"
                      : (frame.report.faulted ? "faulted, recovered" : "clean"))
              << ", queue " << pvr::fmt_ms(frame.queue_ms) << " ms, run "
              << pvr::fmt_ms(frame.run_ms) << " ms)\n";
  }
  const pvr::ServiceStats stats = service.stats();
  std::cout << "method   : " << args.method << "\n"
            << "service  : sessions=" << args.sessions << ", completed=" << stats.completed
            << ", shed=" << stats.shed << ", faulted=" << faulted
            << ", max latency=" << pvr::fmt_ms(max_latency_ms) << " ms\n";
  return 0;
}

// --procs with --frames > 1: one PGM per frame and the sequence summary.
int write_sequence(const Args& args, const pvr::SequenceRunResult& seq) {
  const std::filesystem::path out(args.out);
  const std::string ext = out.extension().empty() ? ".pgm" : out.extension().string();
  int faulted_frames = 0;
  int degraded_frames = 0;
  for (std::size_t f = 0; f < seq.frames.size(); ++f) {
    const pvr::FtMethodResult& ft = seq.frames[f];
    faulted_frames += ft.report.faulted ? 1 : 0;
    degraded_frames += ft.report.degraded ? 1 : 0;
    std::filesystem::path frame_path = out.parent_path();
    frame_path /= out.stem().string() + "-f" + std::to_string(f) + ext;
    img::write_pgm(ft.result.final_image, frame_path.string());
    std::cout << "frame " << f << "  : " << frame_path.string() << " ("
              << (ft.report.degraded ? "degraded"
                                     : (ft.report.faulted ? "faulted, recovered" : "clean"))
              << ")\n";
  }
  std::cout << "method   : " << seq.frames.front().result.method << "\n"
            << "backend  : " << args.procs.transport << " sockets, " << args.procs.procs
            << " worker process(es)\n"
            // The one-line accounting CI greps for (respawns=, degraded=).
            << "sequence : frames=" << seq.frames.size() << ", respawns="
            << seq.report.respawns << ", degraded=" << degraded_frames
            << ", faulted=" << faulted_frames << ", stale_rejects="
            << seq.report.stale_rejects << "\n";
  pvr::print_fault_report(std::cout, seq.report);
  return 0;
}

int run_tool(const Args& args) {
  if (args.sessions > 0) return run_sessions(args, method_named(args.method));
  if (const auto parent = std::filesystem::path(args.out).parent_path(); !parent.empty()) {
    std::filesystem::create_directories(parent);
  }

  // Build the experiment. A user volume replaces the procedural dataset by
  // running the same pipeline manually.
  pvr::ExperimentConfig config;
  config.dataset = args.dataset;
  config.volume_scale = args.scale;
  config.image_size = args.image;
  config.ranks = args.ranks;
  config.rot_x_deg = args.rot_x;
  config.rot_y_deg = args.rot_y;
  config.use_splatting = args.renderer == "splat";

  std::optional<vol::Dataset> user_dataset;
  if (args.volume_path) {
    user_dataset = vol::Dataset{std::filesystem::path(*args.volume_path).stem().string(),
                                vol::read_raw(*args.volume_path),
                                vol::ramp_tf(args.tf_lo, args.tf_hi, args.tf_opacity)};
    std::cout << "loaded " << *args.volume_path << " ("
              << user_dataset->volume.dims().nx << "x" << user_dataset->volume.dims().ny
              << "x" << user_dataset->volume.dims().nz << ")\n";
  }

  const core::Compositor& method = method_named(args.method);

  // Intra-rank fan-out is explicit engine configuration: both backends
  // build every rank's context from ExperimentConfig::engine.
  config.engine.workers_per_rank = args.workers_per_rank;

  pvr::MethodResult result;
  pvr::FaultReport fault_report;
  if (args.procs.active()) {
    // Resident worker processes, camera stepped per frame, boundary
    // resurrection. One frame is the plain single-frame render below.
    const vol::Dataset dataset =
        user_dataset ? *user_dataset : vol::make_dataset(args.dataset, args.scale);
    pvr::SequenceRunResult seq = pvr::run_compositing_sequence(
        method, dataset, config, slspvr::tools::to_sequence_options(args.procs));
    if (args.procs.sequence()) return write_sequence(args, seq);
    result = std::move(seq.frames.front().result);
    fault_report = std::move(seq.frames.front().report);
  } else {
    const auto execute = [&](const pvr::Experiment& experiment) {
      if (args.faults.empty()) {
        result = experiment.run(method);
      } else {
        pvr::FtMethodResult ft = experiment.run_ft(method, args.faults);
        result = std::move(ft.result);
        fault_report = std::move(ft.report);
      }
    };
    if (user_dataset) {
      execute(pvr::Experiment(*user_dataset, config));
    } else {
      execute(pvr::Experiment(config));
    }
  }

  img::write_pgm(result.final_image, args.out);
  std::cout << "method   : " << result.method << "\n"
            << "image    : " << args.out << "\n"
            << "T_comp   : " << pvr::fmt_ms(result.times.comp_ms) << " ms (SP2 model)\n"
            << "T_comm   : " << pvr::fmt_ms(result.times.comm_ms) << " ms\n"
            << "T_total  : " << pvr::fmt_ms(result.times.total_ms()) << " ms\n"
            << "M_max    : " << pvr::fmt_bytes(result.m_max) << " bytes\n"
            << "wall     : " << pvr::fmt_ms(result.wall_ms) << " ms\n";
  if (args.procs.active()) {
    std::cout << "backend  : " << args.procs.transport << " sockets, "
              << args.procs.procs << " worker process(es)\n";
  }
  if (!args.faults.empty() || args.procs.active()) {
    pvr::print_fault_report(std::cout, fault_report);
  }

  if (args.stats) {
    pvr::TextTable table({"rank", "over ops", "encoded px", "rect scanned", "codes",
                          "px sent", "px recv", "bytes recv"});
    for (std::size_t r = 0; r < result.per_rank.size(); ++r) {
      const auto& c = result.per_rank[r];
      table.add_row({std::to_string(r), std::to_string(c.over_ops),
                     std::to_string(c.encoded_pixels), std::to_string(c.rect_scanned),
                     std::to_string(c.codes_emitted), std::to_string(c.pixels_sent),
                     std::to_string(c.pixels_received),
                     pvr::fmt_bytes(result.received_bytes_per_rank[r])});
    }
    table.print(std::cout);
  }

  if (args.shear_warp_preview) {
    const vol::Dataset& ds =
        user_dataset ? *user_dataset : vol::make_dataset(args.dataset, args.scale);
    render::OrthoCamera camera(ds.volume.dims(), args.image, args.image, args.rot_x,
                               args.rot_y);
    img::Image preview(args.image, args.image);
    render::shear_warp_render(ds.volume, ds.tf, camera, preview);
    img::write_pgm(preview, *args.shear_warp_preview);
    std::cout << "shear-warp preview: " << *args.shear_warp_preview
              << " (PSNR vs composited: " << pvr::fmt_ms(img::psnr_gray(preview, result.final_image), 1)
              << " dB)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(parse(argc, argv));
  } catch (const slspvr::tools::ParseError& e) {
    std::cerr << "slspvr_render: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "slspvr_render: error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "slspvr_render: error: unknown exception\n";
    return 1;
  }
}
