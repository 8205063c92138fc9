// perfbench: the repository benchmark.
//
//   perfbench --workload <service-orbit|procs-orbit> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Every run first spins all vCPUs (cold vCPUs run several times slower for
// up to a second after an idle spell), then times the workload's set-up a
// few times and reports the median, then runs frames for --seconds and
// checks every frame after the window. --trace 0 prints the end-to-end
// metrics; --trace 1 runs an untraced and a traced window of half the length
// each, replays every layer in isolation and prints the per-layer metrics.
// The last stdout line is the JSON result; the readable report goes to
// stderr. Exit 0 only when every frame and check passed.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kWarmSeconds = 2.0;
/// Set-up can leave vCPUs idle for seconds (procs-orbit's is single-threaded),
/// long enough to go cold again; a shorter spin right before the window.
constexpr double kRewarmSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <service-orbit|procs-orbit> --seed <n>"
               " --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage(std::string(flag) + ": not a whole number: '" + std::string(text) + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = parse_number<int>(flag, value);
    } else if (flag == "--trace") {
      o.trace = parse_number<int>(flag, value);
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds < 1 || o.seconds > 600) usage("--seconds must be in [1, 600]");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

void add_end_to_end(const Window& w, double setup_s, Report& report) {
  const auto frames = static_cast<double>(w.completed);
  report.add_percentile("frame_ms_p50", w.frame_ms, 50.0, "ms");
  report.add_percentile("frame_ms_p90", w.frame_ms, 90.0, "ms");
  report.add("frames_per_s", w.frames_per_s, "1/s");
  report.add("cpu_ms_per_frame", w.cpu_ms / frames, "ms");
  report.add("peak_rss_mb", w.peak_rss_mb, "MB");
  report.add("wire_bytes_per_frame", w.wire_bytes_per_frame, "B");
  report.add("frames_ok_pct",
             100.0 * static_cast<double>(w.attempted - w.failed) /
                 static_cast<double>(w.attempted),
             "%", w.attempted);
  report.add("setup_s", setup_s, "s");
}

/// Share of the vCPUs' time the hypervisor took between two readings.
double steal_pct(double steal0_ms, std::int64_t t0_ns) {
  const double vcpu_ms =
      ms_between(t0_ns, now_ns()) * std::max(1u, std::thread::hardware_concurrency());
  return 100.0 * (host_steal_ms() - steal0_ms) / vcpu_ms;
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o.workload, o.seed);
  if (!workload) usage("unknown workload " + o.workload);

  Report report;
  report.note("workload " + o.workload + ", seed " + std::to_string(o.seed) + ", " +
              std::to_string(o.seconds) + " s, trace " + std::to_string(o.trace) + "; " +
              workload->describe());
  const double spin_ms = warm_host(kWarmSeconds);
  report.note("host.spin_ms " + std::to_string(spin_ms));

  std::vector<double> setups;
  for (int i = 0; i < workload->setup_reps(); ++i) {
    const std::int64_t t0 = now_ns();
    workload->setup();
    setups.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  std::string line = "set-up runs (s):";
  for (const double s : setups) {
    line += ' ';
    line += std::to_string(s);
  }
  report.note(line);

  (void)warm_host(kRewarmSeconds);
  const double steal0 = host_steal_ms();
  const std::int64_t t0 = now_ns();
  if (o.trace == 0) {
    Window w = workload->run(o.seconds, kEndToEndSamples, nullptr);
    report.note("host steal over the window: " + std::to_string(steal_pct(steal0, t0)) + " %");
    workload->verify(w);
    report.attempted = w.attempted;
    report.failed = w.failed;
    add_end_to_end(w, median(setups), report);
  } else {
    Window plain = workload->run(o.seconds / 2.0, kTraceSamples, nullptr);
    workload->verify(plain);
    SpanLog spans;
    Window traced = workload->run(o.seconds / 2.0, kTraceSamples, &spans);
    workload->verify(traced);
    report.attempted = plain.attempted + traced.attempted;
    report.failed = plain.failed + traced.failed;
    report.add("host.spin_ms", spin_ms, "ms");
    report.add("host.steal_pct", steal_pct(steal0, t0), "%");
    const auto p50 = [](const Window& w) {
      const std::optional<double> v = blocked_percentile(w.frame_ms, 50.0);
      if (!v) throw std::runtime_error("too few frames for a median");
      return *v;
    };
    report.add("trace.overhead_ms", p50(traced) - p50(plain), "ms", traced.frame_ms.size());
    workload->layers(spans, report);
    report.note("spans recorded: " + std::to_string(spans.spans().size()));
    if (!o.trace_out.empty()) spans.write_chrome_json(o.trace_out);
  }
  report.print();
  return report.checks_ok && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
