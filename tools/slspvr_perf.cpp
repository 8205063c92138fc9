// slspvr-perf: the kernel and method harness behind BENCH_8.json.
//
// Two sections, both run at the paper's 384^2 / 768^2 image sizes:
//
//  * kernels — op rates of the four hot-path kernels (over-blend span,
//    bounding-rect blank scan, RLE run classification, strided gather),
//    measured once with the vector dispatch and once pinned to the scalar
//    oracle, so the JSON records the speedup the SIMD paths actually
//    deliver on this machine;
//
//  * methods — every paper compositing method end-to-end over synthetic
//    subimages (SPMD, in-process runtime), recording wall-clock, the cost
//    model's critical-path T_comp/T_comm, M_max and received bytes. Every
//    configuration runs under BOTH kernel settings and the two final frames
//    must be byte-identical; any divergence makes the tool exit non-zero,
//    which is what the CI perf-smoke step asserts.
//
// Performance claims are made with the repository benchmark (perfbench/),
// not with this tool.
//
// Output: machine-readable JSON (default BENCH_8.json). --smoke shrinks the
// sweep for CI (384^2, P = 2 and 4, 3 reps) and excludes --sizes, --ranks and
// --reps. Every flag value parses strictly (tools/cli_parse.hpp): a malformed
// one is a one-line error and exit 2.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "core/order.hpp"
#include "core/wire.hpp"
#include "image/image.hpp"
#include "image/kernels.hpp"
#include "pvr/experiment.hpp"
#include "pvr/synthetic.hpp"

namespace img = slspvr::img;
namespace kern = slspvr::img::kern;
namespace core = slspvr::core;
namespace pvr = slspvr::pvr;
namespace tools = slspvr::tools;

namespace {

struct PerfOptions {
  bool smoke = false;
  std::string out = "BENCH_8.json";
  std::vector<int> sizes = {384, 768};
  std::vector<int> ranks = {2, 4, 8};
  double density = 0.3;
  int reps = 7;
};

[[noreturn]] void usage(int code) {
  std::cout << "slspvr-perf [--smoke] [--out <path>] [--sizes <csv>] [--ranks <csv>]\n"
               "            [--density <f>] [--reps <n>]\n"
               "Runs the kernel and end-to-end method benchmarks and writes\n"
               "machine-readable JSON. Exits non-zero if the scalar and vector\n"
               "kernel paths ever produce different frames.\n";
  std::exit(code);
}

/// A comma list of positive integers, each field strict.
std::vector<int> parse_positive_list(const std::string& token, const std::string& what) {
  std::vector<int> values;
  for (const std::string& field : tools::split_commas(token)) {
    values.push_back(tools::parse_positive_int(field, what));
  }
  return values;
}

/// Throws tools::ParseError on a malformed or out-of-range value, and on
/// --smoke together with a flag whose value --smoke would replace.
PerfOptions parse_args(int argc, char** argv) {
  PerfOptions opt;
  bool sweep_flag = false;  ///< --sizes, --ranks or --reps given
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw tools::ParseError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--sizes") {
      opt.sizes = parse_positive_list(next(), "--sizes");
      sweep_flag = true;
    } else if (arg == "--ranks") {
      const std::string token = next();
      opt.ranks = parse_positive_list(token, "--ranks");
      for (const int r : opt.ranks) {
        if (!std::has_single_bit(static_cast<unsigned>(r))) {
          throw tools::ParseError("--ranks: '" + token + "' has " + std::to_string(r) +
                                  ", not a power of two");
        }
      }
      sweep_flag = true;
    } else if (arg == "--density") {
      const std::string token = next();
      opt.density = tools::parse_finite_float(token, "--density");
      if (!(opt.density > 0.0 && opt.density <= 1.0)) {
        throw tools::ParseError("--density: '" + token + "' is not in (0, 1]");
      }
    } else if (arg == "--reps") {
      opt.reps = tools::parse_positive_int(next(), "--reps");
      sweep_flag = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "slspvr-perf: unknown option " << arg << "\n";
      usage(2);
    }
  }
  if (opt.smoke) {
    if (sweep_flag) {
      throw tools::ParseError("--smoke sets --sizes, --ranks and --reps itself; "
                              "give either --smoke or those flags");
    }
    opt.sizes = {384};
    opt.ranks = {2, 4};
    opt.reps = 3;
  }
  return opt;
}

/// Best-of-N wall time of `body` in milliseconds.
template <typename F>
double time_best_ms(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Defeat dead-code elimination without perturbing the measured loop.
volatile std::int64_t g_sink = 0;

struct KernelRow {
  std::string name;
  int size = 0;
  std::int64_t pixels = 0;
  double vector_ms = 0.0;
  double scalar_ms = 0.0;

  [[nodiscard]] double mpix_per_s(double ms) const {
    return ms > 0.0 ? static_cast<double>(pixels) / ms / 1e3 : 0.0;
  }
};

/// Run `body` once pinned to the vector dispatch and once pinned to the
/// scalar oracle, returning the pair of best-of timings.
template <typename F>
KernelRow bench_kernel(const std::string& name, int size, std::int64_t pixels, int reps,
                       F&& body) {
  KernelRow row;
  row.name = name;
  row.size = size;
  row.pixels = pixels;
  kern::force_scalar_kernels(false);
  row.vector_ms = time_best_ms(reps, body);
  kern::force_scalar_kernels(true);
  row.scalar_ms = time_best_ms(reps, body);
  kern::clear_kernel_override();
  std::cout << "  " << name << " @" << size << "^2: " << row.mpix_per_s(row.vector_ms)
            << " Mpix/s vector, " << row.mpix_per_s(row.scalar_ms) << " Mpix/s scalar ("
            << (row.scalar_ms > 0 ? row.scalar_ms / row.vector_ms : 0.0) << "x)\n";
  return row;
}

std::vector<KernelRow> run_kernel_benches(const PerfOptions& opt) {
  std::vector<KernelRow> rows;
  for (const int size : opt.sizes) {
    const img::Image base = pvr::random_subimage(size, size, 0.5, 42);
    const img::Image incoming = pvr::random_subimage(size, size, 0.5, 43);
    const img::Image sparse = pvr::random_subimage(size, size, opt.density, 44);
    const std::int64_t pixels = base.pixel_count();

    // Composite in place without resetting: the accumulator saturates after a
    // few reps but the instruction stream is identical every iteration, and a
    // reset copy inside the timed body would dominate the measurement.
    img::Image local = base;
    rows.push_back(bench_kernel("composite_rows", size, pixels, opt.reps, [&] {
      g_sink = g_sink + img::composite_region(local, incoming, local.bounds(), true);
    }));

    rows.push_back(bench_kernel("bounding_rect_scan", size, pixels, opt.reps, [&] {
      g_sink = g_sink + img::bounding_rect_of(sparse, sparse.bounds()).x1;
    }));

    const img::Rect rect = img::bounding_rect_of(sparse, sparse.bounds());
    rows.push_back(bench_kernel("rle_classify", size, std::max<std::int64_t>(1, rect.area()),
                                opt.reps, [&] {
                                  core::Counters counters;
                                  g_sink = g_sink + core::wire::encode_rect(sparse, rect, counters)
                                                        .non_blank_count();
                                }));

    const img::InterleavedRange range{0, 4, pixels / 4};
    std::vector<img::Pixel> gathered(static_cast<std::size_t>(range.count));
    rows.push_back(bench_kernel("gather_strided", size, range.count, opt.reps, [&] {
      kern::gather_strided(sparse.pixels().data(), range.offset, range.stride, range.count,
                           gathered.data());
      g_sink = g_sink + static_cast<std::int64_t>(gathered.back().a);
    }));
  }
  return rows;
}

struct MethodRow {
  std::string method;
  int ranks = 0;
  int size = 0;
  double wall_ms = 0.0;
  double scalar_wall_ms = 0.0;
  double t_comp_ms = 0.0;
  double t_comm_ms = 0.0;
  std::uint64_t m_max_bytes = 0;
  std::uint64_t received_bytes = 0;
  bool identical = false;
};

std::vector<MethodRow> run_method_benches(const PerfOptions& opt, bool& diverged) {
  std::vector<MethodRow> rows;
  const auto methods = pvr::MethodSet::paper_methods();
  for (const int size : opt.sizes) {
    for (const int ranks : opt.ranks) {
      const int levels = std::countr_zero(static_cast<unsigned>(ranks));
      const auto subimages = pvr::make_subimages(ranks, size, size, opt.density);
      const auto order = core::make_uniform_order(levels);
      for (const auto& method : methods) {
        MethodRow row;
        row.method = std::string(method->name());
        row.ranks = ranks;
        row.size = size;

        kern::force_scalar_kernels(false);
        pvr::MethodResult vec = pvr::run_compositing(*method, subimages, order);
        row.wall_ms = time_best_ms(opt.reps, [&] {
          vec = pvr::run_compositing(*method, subimages, order);
        });
        kern::force_scalar_kernels(true);
        pvr::MethodResult sca = pvr::run_compositing(*method, subimages, order);
        row.scalar_wall_ms = time_best_ms(opt.reps, [&] {
          sca = pvr::run_compositing(*method, subimages, order);
        });
        kern::clear_kernel_override();

        row.t_comp_ms = vec.times.comp_ms;
        row.t_comm_ms = vec.times.comm_ms;
        row.m_max_bytes = vec.m_max;
        for (const auto bytes : vec.received_bytes_per_rank) row.received_bytes += bytes;
        row.identical = vec.final_image == sca.final_image;
        if (!row.identical) {
          diverged = true;
          std::cerr << "DIVERGENCE: " << row.method << " P=" << ranks << " " << size
                    << "^2 — scalar and vector kernels produced different frames\n";
        }
        std::cout << "  " << row.method << " P=" << ranks << " @" << size
                  << "^2: wall " << row.wall_ms << " ms (scalar " << row.scalar_wall_ms
                  << "), T_comp " << row.t_comp_ms << " ms, T_comm " << row.t_comm_ms
                  << " ms, M_max " << row.m_max_bytes << " B"
                  << (row.identical ? "" : "  [MISMATCH]") << "\n";
        rows.push_back(row);
      }
    }
  }
  return rows;
}

void write_json(const PerfOptions& opt, const std::vector<KernelRow>& kernels,
                const std::vector<MethodRow>& methods, bool diverged) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": 8,\n";
  js << "  \"tool\": \"slspvr-perf\",\n";
  js << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n";
  js << "  \"isa\": \"" << kern::isa_name(kern::active_isa()) << "\",\n";
  js << "  \"simd_compiled\": " << (kern::simd_compiled() ? "true" : "false") << ",\n";
  js << "  \"density\": " << opt.density << ",\n";
  js << "  \"scalar_vector_identical\": " << (diverged ? "false" : "true") << ",\n";
  js << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    js << "    {\"name\": \"" << k.name << "\", \"image\": " << k.size
       << ", \"pixels\": " << k.pixels << ", \"vector_ms\": " << k.vector_ms
       << ", \"scalar_ms\": " << k.scalar_ms
       << ", \"vector_mpix_per_s\": " << k.mpix_per_s(k.vector_ms)
       << ", \"scalar_mpix_per_s\": " << k.mpix_per_s(k.scalar_ms) << ", \"speedup\": "
       << (k.vector_ms > 0.0 ? k.scalar_ms / k.vector_ms : 0.0) << "}"
       << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"methods\": [\n";
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const MethodRow& m = methods[i];
    js << "    {\"method\": \"" << m.method << "\", \"ranks\": " << m.ranks
       << ", \"image\": " << m.size << ", \"wall_ms\": " << m.wall_ms
       << ", \"scalar_wall_ms\": " << m.scalar_wall_ms << ", \"t_comp_ms\": " << m.t_comp_ms
       << ", \"t_comm_ms\": " << m.t_comm_ms << ", \"m_max_bytes\": " << m.m_max_bytes
       << ", \"received_bytes\": " << m.received_bytes
       << ", \"identical\": " << (m.identical ? "true" : "false") << "}"
       << (i + 1 < methods.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "slspvr-perf: cannot write " << opt.out << "\n";
    std::exit(1);
  }
  out << js.str();
  std::cout << "wrote " << opt.out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  PerfOptions opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const tools::ParseError& e) {
    std::cerr << "slspvr-perf: " << e.what() << "\n";
    return 2;
  }
  std::cout << "slspvr-perf: isa=" << kern::isa_name(kern::active_isa())
            << (opt.smoke ? " (smoke)" : "") << "\n";

  std::cout << "kernels:\n";
  const auto kernels = run_kernel_benches(opt);

  std::cout << "methods:\n";
  bool diverged = false;
  const auto methods = run_method_benches(opt, diverged);

  write_json(opt, kernels, methods, diverged);
  if (diverged) {
    std::cerr << "slspvr-perf: FAIL — frame divergence detected\n";
    return 1;
  }
  return 0;
}
