#include "support.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int Rng::below(int n) noexcept {
  return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0 && p < 100.0)) return std::nullopt;
  // p * n / 100 keeps whole ranks exact (90 * 100 / 100 == 90).
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p * static_cast<double>(n) / 100.0), 1.0, static_cast<double>(n)));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// [begin, end) of each block of `n` time-ordered samples.
std::vector<std::pair<std::size_t, std::size_t>> blocks(std::size_t n, std::size_t block) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t count = std::max<std::size_t>(1, n / std::max<std::size_t>(1, block));
  for (std::size_t b = 0; b < count; ++b) {
    out.emplace_back(b * block, b + 1 == count ? n : (b + 1) * block);
  }
  return out;
}

}  // namespace

std::optional<double> blocked_percentile(const std::vector<double>& samples, double p,
                                         std::size_t block) {
  std::vector<double> per_block;
  for (const auto& [begin, end] : blocks(samples.size(), block)) {
    const std::optional<double> v =
        percentile({samples.begin() + static_cast<std::ptrdiff_t>(begin),
                    samples.begin() + static_cast<std::ptrdiff_t>(end)},
                   p);
    if (!v) return std::nullopt;
    per_block.push_back(*v);
  }
  return median(std::move(per_block));
}

double blocked_rate(const std::vector<double>& samples, std::size_t block) {
  std::vector<double> rates;
  for (const auto& [begin, end] : blocks(samples.size(), block)) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += samples[i];
    if (sum > 0.0) rates.push_back(static_cast<double>(end - begin) / sum);
  }
  return median(std::move(rates));
}

bool bytes_equal(const slspvr::img::Image& a, const slspvr::img::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  return std::memcmp(pa.data(), pb.data(), pa.size_bytes()) == 0;
}

FrameDigest digest(const slspvr::img::Image& image) {
  const auto px = image.pixels();
  const auto* bytes = reinterpret_cast<const unsigned char*>(px.data());
  const std::size_t n = px.size_bytes();
  std::uint64_t lo = 0x243F6A8885A308D3ull ^ static_cast<std::uint64_t>(image.width());
  std::uint64_t hi = 0x13198A2E03707344ull ^ static_cast<std::uint64_t>(image.height());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, 8);
    lo = (lo ^ w) * 0x9E3779B97F4A7C15ull;
    lo ^= lo >> 29;
    hi = (hi + w) * 0xC2B2AE3D27D4EB4Full;
    hi = (hi << 31) | (hi >> 33);
  }
  for (; i < n; ++i) lo = (lo ^ bytes[i]) * 0x100000001B3ull;
  return {lo ^ (hi >> 17), hi ^ (lo << 13)};
}

double warm_host(double seconds) {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  constexpr int kChunk = 1 << 22;
  const std::int64_t start = now_ns();
  const auto span = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t end = start + span;
  const std::int64_t second_half = start + span / 2;
  std::vector<std::vector<double>> chunks(threads);
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull + t;
      for (std::int64_t t0 = now_ns(); t0 < end;) {
        for (int i = 0; i < kChunk; ++i) {  // xorshift64: registers only
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        const std::int64_t t1 = now_ns();
        if (t0 >= second_half) chunks[t].push_back(ms_between(t0, t1));
        t0 = t1;
      }
      sink.fetch_xor(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  std::vector<double> all;
  for (const auto& c : chunks) all.insert(all.end(), c.begin(), c.end());
  return median(std::move(all));
}

namespace {
double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}
}  // namespace

Usage usage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.cpu_ms = timeval_ms(self.ru_utime) + timeval_ms(self.ru_stime);
  u.child_cpu_ms = timeval_ms(children.ru_utime) + timeval_ms(children.ru_stime);
  u.rss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;  // Linux: KiB
  u.child_rss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  return u;
}

double host_steal_ms() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : field) {
    if (!(stat >> f)) return 0.0;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? field[7] * 1e3 / static_cast<double>(hz) : 0.0;
}

std::int64_t SpanLog::next_id() {
  const std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanLog::add(const Span& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,\"frame\":%lld}}%s\n",
                  s.name, s.lane, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.frame), i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing span file " + path);
}

Scope::Scope(SpanLog* log, const char* name, std::int64_t frame, std::int64_t parent,
             int lane)
    : log_(log) {
  span_.name = name;
  span_.frame = frame;
  span_.parent = parent;
  span_.lane = lane;
  span_.id = log_ != nullptr ? log_->next_id() : -1;
  span_.start_ns = now_ns();
}

Scope::~Scope() { close(); }

double Scope::close() {
  if (open_) {
    span_.end_ns = now_ns();
    open_ = false;
    if (log_ != nullptr) log_->add(span_);
  }
  return span_.ms();
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t n) {
  if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit, n});
}

void Report::add_percentile(const std::string& name, const std::vector<double>& samples,
                            double p, const std::string& unit) {
  const std::optional<double> v = blocked_percentile(samples, p);
  if (!v) {
    throw std::runtime_error(name + ": " + std::to_string(samples.size()) +
                             " samples leave fewer than " + std::to_string(kMinBeyond) +
                             " beyond the percentile");
  }
  add(name, *v, unit, samples.size());
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& n : notes_) std::cerr << "  " << n << '\n';
  char buf[256];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "  %-28s %16.6f %-9s", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cerr << buf;
    if (m.n > 0) std::cerr << " (n=" << m.n << ')';
    std::cerr << '\n';
  }
  const bool correct = checks_ok && failed == 0 && attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace perfbench
