// Self-tests of the benchmark's own helpers: the percentile rule and the
// frame checks every workload relies on. run.py runs this before each
// benchmark run; a failure stops the run. Exit 0 when all checks pass.
#include <cmath>
#include <cstdio>
#include <vector>

#include "support.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {  // n, n-1, ..., 1: unsorted on purpose
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void test_percentile() {
  using perfbench::percentile;
  // Nearest rank: p50 of 1..20 is rank 10, with 10 samples beyond it.
  check(percentile(ramp(20), 50.0) == 10.0, "p50 of 20 samples is the 10th value");
  check(!percentile(ramp(19), 50.0), "p50 of 19 samples leaves 9 beyond: refused");
  // p90 needs 100 samples: rank 90 of 100 leaves exactly 10 beyond.
  check(percentile(ramp(100), 90.0) == 90.0, "p90 of 100 samples is the 90th value");
  check(!percentile(ramp(99), 90.0), "p90 of 99 samples leaves 9 beyond: refused");
  // A p99 of 48 samples is their maximum; the rule refuses it.
  check(!percentile(ramp(48), 99.0), "p99 of 48 samples refused");
  check(percentile(ramp(1000), 99.0) == 990.0, "p99 of 1000 samples is the 990th value");
  check(percentile(ramp(3), 50.0, 0) == 2.0, "p50 of 3 without the tail rule");
  check(!percentile({}, 50.0, 0), "no samples, no percentile");
  check(!percentile(ramp(10), 0.0, 0) && !percentile(ramp(10), 100.0, 0),
        "p outside (0, 100) refused");
  check(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void test_blocks() {
  using perfbench::blocked_percentile;
  using perfbench::blocked_rate;
  // Under two blocks' worth the blocked percentile is the plain one.
  check(blocked_percentile(ramp(300), 90.0, 200) == perfbench::percentile(ramp(300), 90.0),
        "one block below 2 x block samples");
  // Five blocks of 100, one of them a burst 10x slower: the burst block is
  // outvoted, while a plain p90 over all 500 samples lands in it.
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 100; ++i) v.push_back((b == 2 ? 10.0 : 1.0) * i);
  }
  check(blocked_percentile(v, 90.0, 100) == 90.0, "a burst block does not move the median");
  check(perfbench::percentile(v, 90.0) == 500.0, "the plain p90 lands in the burst");
  // A tail shorter than a block joins the last block (so 250 samples with
  // block 100 make blocks of 100 and 150, both with a valid p90).
  check(blocked_percentile(ramp(250), 90.0, 100).has_value(), "the tail joins the last block");
  check(!blocked_percentile(ramp(99), 90.0, 100), "a block without its p90 refuses");
  // Rates: per-block count / sum, median over blocks.
  const std::vector<double> ms = {2.0, 2.0, 2.0, 2.0, 8.0, 8.0};
  check(blocked_rate(ms, 2) == 0.5, "median block rate");
}

void test_frame_checks() {
  using perfbench::bytes_equal;
  using perfbench::digest;
  slspvr::img::Image a(5, 3);
  a.at(2, 1) = {0.25f, 0.25f, 0.25f, 0.5f};
  slspvr::img::Image b = a;
  check(bytes_equal(a, b) && digest(a) == digest(b), "a copy is byte-identical");

  b.at(4, 2).a = std::nextafter(0.0f, 1.0f);  // one ulp in one channel
  check(!bytes_equal(a, b), "a one-ulp change is not byte-identical");
  check(!(digest(a) == digest(b)), "a one-ulp change changes the digest");

  slspvr::img::Image z = a;
  z.at(0, 0).r = -0.0f;  // equal as floats, different as bytes
  check(!bytes_equal(a, z) && !(digest(a) == digest(z)), "-0.0 differs from 0.0 bytewise");

  const slspvr::img::Image wide(15, 1);  // same pixel count, other shape
  const slspvr::img::Image tall(5, 3);
  check(!bytes_equal(wide, tall), "different dimensions never match");
  check(!(digest(wide) == digest(tall)), "the digest covers the dimensions");
}

}  // namespace

int main() {
  test_percentile();
  test_blocks();
  test_frame_checks();
  if (failures == 0) std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
