// Tests for the SP2 cost model and the M_max metric (Sec. 4), including the
// Eq. (9) message-size ordering property across datasets-like workloads.
#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/plan_compositor.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

TEST(CostModel, CompTimeFollowsEquationTerms) {
  const core::CostModel model = core::CostModel::sp2();
  core::Counters counters;
  counters.over_ops = 1000;
  counters.encoded_pixels = 2000;
  counters.rect_scanned = 4000;
  const slspvr::mp::TrafficTrace empty(1);
  const auto t = model.rank_times(counters, empty, 0);
  EXPECT_DOUBLE_EQ(t.comp_ms, 1000 * model.to_ms_per_pixel +
                                  2000 * model.tencode_ms_per_pixel +
                                  4000 * model.tbound_ms_per_pixel);
  EXPECT_DOUBLE_EQ(t.comm_ms, 0.0);
}

TEST(CostModel, CommTimeIsPerMessageStartupPlusBytes) {
  slspvr::mp::TrafficTrace trace(2);
  trace.set_stage(0, 1);
  trace.record_receive(0, 1, /*tag=*/5, /*bytes=*/1000);
  trace.record_receive(0, 1, /*tag=*/5, /*bytes=*/500);
  trace.set_stage(0, 0);
  trace.record_receive(0, 1, /*tag=*/5, 999999);  // out of phase: ignored
  trace.set_stage(0, 2);
  trace.record_receive(0, 1, /*tag=*/-7, 999999);  // internal tag: ignored

  const core::CostModel model = core::CostModel::sp2();
  const auto t = model.rank_times(core::Counters{}, trace, 0);
  EXPECT_DOUBLE_EQ(t.comm_ms, 2 * model.ts_ms + 1500 * model.tc_ms_per_byte);
}

TEST(CostModel, CriticalPathPicksWorstRank) {
  slspvr::mp::TrafficTrace trace(2);
  std::vector<core::Counters> per_rank(2);
  per_rank[0].over_ops = 10;
  per_rank[1].over_ops = 100000;
  const core::CostModel model = core::CostModel::sp2();
  const auto t = model.critical_path(per_rank, trace);
  EXPECT_DOUBLE_EQ(t.comp_ms, 100000 * model.to_ms_per_pixel);
}

TEST(MMax, CountsOnlyInPhaseUserTraffic) {
  slspvr::mp::TrafficTrace trace(2);
  trace.set_stage(1, 1);
  trace.record_receive(1, 0, 3, 700);
  trace.set_stage(1, 0);
  trace.record_receive(1, 0, 900, 5000);  // gather: ignored
  EXPECT_EQ(core::received_message_bytes(trace, 1), 700u);
  EXPECT_EQ(core::max_received_message_bytes(trace), 700u);
}

// ---- Eq. (9): M_BS >= M_BSBR >= M_BSBRC >= M_BSLC -------------------------

class Equation9 : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Equation9, MaxReceivedMessageOrderingHolds) {
  const auto [ranks, density] = GetParam();
  const auto subimages =
      make_subimages(ranks, 64, 64, density, 4242 + static_cast<std::uint32_t>(ranks));
  const auto order = make_default_order([&] {
    int l = 0;
    while ((1 << l) < ranks) ++l;
    return l;
  }());

  const auto m = [&](const core::Compositor& method) {
    return core::max_received_message_bytes(run_method(method, subimages, order).run.trace());
  };
  const auto m_bs = m(core::bs());
  const auto m_bsbr = m(core::bsbr());
  const auto m_bsbrc = m(core::bsbrc());
  const auto m_bslc = m(core::bslc());

  // Eq. (9) holds "in general" (the paper's own words): the guaranteed
  // relations are BS >= BSBR >= BSBRC up to the 8-byte per-stage rectangle
  // headers (a fully-dense rectangle makes BSBR exactly BS + headers), and
  // BSLC can never exceed BS (its wire is codes at 2 bytes per <=1-pixel
  // run plus only the non-blank pixels: strictly under 16 bytes/pixel).
  // BSLC vs BSBR/BSBRC can invert when interleaving inflates the code count
  // (the paper reports exactly this at P=2 in Table 1); the rendered-image
  // orderings are validated in EXPERIMENTS.md rather than asserted here.
  const std::uint64_t header_slack = 8u * 16u;
  EXPECT_GE(m_bs + header_slack, m_bsbr);
  EXPECT_GE(m_bsbr + header_slack, m_bsbrc);
  EXPECT_GE(m_bs, m_bslc);
  (void)density;
}

INSTANTIATE_TEST_SUITE_P(RanksAndDensities, Equation9,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(0.05, 0.3, 0.7)));
