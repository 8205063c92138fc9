// Fault-tolerance tests: deterministic injection, deadlock-free abort via
// mailbox/barrier poisoning, recv deadlines with the blocked-rank watchdog,
// degraded-mode (fold-out) compositing, and the hardened wire decoders.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_compositor.hpp"
#include "core/reference.hpp"
#include "core/wire.hpp"
#include "mp/barrier.hpp"
#include "mp/fault.hpp"
#include "mp/mailbox.hpp"
#include "mp/runtime.hpp"
#include "pvr/experiment.hpp"
#include "test_helpers.hpp"

namespace mp = slspvr::mp;
namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
namespace wire = slspvr::core::wire;
using slspvr::testing::expect_images_near;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;

namespace {

/// Kill switch for the whole suite: no fault scenario may take this long.
constexpr auto kBound = std::chrono::seconds(30);

/// Reference frame over the ranks NOT listed in `failed` (depth order kept).
img::Image survivor_reference(const std::vector<img::Image>& subimages,
                              const core::SwapOrder& order, const std::vector<int>& failed) {
  std::vector<int> survivors;
  for (const int r : order.front_to_back) {
    bool lost = false;
    for (const int f : failed) lost = lost || f == r;
    if (!lost) survivors.push_back(r);
  }
  return core::composite_reference(subimages, survivors);
}

/// Reference frame for a mid-frame-repaired run: the full composite minus
/// only the data that is genuinely unrecoverable — each dead contributor's
/// pixels inside each dead rank's epoch-`epoch` owned rectangle. Everything
/// a dead rank had already merged into a survivor's partial is preserved.
img::Image resume_reference(const std::vector<img::Image>& subimages,
                            const core::SwapOrder& order, const std::vector<int>& failed,
                            const core::ExchangePlan& plan, int epoch) {
  const core::EpochState state =
      core::plan_epoch_state(plan, epoch, subimages.front().bounds());
  const auto is_failed = [&](int r) {
    for (const int f : failed) {
      if (f == r) return true;
    }
    return false;
  };
  std::vector<img::Image> inputs = subimages;
  for (const int d : failed) {
    const img::Rect region = state.region[static_cast<std::size_t>(d)];
    for (const int c : state.contributors[static_cast<std::size_t>(d)]) {
      if (!is_failed(c)) continue;
      for (int y = region.y0; y < region.y1; ++y) {
        for (int x = region.x0; x < region.x1; ++x) {
          inputs[static_cast<std::size_t>(c)].at(x, y) = img::Pixel{};
        }
      }
    }
  }
  return core::composite_reference(inputs, order.front_to_back);
}

}  // namespace

// ---- poison primitives ----------------------------------------------------

TEST(Poison, MailboxWakesBlockedMatcher) {
  mp::Mailbox box;
  std::exception_ptr caught;
  std::thread waiter([&] {
    try {
      (void)box.match(0, 7);
      ADD_FAILURE() << "match returned without a message";
    } catch (...) {
      caught = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.poison(3, 2, "injected kill");
  waiter.join();
  ASSERT_TRUE(caught);
  try {
    std::rethrow_exception(caught);
  } catch (const mp::PeerFailedError& e) {
    EXPECT_EQ(e.failed_rank, 3);
    EXPECT_EQ(e.failed_stage, 2);
    EXPECT_NE(std::string(e.what()).find("injected kill"), std::string::npos);
  }
}

TEST(Poison, MailboxFailsFutureMatches) {
  mp::Mailbox box;
  box.poison(1, 4, "gone");
  EXPECT_THROW((void)box.match(0, 0), mp::PeerFailedError);
  EXPECT_THROW((void)box.match_for(0, 0, std::chrono::milliseconds(5)),
               mp::PeerFailedError);
}

TEST(Poison, FirstFailureWins) {
  mp::Mailbox box;
  box.poison(5, 1, "first");
  box.poison(6, 2, "second");
  try {
    (void)box.match(0, 0);
    FAIL() << "poisoned match must throw";
  } catch (const mp::PeerFailedError& e) {
    EXPECT_EQ(e.failed_rank, 5);
    EXPECT_EQ(e.failed_stage, 1);
  }
}

TEST(Poison, MatchForTimesOutCleanly) {
  mp::Mailbox box;
  const auto got = box.match_for(0, 0, std::chrono::milliseconds(10));
  EXPECT_FALSE(got.has_value());
}

TEST(Poison, BarrierWakesWaiters) {
  mp::CyclicBarrier barrier(2);
  std::exception_ptr caught;
  std::thread waiter([&] {
    try {
      barrier.arrive_and_wait();
    } catch (...) {
      caught = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  barrier.poison(1, 3, "dead partner");
  waiter.join();
  ASSERT_TRUE(caught);
  EXPECT_THROW(std::rethrow_exception(caught), mp::PeerFailedError);
  EXPECT_THROW(barrier.arrive_and_wait(), mp::PeerFailedError);
}

// ---- deadlock-free abort in the runtime ------------------------------------

// Regression: a rank that throws while its peer is blocked in recv used to
// wedge the join forever. The whole run must now finish, propagating the
// original exception, within a hard wall-time bound.
TEST(RuntimeAbort, ThrowWithBlockedPeerTerminates) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)mp::Runtime::run(2,
                                      [](mp::Comm& comm) {
                                        if (comm.rank() == 0) {
                                          (void)comm.recv(1, 99);  // never sent
                                        } else {
                                          comm.set_stage(1);
                                          throw std::runtime_error("boom");
                                        }
                                      }),
               std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kBound);
}

TEST(RuntimeAbort, RunTolerantRecordsPrimaryAndSecondary) {
  const mp::RunResult result = mp::Runtime::run_tolerant(3, [](mp::Comm& comm) {
    if (comm.rank() == 2) {
      comm.set_stage(1);
      throw std::runtime_error("boom");
    }
    (void)comm.recv((comm.rank() + 1) % comm.size(), 5);  // blocks forever
  });
  ASSERT_EQ(result.failures().size(), 3u);
  EXPECT_FALSE(result.ok());
  const mp::RankFailure& first = result.failures().front();
  EXPECT_TRUE(first.primary);
  EXPECT_EQ(first.rank, 2);
  EXPECT_EQ(first.stage, 1);
  int secondaries = 0;
  for (const mp::RankFailure& f : result.failures()) {
    if (!f.primary) {
      ++secondaries;
      EXPECT_THROW(std::rethrow_exception(f.error), mp::PeerFailedError);
    }
  }
  EXPECT_EQ(secondaries, 2);
}

TEST(RuntimeAbort, BarrierWaitersAreReleasedToo) {
  const mp::RunResult result = mp::Runtime::run_tolerant(4, [](mp::Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("early death");
    comm.barrier();  // rank 0 never arrives
  });
  ASSERT_EQ(result.failures().size(), 4u);
  EXPECT_EQ(result.failures().front().rank, 0);
  EXPECT_TRUE(result.failures().front().primary);
}

// ---- subgroup validation ---------------------------------------------------

TEST(Subgroup, DuplicateMemberThrows) {
  (void)mp::Runtime::run(2, [](mp::Comm& comm) {
    if (comm.rank() != 0) return;
    try {
      (void)comm.subgroup({0, 1, 1});
      ADD_FAILURE() << "duplicate member must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate world rank 1"), std::string::npos);
    }
  });
}

TEST(Subgroup, MissingCallingRankThrows) {
  (void)mp::Runtime::run(2, [](mp::Comm& comm) {
    if (comm.rank() != 0) return;
    try {
      (void)comm.subgroup({1});
      ADD_FAILURE() << "non-member caller must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("calling rank 0 is not in the members list"),
                std::string::npos);
    }
  });
}

TEST(Subgroup, EmptyAndOutOfRangeMembersThrow) {
  (void)mp::Runtime::run(2, [](mp::Comm& comm) {
    if (comm.rank() != 0) return;
    EXPECT_THROW((void)comm.subgroup({}), std::invalid_argument);
    EXPECT_THROW((void)comm.subgroup({0, 5}), std::invalid_argument);
  });
}

// ---- recv deadline + watchdog ----------------------------------------------

TEST(RecvTimeout, ThrowsStructuredErrorWithWaitForSet) {
  mp::RunOptions opts;
  opts.recv_timeout = std::chrono::milliseconds(100);
  const auto t0 = std::chrono::steady_clock::now();
  const mp::RunResult result = mp::Runtime::run_tolerant(2,
                                                         [](mp::Comm& comm) {
                                                           comm.set_stage(1);
                                                           if (comm.rank() == 0) {
                                                             (void)comm.recv(1, 7);
                                                           }
                                                         },
                                                         opts);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kBound);
  ASSERT_FALSE(result.ok());
  const mp::RankFailure& first = result.failures().front();
  EXPECT_TRUE(first.primary);
  EXPECT_EQ(first.rank, 0);
  try {
    std::rethrow_exception(first.error);
  } catch (const mp::RecvTimeoutError& e) {
    EXPECT_EQ(e.rank, 0);
    EXPECT_EQ(e.source, 1);
    EXPECT_EQ(e.tag, 7);
    const std::string what = e.what();
    EXPECT_NE(what.find("recv timeout"), std::string::npos);
    EXPECT_NE(what.find("rank 0 <- (source=1, tag=7"), std::string::npos) << what;
  }
}

TEST(RecvTimeout, DeliveredMessageDoesNotTimeOut) {
  mp::RunOptions opts;
  opts.recv_timeout = std::chrono::milliseconds(2000);
  const mp::RunResult result = mp::Runtime::run_tolerant(2,
                                                         [](mp::Comm& comm) {
                                                           if (comm.rank() == 1) {
                                                             comm.send_value(0, 3, 42);
                                                           } else {
                                                             EXPECT_EQ(comm.recv_value<int>(1, 3),
                                                                       42);
                                                           }
                                                         },
                                                         opts);
  EXPECT_TRUE(result.ok());
}

// ---- fault injector --------------------------------------------------------

TEST(FaultInjector, KillFiresOnlyAtConfiguredRankAndStage) {
  mp::FaultPlan plan;
  plan.kills.push_back({1, 2});
  mp::FaultInjector injector(plan);
  EXPECT_NO_THROW(injector.on_stage(1, 1));
  EXPECT_NO_THROW(injector.on_stage(0, 2));
  try {
    injector.on_stage(1, 2);
    FAIL() << "kill must fire at (1, 2)";
  } catch (const mp::InjectedKillError& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.stage, 2);
  }
  EXPECT_EQ(injector.stats().kills_fired, 1);
}

TEST(FaultInjector, DropRespectsMaxCountAndEndpoints) {
  mp::FaultPlan plan;
  plan.drops.push_back({/*source=*/1, /*dest=*/0, /*tag=*/mp::kAnyTagRule,
                        /*stage=*/mp::kAnyStageRule, /*max_count=*/1});
  mp::FaultInjector injector(plan);
  std::vector<std::byte> payload(16);
  EXPECT_FALSE(injector.on_send(0, 1, 5, 1, payload));  // wrong direction
  EXPECT_TRUE(injector.on_send(1, 0, 5, 1, payload));   // fires
  EXPECT_FALSE(injector.on_send(1, 0, 5, 1, payload));  // max_count spent
  EXPECT_EQ(injector.stats().messages_dropped, 1);
}

TEST(FaultInjector, CorruptionIsDeterministicInTheSeed) {
  mp::FaultPlan plan;
  plan.seed = 0xfeedULL;
  plan.corruptions.push_back({mp::kAnyRankRule, mp::kAnyRankRule, mp::kAnyTagRule,
                              mp::kAnyStageRule, /*flip_bytes=*/8, /*truncate_bytes=*/4,
                              /*max_count=*/1});
  const std::vector<std::byte> original(64, std::byte{0xAB});

  auto run_once = [&] {
    mp::FaultInjector injector(plan);
    std::vector<std::byte> payload = original;
    EXPECT_FALSE(injector.on_send(0, 1, 2, 1, payload));
    EXPECT_EQ(injector.stats().messages_corrupted, 1);
    return payload;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b) << "same plan+seed must corrupt identically";
  EXPECT_EQ(a.size(), original.size() - 4);
  EXPECT_NE(a, std::vector<std::byte>(a.size(), std::byte{0xAB}));

  plan.seed = 0xbeefULL;
  const auto c = run_once();
  EXPECT_NE(a, c) << "a different seed must give a different corruption";
}

TEST(FaultInjector, DelayFiresWithoutAlteringPayload) {
  mp::FaultPlan plan;
  plan.delays.push_back({mp::kAnyRankRule, mp::kAnyRankRule, mp::kAnyTagRule,
                         mp::kAnyStageRule, std::chrono::milliseconds(15),
                         /*max_count=*/1});
  mp::FaultInjector injector(plan);
  std::vector<std::byte> payload(8, std::byte{0x11});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(injector.on_send(0, 1, 0, 1, payload));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(15));
  EXPECT_EQ(payload, std::vector<std::byte>(8, std::byte{0x11}));
  EXPECT_EQ(injector.stats().messages_delayed, 1);
}

// ---- degraded-mode compositing --------------------------------------------

// The core tentpole guarantee: killing any PE at any compositing stage, for
// every paper method, terminates bounded, reports the failure, and finishes
// the frame. Methods that expose a resumable rect plan heal mid-frame (only
// the unrecoverable pixels are lost); the rest restart degraded from the
// survivors.
TEST(DegradedMode, KillAnyRankAtAnyStageEveryMethod) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/77);

  for (const auto& method : pvr::MethodSet::paper_methods()) {
    for (int victim = 0; victim < ranks; ++victim) {
      for (int stage = 1; stage <= order.levels; ++stage) {
        SCOPED_TRACE(std::string(method->name()) + " kill rank " +
                     std::to_string(victim) + " at stage " + std::to_string(stage));
        mp::FaultPlan plan;
        plan.kills.push_back({victim, stage});

        const auto t0 = std::chrono::steady_clock::now();
        const pvr::FtMethodResult ft =
            pvr::run_compositing_ft(*method, subimages, order, plan);
        EXPECT_LT(std::chrono::steady_clock::now() - t0, kBound);

        EXPECT_TRUE(ft.report.faulted);
        ASSERT_EQ(ft.report.failed_ranks, std::vector<int>{victim});
        EXPECT_GT(ft.report.pixels_lost, 0);
        EXPECT_FALSE(ft.report.events.empty());
        EXPECT_TRUE(ft.report.events.front().primary);
        const auto base_plan = method->resume_plan(ranks);
        if (base_plan) {
          EXPECT_TRUE(ft.report.resumed);
          EXPECT_FALSE(ft.report.degraded);
          EXPECT_GE(ft.report.resume_epoch, 0);
          EXPECT_NE(ft.result.method.find("[resumed]"), std::string::npos);
          expect_images_near(
              ft.result.final_image,
              resume_reference(subimages, order, ft.report.failed_ranks, *base_plan,
                               ft.report.resume_epoch));
        } else {
          EXPECT_TRUE(ft.report.degraded);
          EXPECT_NE(ft.result.method.find("[degraded]"), std::string::npos);
          expect_images_near(ft.result.final_image,
                             survivor_reference(subimages, order, ft.report.failed_ranks));
        }
      }
    }
  }
}

TEST(DegradedMode, DroppedMessageWithTimeoutDegrades) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/78);

  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(method->name());
    mp::FaultPlan plan;
    // Lose every message rank 1 sends; the receiver hits the recv deadline.
    plan.drops.push_back({/*source=*/1, /*dest=*/mp::kAnyRankRule, /*tag=*/mp::kAnyTagRule,
                          /*stage=*/mp::kAnyStageRule, /*max_count=*/1 << 20});
    plan.recv_timeout = std::chrono::milliseconds(150);

    const auto t0 = std::chrono::steady_clock::now();
    const pvr::FtMethodResult ft = pvr::run_compositing_ft(*method, subimages, order, plan);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, kBound);

    EXPECT_TRUE(ft.report.faulted);
    // Which rank gets blamed (the timeout victim) is method-dependent; the
    // contract is that the frame equals the reference minus what the report
    // says was unrecoverable.
    ASSERT_FALSE(ft.report.failed_ranks.empty());
    EXPECT_LT(ft.report.failed_ranks.size(), static_cast<std::size_t>(ranks));
    const auto base_plan = method->resume_plan(ranks);
    if (base_plan) {
      EXPECT_TRUE(ft.report.resumed);
      expect_images_near(
          ft.result.final_image,
          resume_reference(subimages, order, ft.report.failed_ranks, *base_plan,
                           ft.report.resume_epoch));
    } else {
      EXPECT_TRUE(ft.report.degraded);
      expect_images_near(ft.result.final_image,
                         survivor_reference(subimages, order, ft.report.failed_ranks));
    }
  }
}

TEST(DegradedMode, TruncatedPayloadRaisesDecodeErrorAndDegrades) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/79);

  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(method->name());
    mp::FaultPlan plan;
    // Truncate one stage-1 message from rank 2: the receiver's decoder must
    // fail with a typed DecodeError (never read out of bounds), then the
    // frame is finished from the survivors.
    plan.corruptions.push_back({/*source=*/2, /*dest=*/mp::kAnyRankRule,
                                /*tag=*/mp::kAnyTagRule, /*stage=*/1, /*flip_bytes=*/0,
                                /*truncate_bytes=*/6, /*max_count=*/1});

    const pvr::FtMethodResult ft = pvr::run_compositing_ft(*method, subimages, order, plan);

    EXPECT_TRUE(ft.report.faulted);
    ASSERT_FALSE(ft.report.failed_ranks.empty());
    bool saw_decode_error = false;
    for (const pvr::FaultEvent& e : ft.report.events) {
      saw_decode_error =
          saw_decode_error || (e.primary && e.what.find("short read") != std::string::npos);
    }
    EXPECT_TRUE(saw_decode_error);
    const auto base_plan = method->resume_plan(ranks);
    if (base_plan) {
      EXPECT_TRUE(ft.report.resumed);
      expect_images_near(
          ft.result.final_image,
          resume_reference(subimages, order, ft.report.failed_ranks, *base_plan,
                           ft.report.resume_epoch));
    } else {
      EXPECT_TRUE(ft.report.degraded);
      expect_images_near(ft.result.final_image,
                         survivor_reference(subimages, order, ft.report.failed_ranks));
    }
  }
}

TEST(DegradedMode, EmptyPlanMatchesPlainRunExactly) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/80);

  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(method->name());
    const pvr::MethodResult plain = pvr::run_compositing(*method, subimages, order);
    const pvr::FtMethodResult ft =
        pvr::run_compositing_ft(*method, subimages, order, mp::FaultPlan{});
    EXPECT_FALSE(ft.report.faulted);
    EXPECT_EQ(ft.report.retries, 0);
    EXPECT_EQ(ft.result.method, plain.method);
    // Byte-identical: the fault-free path must not perturb the arithmetic.
    expect_images_near(ft.result.final_image, plain.final_image, 0.0f);
  }
}

TEST(DegradedMode, AllRanksLostYieldsBlankFrameAndReport) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 32, 24, 0.5, /*seed=*/81);

  mp::FaultPlan plan;
  plan.kills.push_back({mp::kAnyRankRule, 1});  // everybody dies at stage 1
  const core::Compositor& method = core::bs();
  const pvr::FtMethodResult ft = pvr::run_compositing_ft(method, subimages, order, plan);

  EXPECT_TRUE(ft.report.faulted);
  EXPECT_FALSE(ft.report.degraded);
  EXPECT_EQ(ft.report.failed_ranks.size(), static_cast<std::size_t>(ranks));
  EXPECT_NE(ft.report.summary().find("frame lost"), std::string::npos);
  EXPECT_EQ(img::count_non_blank(ft.result.final_image, ft.result.final_image.bounds()), 0);
}

TEST(DegradedMode, ExperimentRunFtEndToEnd) {
  pvr::ExperimentConfig config;
  config.ranks = 4;
  config.image_size = 64;
  config.volume_scale = 0.15;
  const pvr::Experiment experiment(config);

  mp::FaultPlan plan;
  plan.kills.push_back({/*rank=*/3, /*stage=*/1});
  const core::Compositor& method = core::bsbrc();
  const pvr::FtMethodResult ft = experiment.run_ft(method, plan);
  EXPECT_TRUE(ft.report.faulted);
  // BSBRC exposes a resumable rect plan, so the frame heals mid-frame.
  EXPECT_TRUE(ft.report.resumed);
  EXPECT_FALSE(ft.report.degraded);
  EXPECT_EQ(ft.report.failed_ranks, std::vector<int>{3});
  EXPECT_EQ(ft.result.final_image.width(), 64);

  // And a clean plan reproduces the normal pipeline bit-for-bit.
  const pvr::FtMethodResult clean = experiment.run_ft(method, mp::FaultPlan{});
  EXPECT_FALSE(clean.report.faulted);
  expect_images_near(clean.result.final_image, experiment.run(method).final_image, 0.0f);
}

// ---- reliable transport: NAK/retransmit healing ----------------------------

// The other half of the tentpole: with the retry policy enabled, dropped
// messages are healed from the sender's in-flight buffer — every paper
// method finishes byte-identical to its fault-free frame, no PE is blamed,
// and the report's RetryStats show the heal.
TEST(TransportHealing, DropsHealByteIdenticalEveryMethod) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/82);

  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(method->name());
    const pvr::MethodResult clean = pvr::run_compositing(*method, subimages, order);

    mp::FaultPlan plan;
    // Lose every message rank 1 sends — without retries this degrades the
    // frame (DroppedMessageWithTimeoutDegrades); with them it must heal.
    plan.drops.push_back({/*source=*/1, /*dest=*/mp::kAnyRankRule, /*tag=*/mp::kAnyTagRule,
                          /*stage=*/mp::kAnyStageRule, /*max_count=*/1 << 20});
    plan.retry.max_attempts = 6;

    const auto t0 = std::chrono::steady_clock::now();
    const pvr::FtMethodResult ft = pvr::run_compositing_ft(*method, subimages, order, plan);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, kBound);

    EXPECT_FALSE(ft.report.faulted);
    EXPECT_TRUE(ft.report.failed_ranks.empty());
    EXPECT_EQ(ft.report.retries, 0);
    EXPECT_GT(ft.report.retry_stats.retransmits, 0u);
    EXPECT_GT(ft.report.retry_stats.healed_bytes, 0u);
    EXPECT_NE(ft.report.summary().find("transport healed"), std::string::npos);
    expect_images_near(ft.result.final_image, clean.final_image, 0.0f);
  }
}

TEST(TransportHealing, CorruptionHealsByteIdenticalEveryMethod) {
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/83);

  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(method->name());
    const pvr::MethodResult clean = pvr::run_compositing(*method, subimages, order);

    mp::FaultPlan plan;
    plan.seed = 0x5151ULL;
    // Flip and truncate every message on the wire: the CRC32C catches the
    // damage before any decoder sees it, and the pristine in-flight copy
    // heals the channel.
    plan.corruptions.push_back({mp::kAnyRankRule, mp::kAnyRankRule, mp::kAnyTagRule,
                                mp::kAnyStageRule, /*flip_bytes=*/6, /*truncate_bytes=*/3,
                                /*max_count=*/1 << 20});
    plan.retry.max_attempts = 6;

    const pvr::FtMethodResult ft = pvr::run_compositing_ft(*method, subimages, order, plan);

    EXPECT_FALSE(ft.report.faulted);
    EXPECT_GT(ft.report.retry_stats.naks, 0u);
    EXPECT_GT(ft.report.retry_stats.retransmits, 0u);
    expect_images_near(ft.result.final_image, clean.final_image, 0.0f);
  }
}

TEST(TransportHealing, MixedDropAndCorruptionHeals) {
  const int ranks = 8;
  const core::SwapOrder order = make_default_order(3);
  const auto subimages = make_subimages(ranks, 40, 32, 0.4, /*seed=*/84);

  const core::Compositor& method = core::bsbrc();
  const pvr::MethodResult clean = pvr::run_compositing(method, subimages, order);

  mp::FaultPlan plan;
  plan.seed = 0xC0FFEEULL;
  plan.drops.push_back({/*source=*/3, /*dest=*/mp::kAnyRankRule, /*tag=*/mp::kAnyTagRule,
                        /*stage=*/mp::kAnyStageRule, /*max_count=*/2});
  plan.corruptions.push_back({/*source=*/5, /*dest=*/mp::kAnyRankRule, /*tag=*/mp::kAnyTagRule,
                              /*stage=*/mp::kAnyStageRule, /*flip_bytes=*/9,
                              /*truncate_bytes=*/0, /*max_count=*/3});
  plan.retry.max_attempts = 6;

  const pvr::FtMethodResult ft = pvr::run_compositing_ft(method, subimages, order, plan);
  EXPECT_FALSE(ft.report.faulted);
  EXPECT_GT(ft.report.retry_stats.retransmits, 0u);
  expect_images_near(ft.result.final_image, clean.final_image, 0.0f);
}

TEST(TransportHealing, RetryDisabledStillDegrades) {
  // Control: the same drop rule without a retry policy must take the legacy
  // abort-and-recover path, proving the healing is opt-in.
  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/85);

  const core::Compositor& method = core::bs();
  mp::FaultPlan plan;
  plan.drops.push_back({/*source=*/1, /*dest=*/mp::kAnyRankRule, /*tag=*/mp::kAnyTagRule,
                        /*stage=*/mp::kAnyStageRule, /*max_count=*/1 << 20});
  plan.recv_timeout = std::chrono::milliseconds(150);

  const pvr::FtMethodResult ft = pvr::run_compositing_ft(method, subimages, order, plan);
  EXPECT_TRUE(ft.report.faulted);
  EXPECT_EQ(ft.report.retry_stats.retransmits, 0u);
}

// ---- kill matrix over the PR 3 plan combinations ---------------------------

// The cross-bred (plan, codec) methods ride the same fault-tolerance stack:
// killing a PE mid-exchange terminates bounded and finishes the frame —
// mid-frame repair for the resumable k-ary rect combinations, degraded
// restart for the rest (tree / direct send / scalar codecs).
TEST(DegradedMode, KillMatrixPlanCombinations) {
  struct Combo {
    const char* name;
    core::PlanFamily family;
    core::CodecKind codec;
    core::TrackerKind tracker;
  };
  const std::vector<Combo> combos = {
      {"KaryBS", core::PlanFamily::kKary, core::CodecKind::kFullPixel,
       core::TrackerKind::kNone},
      {"KaryBR", core::PlanFamily::kKary, core::CodecKind::kBoundingRect,
       core::TrackerKind::kUnion},
      {"KaryBRC", core::PlanFamily::kKary, core::CodecKind::kRleRect,
       core::TrackerKind::kUnion},
      {"KaryLC", core::PlanFamily::kKary, core::CodecKind::kInterleavedRle,
       core::TrackerKind::kNone},
      {"Tree-BRC", core::PlanFamily::kBinaryTree, core::CodecKind::kRleRect,
       core::TrackerKind::kUnion},
      {"DirectSend-BRC", core::PlanFamily::kDirectSend, core::CodecKind::kRleRect,
       core::TrackerKind::kUnion},
  };

  const int ranks = 4;
  const core::SwapOrder order = make_default_order(2);
  const auto subimages = make_subimages(ranks, 48, 40, 0.35, /*seed=*/86);

  for (const Combo& combo : combos) {
    const core::PlanCompositor method(combo.name, combo.family, combo.codec, combo.tracker);
    for (int victim = 0; victim < ranks; ++victim) {
      SCOPED_TRACE(std::string(combo.name) + " kill rank " + std::to_string(victim));
      mp::FaultPlan plan;
      plan.kills.push_back({victim, /*stage=*/1});

      const auto t0 = std::chrono::steady_clock::now();
      const pvr::FtMethodResult ft = pvr::run_compositing_ft(method, subimages, order, plan);
      EXPECT_LT(std::chrono::steady_clock::now() - t0, kBound);

      EXPECT_TRUE(ft.report.faulted);
      ASSERT_EQ(ft.report.failed_ranks, std::vector<int>{victim});
      const auto base_plan = method.resume_plan(ranks);
      if (base_plan) {
        EXPECT_TRUE(ft.report.resumed);
        expect_images_near(
            ft.result.final_image,
            resume_reference(subimages, order, ft.report.failed_ranks, *base_plan,
                             ft.report.resume_epoch));
      } else {
        EXPECT_TRUE(ft.report.degraded);
        expect_images_near(ft.result.final_image,
                           survivor_reference(subimages, order, ft.report.failed_ranks));
      }
    }
  }
}

// ---- hardened wire decoding -----------------------------------------------

TEST(WireDecode, ParseRectRejectsOutOfBounds) {
  img::PackBuffer buf;
  buf.put(img::to_wire(img::Rect{0, 0, 100, 100}));
  img::UnpackBuffer in(buf.bytes());
  EXPECT_THROW((void)wire::parse_rect(in, img::Rect{0, 0, 64, 48}), img::DecodeError);
}

TEST(WireDecode, ParseRectRejectsTruncatedHeader) {
  const std::vector<std::byte> bytes(4);  // WireRect needs 8
  img::UnpackBuffer in(bytes);
  EXPECT_THROW((void)wire::parse_rect(in, img::Rect{0, 0, 64, 48}), img::DecodeError);
}

TEST(WireDecode, ParseRectAcceptsEmptyAndInBounds) {
  img::PackBuffer buf;
  buf.put(img::to_wire(img::kEmptyRect));
  buf.put(img::to_wire(img::Rect{2, 3, 10, 12}));
  img::UnpackBuffer in(buf.bytes());
  EXPECT_TRUE(wire::parse_rect(in, img::Rect{0, 0, 64, 48}).empty());
  const img::Rect rect = wire::parse_rect(in, img::Rect{0, 0, 64, 48});
  EXPECT_EQ(rect, (img::Rect{2, 3, 10, 12}));
}

TEST(WireDecode, ParseRleRejectsOvershootingCodes) {
  img::Rle rle;
  rle.length = 4;
  rle.codes = {2, 3};  // 5 pixels claimed for a 4-pixel sequence
  rle.pixels = {img::Pixel{1, 1, 1, 1}, img::Pixel{1, 1, 1, 1}, img::Pixel{1, 1, 1, 1}};
  img::PackBuffer buf;
  wire::pack_rle(rle, buf);
  img::UnpackBuffer in(buf.bytes());
  EXPECT_THROW((void)wire::parse_rle(in, 4), img::DecodeError);
}

TEST(WireDecode, ParseSpansRejectsTruncatedBuffer) {
  const auto subimages = make_subimages(1, 16, 16, 0.8, /*seed=*/5);
  core::Counters counters;
  const img::Rect rect{0, 0, 16, 16};
  const img::SpanImage spans = wire::encode_spans(subimages[0], rect, counters);
  img::PackBuffer buf;
  wire::pack_spans(spans, buf);
  ASSERT_GT(buf.size(), 8u);
  const auto bytes = buf.bytes();
  const std::vector<std::byte> cut(bytes.begin(), bytes.end() - 8);
  img::UnpackBuffer in(cut);
  EXPECT_THROW((void)wire::parse_spans(in, rect), img::DecodeError);
}

TEST(WireDecode, GetVectorRejectsHugeCountBeforeAllocating) {
  const std::vector<std::byte> bytes(16);
  img::UnpackBuffer in(bytes);
  // A corrupted count must throw, not attempt a ~64 GiB allocation.
  EXPECT_THROW((void)in.get_vector<img::Pixel>(std::size_t{1} << 32), img::DecodeError);
}
