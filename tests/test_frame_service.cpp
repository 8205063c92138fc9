// The explicit engine context and the FrameService built on it.
//
// The headline regression here is ConcurrentFramesShareNothing: two frames
// compositing concurrently in ONE process, with *different* engine knobs
// (worker fan-out). Under the old process-global engine state (a global
// workers-per-rank knob and per-thread scratch keyed by rank id) this raced
// — the second frame's knob writes bled into the first frame's decode path
// mid-flight, and TSan flagged the scratch aliasing. With
// EngineConfig/EngineContext threaded explicitly the frames share nothing,
// and the suite runs TSan-clean.
//
// The FrameService tests then cover what the refactor unblocks: bounded
// admission (reject-new and shed-oldest), round-robin interleaving of N
// sessions over the shared rank pool, per-session pooled arenas with the
// post-frame shrink-or-reset trim, and per-frame fault isolation (a fault
// injected into one session's frame leaves every other session's frames
// byte-identical to a fault-free run).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/plan_compositor.hpp"
#include "core/worker_pool.hpp"
#include "mp/fault.hpp"
#include "pvr/experiment.hpp"
#include "pvr/frame_service.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
namespace mp = slspvr::mp;
namespace vol = slspvr::vol;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;

namespace {

core::EngineConfig engine_config(int workers) {
  core::EngineConfig config;
  config.workers_per_rank = workers;
  return config;
}

void expect_bytes_identical(const img::Image& got, const img::Image& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  if (got.pixel_count() == 0) return;
  EXPECT_EQ(0, std::memcmp(got.pixels().data(), want.pixels().data(),
                           static_cast<std::size_t>(got.pixel_count()) * sizeof(img::Pixel)));
}

}  // namespace

TEST(EngineContext, UseGuardRejectsTwoConcurrentFramesOnOneContext) {
  core::EngineContext engine;
  {
    const core::EngineContext::UseGuard first(engine);
    EXPECT_THROW(core::EngineContext::UseGuard{engine}, std::logic_error);
  }
  // Released: a later frame may take the context again.
  const core::EngineContext::UseGuard second(engine);
}

TEST(EngineContext, ScratchFrameTracksRequestedDims) {
  core::EngineContext engine;
  img::Image& big = engine.scratch_frame(8, 6);
  EXPECT_EQ(big.width(), 8);
  EXPECT_EQ(big.height(), 6);
  big.at(3, 2) = img::Pixel{1.0f, 0.5f, 0.25f, 1.0f};

  // A smaller request must yield a frame of the *requested* dims, zeroed —
  // never the larger frame's buffer wearing the wrong size.
  img::Image& small = engine.scratch_frame(4, 4);
  EXPECT_EQ(small.width(), 4);
  EXPECT_EQ(small.height(), 4);
  for (std::int64_t i = 0; i < small.pixel_count(); ++i) {
    EXPECT_EQ(small.at_index(i).a, 0.0f);
  }
}

// THE regression test for the process-global engine state: two frames
// composite concurrently in one process with different knobs. Before the
// EngineConfig/EngineContext refactor the knobs were process globals and the
// scratch was shared per rank id, so these two frames raced (and TSan
// failed); now each frame threads its own context and both must be
// byte-identical to their serial references.
TEST(ConcurrentFrames, ConcurrentFramesShareNothing) {
  const core::Compositor& bsbrc = core::bsbrc();
  const core::Compositor& bslc = core::bslc();
  const auto order = make_default_order(2);
  const auto subimages_a = make_subimages(4, 96, 80, 0.4, 101);
  const auto subimages_b = make_subimages(4, 64, 56, 0.5, 202);

  // Serial references, computed before any concurrency.
  const core::EngineConfig config_a = engine_config(2);
  const core::EngineConfig config_b = engine_config(1);
  const pvr::MethodResult ref_a =
      pvr::run_compositing(bsbrc, subimages_a, order, core::CostModel::sp2(), config_a);
  const pvr::MethodResult ref_b =
      pvr::run_compositing(bslc, subimages_b, order, core::CostModel::sp2(), config_b);

  constexpr int kIters = 4;
  std::atomic<bool> go{false};
  std::vector<img::Image> frames_a(kIters), frames_b(kIters);

  std::thread worker_a([&] {
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kIters; ++i) {
      frames_a[static_cast<std::size_t>(i)] =
          pvr::run_compositing(bsbrc, subimages_a, order, core::CostModel::sp2(), config_a)
              .final_image;
    }
  });
  std::thread worker_b([&] {
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kIters; ++i) {
      frames_b[static_cast<std::size_t>(i)] =
          pvr::run_compositing(bslc, subimages_b, order, core::CostModel::sp2(), config_b)
              .final_image;
    }
  });
  go.store(true, std::memory_order_release);
  worker_a.join();
  worker_b.join();

  for (int i = 0; i < kIters; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    expect_bytes_identical(frames_a[static_cast<std::size_t>(i)], ref_a.final_image);
    expect_bytes_identical(frames_b[static_cast<std::size_t>(i)], ref_b.final_image);
  }
}

// Shrink-or-reset audit: a 768^2 frame through a pooled arena must not keep
// advertising the big frame's buffers once the pool is trimmed back to a
// 384^2 budget, and a later 384^2 frame through the same (trimmed) arena
// must still be byte-identical to one through a fresh arena.
TEST(EngineArena, TrimReleasesTheLargerFramesBuffers) {
  const core::Compositor& bsbrc = core::bsbrc();
  const auto order = make_default_order(1);
  const auto big = make_subimages(2, 768, 768, 0.35, 7);
  const auto small = make_subimages(2, 384, 384, 0.35, 8);

  core::EngineArena arena(engine_config(2), 2);
  const pvr::MethodResult big_result =
      pvr::run_compositing(bsbrc, big, order, core::CostModel::sp2(), {}, &arena);
  const std::size_t bytes_after_big = arena.scratch_bytes();
  ASSERT_GT(bytes_after_big, 0u);

  arena.trim(static_cast<std::int64_t>(384) * 384);
  const std::size_t bytes_after_trim = arena.scratch_bytes();
  EXPECT_LT(bytes_after_trim, bytes_after_big);

  const pvr::MethodResult fresh =
      pvr::run_compositing(bsbrc, small, order, core::CostModel::sp2(), engine_config(2));
  const pvr::MethodResult reused =
      pvr::run_compositing(bsbrc, small, order, core::CostModel::sp2(), {}, &arena);
  expect_bytes_identical(reused.final_image, fresh.final_image);

  // After the small frame the pool must still be sized for small frames: a
  // 768^2 frame needs ~4x the pixels of a 384^2 one, so half the big
  // footprint is a generous ceiling.
  EXPECT_LE(arena.scratch_bytes(), bytes_after_big / 2);
  (void)big_result;
}

namespace {

pvr::SessionConfig small_session(const std::string& name, vol::DatasetKind dataset) {
  pvr::SessionConfig config;
  config.name = name;
  config.dataset = dataset;
  config.volume_scale = 0.12;
  config.image_size = 64;
  config.ranks = 4;
  return config;
}

img::Image serial_reference(const pvr::SessionConfig& session, const core::Compositor& method,
                            float rot_x, float rot_y, const mp::FaultPlan& faults = {}) {
  pvr::ExperimentConfig config;
  config.dataset = session.dataset;
  config.volume_scale = session.volume_scale;
  config.image_size = session.image_size;
  config.ranks = session.ranks;
  config.rot_x_deg = rot_x;
  config.rot_y_deg = rot_y;
  const pvr::Experiment experiment(config);
  if (faults.empty()) return experiment.run(method).final_image;
  return experiment.run_ft(method, faults).result.final_image;
}

}  // namespace

TEST(FrameService, InterleavesSessionsAndMatchesSerialReferences) {
  const core::Compositor& bsbrc = core::bsbrc();
  const core::Compositor& bslc = core::bslc();
  const core::Compositor& bs = core::bs();
  const core::Compositor* methods[] = {&bsbrc, &bslc, &bs};
  const vol::DatasetKind datasets[] = {vol::DatasetKind::Cube, vol::DatasetKind::Head,
                                       vol::DatasetKind::EngineLow};

  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 2;
  service_config.queue_depth = 8;
  pvr::FrameService service(service_config);

  struct State {
    int id;
    pvr::FrameRequest request;
    img::Image reference;
  };
  std::vector<State> states;
  for (int s = 0; s < 3; ++s) {
    const pvr::SessionConfig config =
        small_session("s" + std::to_string(s), datasets[s]);
    State state;
    state.id = service.add_session(config, *methods[s]);
    state.request.rot_x_deg = 10.0f + 8.0f * static_cast<float>(s);
    state.request.rot_y_deg = 20.0f + 6.0f * static_cast<float>(s);
    state.reference = serial_reference(config, *methods[s], state.request.rot_x_deg,
                                       state.request.rot_y_deg);
    states.push_back(std::move(state));
  }

  constexpr int kFrames = 3;
  std::vector<std::future<pvr::FrameResult>> futures;
  for (int f = 0; f < kFrames; ++f) {
    for (State& state : states) {
      auto future = service.submit(state.id, state.request);
      ASSERT_TRUE(future.has_value());
      futures.push_back(std::move(*future));
    }
  }
  service.drain();

  for (std::future<pvr::FrameResult>& future : futures) {
    pvr::FrameResult frame = future.get();
    ASSERT_EQ(frame.status, pvr::FrameStatus::kDone);
    EXPECT_FALSE(frame.report.faulted);
    EXPECT_GE(frame.latency_ms, frame.run_ms);
    expect_bytes_identical(frame.image,
                           states[static_cast<std::size_t>(frame.session)].reference);
  }
  const pvr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(3 * kFrames));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(3 * kFrames));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 0u);

  // The per-session pool stays trimmed to the session's own frame budget.
  for (const State& state : states) {
    EXPECT_GT(service.session_scratch_bytes(state.id), 0u);
  }
}

TEST(FrameService, RejectNewBouncesWhenTheQueueIsFull) {
  const core::Compositor& bsbrc = core::bsbrc();
  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 1;
  service_config.queue_depth = 1;
  service_config.overload = pvr::OverloadPolicy::kRejectNew;
  pvr::FrameService service(service_config);

  const pvr::SessionConfig config = small_session("only", vol::DatasetKind::Cube);
  const int id = service.add_session(config, bsbrc);
  const img::Image reference = serial_reference(config, bsbrc, 18.0f, 24.0f);

  pvr::FrameRequest request;
  constexpr int kSubmissions = 8;
  std::vector<std::future<pvr::FrameResult>> futures;
  int bounced = 0;
  for (int i = 0; i < kSubmissions; ++i) {
    auto future = service.submit(id, request);
    if (future) {
      futures.push_back(std::move(*future));
    } else {
      ++bounced;
    }
  }
  service.drain();

  // A tight submission loop outruns a frame that has to render a volume:
  // the depth-1 queue must have bounced at least one submission.
  EXPECT_GE(bounced, 1);
  for (std::future<pvr::FrameResult>& future : futures) {
    pvr::FrameResult frame = future.get();
    ASSERT_EQ(frame.status, pvr::FrameStatus::kDone);
    expect_bytes_identical(frame.image, reference);
  }
  const pvr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(bounced));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(futures.size()));
  EXPECT_EQ(stats.shed, 0u);
}

// Shed-oldest under a burst of open-loop arrivals: three sessions (BSBRC,
// BSLC, BS) over two executors, each flooded with back-to-back submissions
// that overrun its depth-1 queue.
// Every future resolves — done + shed = submitted for each session — and
// every completed frame is byte-identical to its session's serial
// reference. No wall-clock bound applies; the per-test TIMEOUT is the hang
// gate.
TEST(FrameService, ShedOldestResolvesVictimFuturesAndAdmitsTheNew) {
  const core::Compositor& bsbrc = core::bsbrc();
  const core::Compositor& bslc = core::bslc();
  const core::Compositor& bs = core::bs();
  const core::Compositor* methods[] = {&bsbrc, &bslc, &bs};
  const vol::DatasetKind datasets[] = {vol::DatasetKind::Cube, vol::DatasetKind::Head,
                                       vol::DatasetKind::EngineLow};

  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 2;
  service_config.queue_depth = 1;
  service_config.overload = pvr::OverloadPolicy::kShedOldest;
  pvr::FrameService service(service_config);

  struct State {
    int id;
    pvr::FrameRequest request;
    img::Image reference;
    std::vector<std::future<pvr::FrameResult>> futures;
  };
  std::vector<State> states;
  for (int s = 0; s < 3; ++s) {
    const pvr::SessionConfig config = small_session("s" + std::to_string(s), datasets[s]);
    State state;
    state.id = service.add_session(config, *methods[s]);
    state.request.rot_x_deg = 18.0f + 7.0f * static_cast<float>(s);
    state.request.rot_y_deg = 24.0f + 5.0f * static_cast<float>(s);
    state.reference = serial_reference(config, *methods[s], state.request.rot_x_deg,
                                       state.request.rot_y_deg);
    states.push_back(std::move(state));
  }

  // The burst: round f of every session goes in back to back, with no gap.
  constexpr int kBurst = 8;
  for (int f = 0; f < kBurst; ++f) {
    for (State& state : states) {
      auto future = service.submit(state.id, state.request);
      ASSERT_TRUE(future.has_value()) << "shed-oldest never bounces the new request";
      state.futures.push_back(std::move(*future));
    }
  }
  service.drain();

  int done_total = 0, shed_total = 0;
  for (State& state : states) {
    SCOPED_TRACE("session " + std::to_string(state.id));
    int done = 0, shed = 0;
    for (std::future<pvr::FrameResult>& future : state.futures) {
      pvr::FrameResult frame = future.get();
      EXPECT_EQ(frame.session, state.id);
      if (frame.status == pvr::FrameStatus::kShed) {
        ++shed;
        EXPECT_EQ(frame.image.pixel_count(), 0);
        continue;
      }
      ++done;
      EXPECT_FALSE(frame.report.faulted);
      expect_bytes_identical(frame.image, state.reference);
    }
    EXPECT_EQ(done + shed, kBurst);
    done_total += done;
    shed_total += shed;
  }
  EXPECT_GE(shed_total, 1) << "depth-1 queues under a burst of " << kBurst
                           << " per session must shed";
  const pvr::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(3 * kBurst));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed_total));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(done_total));
  EXPECT_EQ(stats.rejected, 0u);
}

// Per-frame fault isolation: one of three concurrent sessions carries a
// rank-kill fault plan on every frame; the victim's frames must resolve via
// the recovery ladder (repair or degraded, matching the serial fault-run
// reference), and the clean sessions' frames must be byte-identical to
// their fault-free references.
TEST(FrameService, FaultInOneSessionLeavesTheOthersByteIdentical) {
  const core::Compositor& bsbrc = core::bsbrc();
  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 2;
  service_config.queue_depth = 8;
  pvr::FrameService service(service_config);

  mp::FaultPlan kill_plan;
  kill_plan.kills.push_back({/*rank=*/1, /*stage=*/1});

  struct State {
    int id;
    pvr::FrameRequest request;
    img::Image reference;
    bool faulted;
  };
  std::vector<State> states;
  for (int s = 0; s < 3; ++s) {
    const pvr::SessionConfig config =
        small_session("s" + std::to_string(s), vol::DatasetKind::Head);
    State state;
    state.id = service.add_session(config, bsbrc);
    state.faulted = s == 1;
    state.request.rot_x_deg = 12.0f + 9.0f * static_cast<float>(s);
    state.request.rot_y_deg = 21.0f + 7.0f * static_cast<float>(s);
    if (state.faulted) state.request.faults = kill_plan;
    state.reference =
        serial_reference(config, bsbrc, state.request.rot_x_deg, state.request.rot_y_deg,
                         state.faulted ? kill_plan : mp::FaultPlan{});
    states.push_back(std::move(state));
  }

  constexpr int kFrames = 2;
  std::vector<std::future<pvr::FrameResult>> futures;
  for (int f = 0; f < kFrames; ++f) {
    for (State& state : states) {
      auto future = service.submit(state.id, state.request);
      ASSERT_TRUE(future.has_value());
      futures.push_back(std::move(*future));
    }
  }
  service.drain();

  for (std::future<pvr::FrameResult>& future : futures) {
    pvr::FrameResult frame = future.get();
    ASSERT_EQ(frame.status, pvr::FrameStatus::kDone);
    const State& state = states[static_cast<std::size_t>(frame.session)];
    if (state.faulted) {
      EXPECT_TRUE(frame.report.faulted);
      EXPECT_TRUE(frame.report.resumed || frame.report.degraded);
    } else {
      EXPECT_FALSE(frame.report.faulted);
    }
    // Both the clean frames AND the recovered frames are deterministic:
    // every one matches its serial (fault-free or fault-run) reference.
    expect_bytes_identical(frame.image, state.reference);
  }
}

TEST(FrameService, CameraMovesRenderFromTheSessionsVolume) {
  // Every request moves the camera, so every frame re-renders its subimages
  // from the volume the session generated on its first frame. Each frame
  // must equal a fresh Experiment(config).run of its own view.
  const core::Compositor& bsbrc = core::bsbrc();
  pvr::FrameService service;
  const pvr::SessionConfig config = small_session("orbit", vol::DatasetKind::Head);
  const int id = service.add_session(config, bsbrc);

  const std::pair<float, float> views[] = {{18.0f, 24.0f}, {18.0f, 54.0f}, {-30.0f, 200.0f},
                                           {18.0f, 24.0f}};
  std::vector<std::future<pvr::FrameResult>> futures;
  for (const auto& [rot_x, rot_y] : views) {
    pvr::FrameRequest request;
    request.rot_x_deg = rot_x;
    request.rot_y_deg = rot_y;
    auto future = service.submit(id, request);
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  service.drain();

  for (std::size_t k = 0; k < futures.size(); ++k) {
    pvr::FrameResult frame = futures[k].get();
    ASSERT_EQ(frame.status, pvr::FrameStatus::kDone);
    EXPECT_FALSE(frame.report.faulted);
    expect_bytes_identical(frame.image,
                           serial_reference(config, bsbrc, views[k].first, views[k].second));
  }
}

// The service's fold decision: sessions at 3 and 6 ranks run their method
// inside the fold extension over slab bricks, and each frame must equal a
// fresh Experiment(config).run of its own view, byte for byte.
TEST(FrameService, NonPowerOfTwoRankSessionsFoldLikeExperiment) {
  pvr::FrameServiceConfig service_config;
  service_config.max_in_flight = 2;
  service_config.queue_depth = 8;
  pvr::FrameService service(service_config);

  struct Session {
    int id;
    pvr::SessionConfig config;
    const core::Compositor* method;
  };
  std::vector<Session> sessions;
  for (const int ranks : {3, 6}) {
    for (const core::Compositor* method : {&core::bsbrc(), &core::bslc()}) {
      pvr::SessionConfig config = small_session(
          std::string(method->name()) + "@" + std::to_string(ranks), vol::DatasetKind::Head);
      config.ranks = ranks;
      sessions.push_back({service.add_session(config, *method), config, method});
    }
  }

  const std::pair<float, float> views[] = {{18.0f, 24.0f}, {-30.0f, 200.0f}, {40.0f, 75.0f}};
  struct Pending {
    const Session* session;
    std::pair<float, float> view;
    std::future<pvr::FrameResult> future;
  };
  std::vector<Pending> pending;
  for (const auto& view : views) {
    for (const Session& session : sessions) {
      pvr::FrameRequest request;
      request.rot_x_deg = view.first;
      request.rot_y_deg = view.second;
      auto future = service.submit(session.id, request);
      ASSERT_TRUE(future.has_value());
      pending.push_back({&session, view, std::move(*future)});
    }
  }
  service.drain();

  for (Pending& p : pending) {
    SCOPED_TRACE(p.session->config.name + " view " + std::to_string(p.view.first) + "," +
                 std::to_string(p.view.second));
    pvr::FrameResult frame = p.future.get();
    ASSERT_EQ(frame.status, pvr::FrameStatus::kDone);
    EXPECT_FALSE(frame.report.faulted);
    expect_bytes_identical(frame.image, serial_reference(p.session->config, *p.session->method,
                                                         p.view.first, p.view.second));
  }
}
