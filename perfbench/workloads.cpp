#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <iostream>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/binary_swap.hpp"
#include "core/bsbrc.hpp"
#include "core/bslc.hpp"
#include "layers.hpp"
#include "pvr/frame_service.hpp"

namespace perfbench {

namespace {

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

/// Run fn(i) for i in [0, n) on `threads` threads (reference rendering).
template <typename Fn>
void parallel_for(int n, int threads, Fn&& fn) {
  std::atomic<int> next{0};
  std::vector<std::future<void>> pool;
  for (int t = 0; t < threads; ++t) {
    pool.push_back(std::async(std::launch::async, [&] {
      for (int i = next++; i < n; i = next++) fn(i);
    }));
  }
  for (auto& f : pool) f.get();  // rethrows a worker's exception
}

/// Median isolated SPMD composite of `replay`'s subimages with `v`'s method.
double isolated_composite_ms(const ViewReplay& replay, const ViewSpec& v, SpanLog& spans) {
  std::vector<double> ms;
  for (int i = 0; i < 21; ++i) {
    ms.push_back(composite_spmd(*v.method, replay.subimages, replay.order, replay.folded,
                                &spans, 3'000'000 + i, nullptr)
                     .wall_ms);
  }
  return median(ms);
}

/// Report the first few failed frames (also from verification threads).
void note_failure(const std::string& what) {
  static std::atomic<int> shown{0};
  if (shown++ < 5) {
    static std::mutex mutex;
    const std::lock_guard lock(mutex);
    std::cerr << "perfbench: frame failed: " << what << '\n';
  }
}

// ---------------------------------------------------------------------------
// service-orbit: FrameService, three sessions, every frame a new view.

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(std::uint64_t seed) {
    // The slspvr-perf --traffic dataset/method mapping.
    const vol::DatasetKind datasets[kSessions] = {vol::DatasetKind::Cube, vol::DatasetKind::Head,
                                                  vol::DatasetKind::EngineLow};
    methods_.push_back(std::make_unique<core::BsbrcCompositor>());
    methods_.push_back(std::make_unique<core::BslcCompositor>());
    methods_.push_back(std::make_unique<core::BinarySwapCompositor>());
    Rng rng(seed);
    for (int s = 0; s < kSessions; ++s) {
      sessions_[static_cast<std::size_t>(s)] = {datasets[s], rng.below(kRing)};
    }
  }

  [[nodiscard]] int setup_reps() const override { return 5; }

  void setup() override {
    service_.reset();
    pvr::FrameServiceConfig config;
    config.max_in_flight = kSessions;
    config.queue_depth = 4;
    config.overload = pvr::OverloadPolicy::kRejectNew;
    service_ = std::make_unique<pvr::FrameService>(config);
    std::vector<std::future<pvr::FrameResult>> cold;
    for (int s = 0; s < kSessions; ++s) {
      const ViewSpec v = view(s, 0);
      pvr::SessionConfig session;
      session.name = "session-" + std::to_string(s);
      session.dataset = v.dataset;
      session.volume_scale = v.scale;
      session.image_size = kImage;
      session.ranks = kRanks;
      ids_[static_cast<std::size_t>(s)] = service_->add_session(session, *v.method);
      auto future = service_->submit(ids_[static_cast<std::size_t>(s)], request(s, 0));
      if (!future) throw std::runtime_error("service-orbit: cold frame refused");
      cold.push_back(std::move(*future));
      next_[static_cast<std::size_t>(s)] = 1;
    }
    for (auto& f : cold) {
      if (f.get().status != pvr::FrameStatus::kDone) {
        throw std::runtime_error("service-orbit: cold frame not done");
      }
    }
  }

  [[nodiscard]] Window run(double seconds, std::size_t min_samples, SpanLog* spans) override {
    samples_.clear();
    const pvr::ServiceStats before = service_->stats();
    const Usage u0 = usage();
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::atomic<std::size_t> done{0};
    std::array<std::vector<Sample>, kSessions> per_session;
    std::array<std::int64_t, kSessions> last_end{};
    std::array<std::uint64_t, kSessions> refused{};
    std::vector<std::thread> clients;
    for (int s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        const auto si = static_cast<std::size_t>(s);
        int i = next_[si];
        for (;; ++i) {
          if (now_ns() >= deadline && done.load() >= min_samples) break;
          const std::int64_t t0 = now_ns();
          auto future = service_->submit(ids_[si], request(s, i));
          if (!future) {
            ++refused[si];
            continue;
          }
          pvr::FrameResult result = future->get();
          const std::int64_t t1 = now_ns();
          if (spans != nullptr) {  // the service's queue/run split, placed in the call
            const auto frame = static_cast<std::int64_t>(result.id);
            const std::int64_t call = spans->next_id();
            spans->add(Span{"pvr.client_frame", t0, t1, call, -1, frame, s});
            spans->add(Span{"pvr.queue", t0, t0 + static_cast<std::int64_t>(result.queue_ms * 1e6),
                            spans->next_id(), call, frame, s});
            spans->add(Span{"pvr.run", t1 - static_cast<std::int64_t>(result.run_ms * 1e6), t1,
                            spans->next_id(), call, frame, s});
          }
          Sample sample;
          sample.session = s;
          sample.view = view_index(s, i);
          sample.end_ns = t1;
          sample.latency_ms = ms_between(t0, t1);
          sample.queue_ms = result.queue_ms;
          sample.run_ms = result.run_ms;
          sample.done = result.status == pvr::FrameStatus::kDone && clean(result.report);
          sample.digest = digest(result.image);
          per_session[si].push_back(sample);
          last_end[si] = t1;
          ++done;
        }
        next_[si] = i;
      });
    }
    for (std::thread& t : clients) t.join();
    const Usage u1 = usage();

    Window w;
    for (int s = 0; s < kSessions; ++s) {
      const auto si = static_cast<std::size_t>(s);
      samples_.insert(samples_.end(), per_session[si].begin(), per_session[si].end());
      w.attempted += per_session[si].size() + refused[si];
      w.failed += refused[si];
    }
    std::sort(samples_.begin(), samples_.end(),
              [](const Sample& a, const Sample& b) { return a.end_ns < b.end_ns; });
    for (const Sample& sample : samples_) w.frame_ms.push_back(sample.latency_ms);
    w.completed = samples_.size();
    w.frames_per_s = static_cast<double>(w.completed) * 1e3 /
                     ms_between(start, *std::max_element(last_end.begin(), last_end.end()));
    w.cpu_ms = u1.cpu_ms - u0.cpu_ms;
    w.peak_rss_mb = u1.rss_mb;
    const pvr::ServiceStats after = service_->stats();
    window_shed_ = after.shed - before.shed;
    window_rejected_ = after.rejected - before.rejected;
    return w;
  }

  void verify(Window& w) override {
    if (references_.empty()) {
      references_.resize(kSessions * kRing);
      parallel_for(kSessions * kRing, kSessions, [&](int k) {
        const ViewSpec v = view(k / kRing, k % kRing);
        const pvr::Experiment experiment(v.config());
        const pvr::MethodResult result = experiment.run(*v.method);
        references_[static_cast<std::size_t>(k)] = {digest(result.final_image),
                                                    sum(result.received_bytes_per_rank)};
      });
    }
    for (const Sample& s : samples_) {
      if (!s.done || !(s.digest == reference(s.session, s.view).digest)) {
        note_failure("service-orbit session " + std::to_string(s.session) + " view " +
                     std::to_string(s.view));
        ++w.failed;
      }
    }
    double wire = 0.0;  // mean over the 36 ring views
    for (const Reference& r : references_) wire += static_cast<double>(r.wire_bytes);
    w.wire_bytes_per_frame = wire / static_cast<double>(references_.size());
  }

  void layers(SpanLog& spans, Report& report) override {
    // The windows are over: stop the executors, so the replays run alone
    // and the procs probe forks a single-threaded process.
    service_.reset();
    std::vector<ViewReplay> replays;
    std::vector<std::pair<int, SpmdFrame>> frames;
    std::vector<double> sequential;
    for (int k = 0; k < kSessions * kRing; ++k) {
      replays.push_back(replay_view(view(k / kRing, k % kRing), spans, 2'000'000 + k));
      ViewReplay& r = replays.back();
      if (!(digest(r.final_image) == references_[static_cast<std::size_t>(k)].digest)) {
        report.checks_ok = false;
        report.note("replay of service view " + std::to_string(k) + " differs from Experiment");
      }
      frames.emplace_back(k, r.spmd);
      sequential.push_back(r.sequential_ms);
      if (k != 0) r.final_image = img::Image{};  // the procs probe needs view 0 only
      if (k % kRing != 0) r.subimages.clear();   // image kernels: one set per session
    }
    add_volume_render_metrics(replays, report);
    std::vector<const std::vector<img::Image>*> sets;
    for (int s = 0; s < kSessions; ++s) {
      sets.push_back(&replays[static_cast<std::size_t>(s * kRing)].subimages);
    }
    add_image_metrics(sets, report);
    add_core_mp_metrics(frames, sequential, report);

    ServiceLayer service;
    for (const Sample& s : samples_) {
      const ViewReplay& r = replays[static_cast<std::size_t>(s.session * kRing + s.view)];
      service.queue_ms.push_back(s.queue_ms);
      service.run_ms.push_back(s.run_ms);
      service.contention_ms.push_back(s.run_ms -
                                      (r.volume_ms + r.render_ms + r.spmd.wall_ms));
    }
    service.shed = window_shed_;
    service.rejected = window_rejected_;
    add_service_metrics(service, report);

    // The process backend on session 0's first view (cube/BSBRC).
    const ViewSpec probe = view(0, 0);
    const vol::Dataset dataset = vol::make_dataset(probe.dataset, probe.scale);
    add_procs_metrics(probe_procs(probe, dataset, replays.front(), spans, report), report);
  }

  [[nodiscard]] std::string describe() const override {
    std::string out = "ring phases:";
    for (const Session& s : sessions_) {
      out += ' ';
      out += std::to_string(s.phase);
    }
    return out;
  }

 private:
  static constexpr int kSessions = 3;
  static constexpr double kScale = 0.5;

  struct Session {
    vol::DatasetKind dataset = vol::DatasetKind::Cube;
    int phase = 0;  ///< the seeded start view on the ring
  };
  struct Sample {
    int session = 0, view = 0;
    std::int64_t end_ns = 0;  ///< completion: windows keep samples in time order
    double latency_ms = 0.0, queue_ms = 0.0, run_ms = 0.0;
    bool done = false;  ///< completed with a clean fault report
    FrameDigest digest;
  };
  struct Reference {
    FrameDigest digest;
    std::uint64_t wire_bytes = 0;
  };

  /// Ring view v of session s (the --traffic per-session tilt, 30 degree
  /// steps): request i takes view (phase + i) mod 12.
  [[nodiscard]] ViewSpec view(int s, int v) const {
    ViewSpec out;
    out.dataset = sessions_[static_cast<std::size_t>(s)].dataset;
    out.scale = kScale;
    out.rot_x = 18.0f + 7.0f * static_cast<float>(s);
    out.rot_y = 24.0f + 5.0f * static_cast<float>(s) + kRingStepDeg * static_cast<float>(v);
    out.method = methods_[static_cast<std::size_t>(s)].get();
    return out;
  }
  [[nodiscard]] int view_index(int s, int i) const {
    return (sessions_[static_cast<std::size_t>(s)].phase + i) % kRing;
  }
  [[nodiscard]] pvr::FrameRequest request(int s, int i) const {
    const ViewSpec v = view(s, view_index(s, i));
    pvr::FrameRequest r;
    r.rot_x_deg = v.rot_x;
    r.rot_y_deg = v.rot_y;
    return r;
  }
  [[nodiscard]] const Reference& reference(int s, int v) const {
    return references_[static_cast<std::size_t>(s * kRing + v)];
  }

  std::vector<std::unique_ptr<core::Compositor>> methods_;
  std::array<Session, kSessions> sessions_;
  std::unique_ptr<pvr::FrameService> service_;
  std::array<int, kSessions> ids_{};
  std::array<int, kSessions> next_{};
  std::vector<Sample> samples_;
  std::vector<Reference> references_;
  std::uint64_t window_shed_ = 0, window_rejected_ = 0;
};

// ---------------------------------------------------------------------------
// procs-orbit: resident worker processes over Unix sockets.

class ProcsWorkload final : public Workload {
 public:
  explicit ProcsWorkload(std::uint64_t seed) : phase_(Rng(seed).below(kRing)) {
    base_.dataset = vol::DatasetKind::EngineLow;
    base_.volume_scale = 1.0;
    base_.image_size = kImage;
    base_.ranks = kRanks;
    base_.rot_x_deg = 18.0f;
    base_.rot_y_deg = kRotY + kRingStepDeg * static_cast<float>(phase_);
  }

  /// One volume takes about 0.1 s; enough of them for a steady median.
  [[nodiscard]] int setup_reps() const override { return 25; }

  void setup() override {
    dataset_.reset();
    dataset_ =
        std::make_unique<vol::Dataset>(vol::make_dataset(base_.dataset, base_.volume_scale));
  }

  [[nodiscard]] Window run(double /*seconds*/, std::size_t min_samples,
                           SpanLog* spans) override {
    // One call, so its length is set in frames, not seconds: the fewest
    // whole rings (every run sees each view equally often) that give one
    // frame more than the periods asked for.
    const int frames = (static_cast<int>(min_samples) + kRing) / kRing * kRing;
    last_ = run_sequence(*dataset_, method_, base_, kRingStepDeg, frames, spans, 0);
    Window w;
    w.frame_ms = last_.periods_ms();
    w.attempted = static_cast<std::uint64_t>(frames);
    w.completed = last_.result.frames.size();
    w.failed = w.attempted - w.completed;
    w.frames_per_s = 1e3 * blocked_rate(w.frame_ms);
    w.cpu_ms = last_.cpu_ms;
    w.peak_rss_mb = last_.peak_rss_mb;
    return w;
  }

  void verify(Window& w) override {
    auto& frames = last_.result.frames;
    const int n = static_cast<int>(frames.size());
    std::atomic<std::uint64_t> bad{0};
    std::array<std::uint64_t, kRing> ring_wire{};
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    parallel_for(n + kRing, static_cast<int>(threads), [&](int k) {
      pvr::ExperimentConfig cfg = base_;
      if (k >= n) {
        // The ring's views at their first-lap angles from phase 0: wire
        // bytes free of the seed and of float rounding on later laps.
        cfg.rot_y_deg = kRotY + kRingStepDeg * static_cast<float>(k - n);
        ring_wire[static_cast<std::size_t>(k - n)] =
            sum(pvr::Experiment(*dataset_, cfg).run(method_).received_bytes_per_rank);
        return;
      }
      // The in-process frame of the same view: the sequence's own angle
      // arithmetic, so the float camera matches bit for bit.
      cfg.rot_y_deg = base_.rot_y_deg + kRingStepDeg * static_cast<float>(k);
      const pvr::MethodResult want = pvr::Experiment(*dataset_, cfg).run(method_);
      pvr::FtMethodResult& got = frames[static_cast<std::size_t>(k)];
      if (!clean(got.report) || !bytes_equal(got.result.final_image, want.final_image) ||
          got.result.received_bytes_per_rank != want.received_bytes_per_rank) {
        note_failure("procs-orbit frame " + std::to_string(k));
        ++bad;
      }
      got.result.final_image = img::Image{};
    });
    w.wire_bytes_per_frame =
        static_cast<double>(std::accumulate(ring_wire.begin(), ring_wire.end(), std::uint64_t{0})) /
        kRing;
    w.failed += bad.load();
    if (!clean(last_.result.report) && w.failed == 0) {
      note_failure("procs-orbit sequence report: " + last_.result.report.summary());
      w.failed = 1;
    }
  }

  void layers(SpanLog& spans, Report& report) override {
    std::vector<ViewReplay> replays;
    std::vector<std::pair<int, SpmdFrame>> frames;
    std::vector<double> sequential;
    for (int v = 0; v < kRing; ++v) {
      replays.push_back(replay_view(view(v), spans, 2'000'000 + v));
      frames.emplace_back(v, replays.back().spmd);
      sequential.push_back(replays.back().sequential_ms);
      if (v >= 4) replays.back().subimages.clear();
    }
    add_volume_render_metrics(replays, report);
    std::vector<const std::vector<img::Image>*> sets;
    for (int v = 0; v < 4; ++v) sets.push_back(&replays[static_cast<std::size_t>(v)].subimages);
    add_image_metrics(sets, report);
    add_core_mp_metrics(frames, sequential, report);

    const ViewSpec probe = view(0);
    add_service_metrics(
        probe_service(probe, isolated_composite_ms(replays.front(), probe, spans),
                      replays.front().final_image, spans, report),
        report);
    ProcsLayer procs = procs_layer(last_, [&](int f) {
      return replays[static_cast<std::size_t>(f % kRing)].render_max_brick_ms;
    });
    procs.first_frame_ms = first_frame_ms(*dataset_, method_, base_, spans);
    add_procs_metrics(procs, report);
  }

  [[nodiscard]] std::string describe() const override {
    return "ring phase: " + std::to_string(phase_);
  }

 private:
  static constexpr float kRotY = 24.0f;  ///< phase 0's first view

  /// View v of the ring: the angle frame v of the sequence renders.
  [[nodiscard]] ViewSpec view(int v) const {
    ViewSpec out;
    out.dataset = base_.dataset;
    out.scale = base_.volume_scale;
    out.rot_x = base_.rot_x_deg;
    out.rot_y = base_.rot_y_deg + kRingStepDeg * static_cast<float>(v);
    out.method = &method_;
    return out;
  }

  int phase_;
  pvr::ExperimentConfig base_;
  core::BsbrcCompositor method_;
  std::unique_ptr<vol::Dataset> dataset_;
  SequenceRun last_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "service-orbit") return std::make_unique<ServiceWorkload>(seed);
  if (name == "procs-orbit") return std::make_unique<ProcsWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
