#include "mp/socket_transport.hpp"

#include <sys/socket.h>

#include <cstring>
#include <memory>
#include <utility>

namespace slspvr::mp {

namespace {

/// Non-owning Transport view: the SocketTransport outlives every frame's
/// CommContext, but CommContext::transport owns its pointee — so each frame
/// installs one of these instead.
class BorrowedTransport final : public Transport {
 public:
  explicit BorrowedTransport(SocketTransport* inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool shared_memory() const noexcept override { return false; }
  void submit(int dest, Message msg) override { inner_->submit(dest, std::move(msg)); }

 private:
  SocketTransport* inner_;  ///< not owned; outlives every frame
};

}  // namespace

SocketTransport::SocketTransport(int rank, Fd link, Options opts)
    : rank_(rank), link_(std::move(link)), opts_(std::move(opts)) {}

SocketTransport::~SocketTransport() { stop_threads(); }

void SocketTransport::start() {
  reader_ = std::thread([this] { reader_loop(); });
  if (opts_.heartbeat_interval.count() > 0) {
    heart_ = std::thread([this] { heartbeat_loop(); });
  }
}

void SocketTransport::write_frame(Frame& frame) {
  // Every outbound frame carries this incarnation's generation, so the
  // supervisor can refuse a dead predecessor's lingering traffic.
  frame.generation = opts_.generation;
  const std::vector<std::byte> wire = pack_frame(frame);
  const std::lock_guard lock(write_mutex_);
  send_all(link_.get(), wire);
}

void SocketTransport::submit(int dest, Message msg) {
  Frame frame;
  frame.kind = FrameKind::kData;
  frame.source = msg.source;
  frame.dest = dest;
  frame.tag = msg.tag;
  frame.seq = msg.seq;
  frame.clock = std::move(msg.clock);
  frame.payload = std::move(msg.payload);
  write_frame(frame);
}

void SocketTransport::send_report(int kind, std::vector<std::byte> payload) {
  Frame frame;
  frame.kind = FrameKind::kReport;
  frame.source = rank_;
  frame.tag = kind;
  frame.payload = std::move(payload);
  write_frame(frame);
}

void SocketTransport::announce_failure(int stage, const std::string& reason) {
  Frame frame;
  frame.kind = FrameKind::kFailed;
  frame.source = rank_;
  frame.tag = stage;
  frame.payload.resize(reason.size());
  std::memcpy(frame.payload.data(), reason.data(), reason.size());
  write_frame(frame);
}

void SocketTransport::reader_loop() {
  // Promote a dead or damaged supervisor link to a rank failure: poison the
  // context so the compositing thread (blocked in a recv or barrier, or
  // about to be) aborts with PeerFailedError instead of waiting forever.
  const auto link_lost = [&](const std::string& reason) {
    link_lost_.store(true, std::memory_order_relaxed);
    {
      const std::lock_guard lock(state_mutex_);
      shutdown_received_ = true;  // nobody will send kShutdown anymore
    }
    state_cv_.notify_all();
    if (!stopping_.load(std::memory_order_relaxed)) {
      const std::lock_guard lock(ctx_mutex_);
      if (ctx_ != nullptr) {
        ctx_->fail(/*failed_rank=*/-1, stage_.load(std::memory_order_relaxed),
                   "supervisor link lost: " + reason);
      }
    }
  };

  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(link_.get());
    } catch (const TransportError& e) {
      link_lost(e.what());
      return;
    }
    if (!frame) {
      link_lost("connection closed");
      return;
    }
    switch (frame->kind) {
      case FrameKind::kData: {
        const std::lock_guard lock(ctx_mutex_);
        // Incarnation safety at the receiving edge: the sender's generation
        // must match the roster this frame opened with — a dead
        // incarnation's in-flight message must never reach a live frame.
        const int src = frame->source;
        if (src < 0 || static_cast<std::size_t>(src) >= roster_.generations.size() ||
            frame->generation != roster_.generations[static_cast<std::size_t>(src)]) {
          break;
        }
        // A fast peer can legally race ahead of us: it got the same
        // kFrameStart, finished rendering first, and its stage-0 exchange
        // arrives while we are still rendering (before begin_frame binds the
        // frame's context). Park it; begin_frame replays in arrival order.
        if (ctx_ == nullptr) {
          early_.push_back(std::move(*frame));
          break;
        }
        Message msg;
        msg.source = frame->source;
        msg.tag = frame->tag;
        msg.seq = frame->seq;
        msg.clock = std::move(frame->clock);
        msg.payload = std::move(frame->payload);
        // Deposit into the *local* rank's mailbox regardless of frame.dest:
        // the supervisor only routes frames addressed to us. A bounded
        // mailbox blocks here when full — backpressure reaches the kernel
        // socket buffers and from there the sending worker.
        ctx_->mailboxes[static_cast<std::size_t>(rank_)].deposit(std::move(msg));
        break;
      }
      case FrameKind::kPeerFailed: {
        const std::lock_guard lock(ctx_mutex_);
        // A peer can die while we are still rendering this frame: park the
        // poison too, or the composite would block forever on a rank the
        // supervisor already declared dead.
        if (ctx_ == nullptr) {
          early_.push_back(std::move(*frame));
          break;
        }
        const std::string reason(reinterpret_cast<const char*>(frame->payload.data()),
                                 frame->payload.size());
        ctx_->fail(frame->source, frame->tag, reason);
        break;
      }
      case FrameKind::kFrameStart: {
        FrameRoster roster;
        try {
          roster = parse_roster(frame->tag, frame->payload);
        } catch (const TransportError& e) {
          link_lost(std::string("malformed roster: ") + e.what());
          return;
        }
        {
          const std::lock_guard lock(ctx_mutex_);
          roster_ = roster;
          // Anything still parked belongs to a frame that never began here
          // (e.g. a demoted-roster frame, where no composite runs): drop it.
          early_.clear();
        }
        {
          const std::lock_guard lock(state_mutex_);
          pending_roster_ = std::move(roster);
        }
        state_cv_.notify_all();
        break;
      }
      case FrameKind::kShutdown: {
        {
          const std::lock_guard lock(state_mutex_);
          shutdown_received_ = true;
        }
        state_cv_.notify_all();
        return;
      }
      default:
        // kHello/kHeartbeat/kReport/kGoodbye never flow supervisor->worker;
        // treat them as stream damage rather than guessing.
        link_lost("unexpected frame kind from supervisor");
        return;
    }
  }
}

void SocketTransport::heartbeat_loop() {
  std::unique_lock lock(state_mutex_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    state_cv_.wait_for(lock, opts_.heartbeat_interval);
    if (stopping_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    Frame beat;
    beat.kind = FrameKind::kHeartbeat;
    beat.source = rank_;
    beat.tag = stage_.load(std::memory_order_relaxed);
    try {
      write_frame(beat);
    } catch (const TransportError&) {
      // The reader thread notices the dead link and poisons the context;
      // the heartbeat just stops.
      return;
    }
    lock.lock();
  }
}

std::optional<FrameRoster> SocketTransport::await_frame_start(std::chrono::milliseconds deadline) {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait_for(lock, deadline,
                     [&] { return pending_roster_.has_value() || shutdown_received_; });
  if (!pending_roster_) return std::nullopt;  // shutdown, dead link, or timeout
  std::optional<FrameRoster> roster = std::move(pending_roster_);
  pending_roster_.reset();
  return roster;
}

void SocketTransport::begin_frame(CommContext* ctx) {
  ctx->transport = std::make_unique<BorrowedTransport>(this);
  const std::lock_guard lock(ctx_mutex_);
  ctx_ = ctx;
  // Replay whatever arrived while this worker was still rendering, in
  // arrival order — generation checks already ran when each frame was read.
  for (Frame& frame : early_) {
    if (frame.kind == FrameKind::kPeerFailed) {
      const std::string reason(reinterpret_cast<const char*>(frame.payload.data()),
                               frame.payload.size());
      ctx_->fail(frame.source, frame.tag, reason);
      continue;
    }
    Message msg;
    msg.source = frame.source;
    msg.tag = frame.tag;
    msg.seq = frame.seq;
    msg.clock = std::move(frame.clock);
    msg.payload = std::move(frame.payload);
    ctx_->mailboxes[static_cast<std::size_t>(rank_)].deposit(std::move(msg));
  }
  early_.clear();
}

void SocketTransport::end_frame(int frame, bool aborted) {
  {
    // Once this lock is held, no delivery is in flight and none will start:
    // the frame's CommContext may be destroyed after we return.
    const std::lock_guard lock(ctx_mutex_);
    ctx_ = nullptr;
  }
  Frame done;
  done.kind = FrameKind::kFrameDone;
  done.source = rank_;
  done.tag = frame;
  done.payload.push_back(static_cast<std::byte>(aborted ? 1 : 0));
  try {
    write_frame(done);
  } catch (const TransportError&) {
    // Dead supervisor: the reader notices and await_frame_start unblocks.
  }
}

void SocketTransport::goodbye_and_wait(std::chrono::milliseconds drain) {
  try {
    Frame bye;
    bye.kind = FrameKind::kGoodbye;
    bye.source = rank_;
    write_frame(bye);
  } catch (const TransportError&) {
    // Supervisor already gone; nothing to drain.
  }
  {
    std::unique_lock lock(state_mutex_);
    state_cv_.wait_for(lock, drain, [&] { return shutdown_received_; });
  }
  stop_threads();
}

void SocketTransport::stop_threads() {
  stopping_.store(true, std::memory_order_relaxed);
  state_cv_.notify_all();
  // Wake a reader blocked in read(): shut the receive side down. The link
  // stays open for any last writes until destruction.
  if (link_.valid()) (void)::shutdown(link_.get(), SHUT_RD);
  if (reader_.joinable()) reader_.join();
  if (heart_.joinable()) heart_.join();
}

}  // namespace slspvr::mp
