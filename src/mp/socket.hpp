// Socket primitives for the multi-process transport backend.
//
// The socket backend turns the runtime's "PEs" into real worker processes:
// each worker holds one stream connection (Unix-domain or TCP loopback) to
// the supervising parent, which routes rank-to-rank traffic hub-and-spoke.
// This header owns the wire layer of that design:
//
//  * Endpoint — "unix:/path/to.sock" or "tcp:host:port" addresses, with
//    strict parsing (the CLI surfaces parse errors verbatim);
//  * bounded connection establishment — accept with a deadline, connect
//    with capped exponential backoff that surfaces RetryExhaustedError
//    instead of hanging when the supervisor never appears;
//  * send_all / read_exact — partial writes and short reads are driven to
//    completion or a typed TransportError, never silently truncated;
//  * length-framed messages whose body is the PR-4 SLP1 envelope, so every
//    frame crossing a socket carries the same CRC32C integrity check the
//    in-process reliable transport uses (a damaged frame is detected at
//    parse time, not composited into the image).
//
// Frame wire format (little-endian):
//   [0..4)  magic "SLPW"
//   [4..8)  envelope length in bytes
//   [8.. )  SLP1 envelope (seq, CRC32C) over the frame body
// Frame body:
//   [0..4)  kind           (FrameKind)
//   [4..8)  source rank    (int32; frame-kind specific)
//   [8..12) dest rank      (int32)
//   [12..16) tag           (int32; heartbeats carry the current stage here)
//   [16..20) clock count   (uint32)
//   [20.. ) clock entries  (uint64 each), then the payload bytes
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mp/envelope.hpp"
#include "mp/errors.hpp"

namespace slspvr::mp {

/// Raised on wire-level damage or connection trouble the caller cannot heal
/// in place: mid-frame EOF, a reset peer, a frame that violates the size
/// caps, or an SLP1 envelope that fails its CRC.
class TransportError : public FaultError {
 public:
  using FaultError::FaultError;
};

/// A parsed transport address. `unix:/path` listens/connects on a
/// Unix-domain stream socket; `tcp:host:port` on TCP (numeric IPv4 or
/// "localhost"; port 0 asks the kernel for an ephemeral port).
struct Endpoint {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;  ///< kUnix: filesystem path of the socket
  std::string host;  ///< kTcp: numeric IPv4 address or "localhost"
  int port = 0;      ///< kTcp: port (0 = ephemeral, resolved after listen)

  [[nodiscard]] std::string describe() const;
};

/// Parse "unix:/path" or "tcp:host:port". Throws std::invalid_argument with
/// a message naming the offending spec on any violation.
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// RAII file descriptor (move-only; closes on destruction).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Create a listening socket at `ep` (backlog sized for `backlog` workers).
/// Unix: a stale socket file at the path is removed first. Throws
/// TransportError on any syscall failure.
[[nodiscard]] Fd listen_at(const Endpoint& ep, int backlog);

/// The endpoint a listener is actually bound to — resolves an ephemeral TCP
/// port (`tcp:host:0`) to the kernel-assigned one.
[[nodiscard]] Endpoint bound_endpoint(const Fd& listener, const Endpoint& requested);

/// Accept one connection, waiting at most `deadline`. Throws TransportError
/// when the deadline expires (a worker that never connected).
[[nodiscard]] Fd accept_with_deadline(const Fd& listener, std::chrono::milliseconds deadline);

/// Connect to `ep` under capped exponential backoff with jitter: up to
/// `policy.max_attempts` tries (at least one) spaced by backoff_delay(),
/// bounded overall by `policy.deadline`. Exhaustion throws
/// RetryExhaustedError attributed to `rank` (peer −1 = the supervisor), so
/// a worker that cannot reach its supervisor dies typed, not hung.
[[nodiscard]] Fd connect_with_backoff(const Endpoint& ep, const RetryPolicy& policy, int rank);

/// The sleep before connect attempt `attempt` (1-based; the sleep happens
/// after attempt `attempt` failed): capped exponential base_delay·2^(a−1)
/// clamped to 200 ms, plus a deterministic per-(rank, attempt) jitter in
/// [0, base/2]. Without the jitter, P respawned workers reconnecting after
/// the same supervisor hiccup would hammer the listen socket in lockstep
/// every backoff round (thundering herd); the jitter de-phases them while
/// keeping every run reproducible. Pure — unit tests assert the bounds.
[[nodiscard]] std::chrono::milliseconds backoff_delay(const RetryPolicy& policy, int attempt,
                                                      int rank);

/// Write the whole buffer, resuming across partial writes and EINTR.
/// Throws TransportError on a closed or reset peer (EPIPE/ECONNRESET).
void send_all(int fd, std::span<const std::byte> data);

/// Read exactly data.size() bytes. Returns false on a clean EOF *before the
/// first byte* (the peer closed between frames); throws TransportError on
/// EOF or error mid-buffer (a torn frame).
[[nodiscard]] bool read_exact(int fd, std::span<std::byte> data);

/// What a frame is for. Direction is fixed by the protocol: workers send
/// kHello/kData/kHeartbeat/kReport/kGoodbye; the supervisor routes kData and
/// originates kPeerFailed/kShutdown.
enum class FrameKind : std::uint32_t {
  kHello = 1,       ///< worker -> supervisor: source = my rank
  kData = 2,        ///< a Message in flight: source/dest/tag/seq/clock/payload
  kHeartbeat = 3,   ///< worker -> supervisor: source = rank, tag = current stage
  kReport = 4,      ///< worker -> supervisor: tag = report kind, payload = bytes
  kPeerFailed = 5,  ///< supervisor -> workers: source = failed rank, tag = stage
  kGoodbye = 6,     ///< worker -> supervisor: rank finished cleanly
  kShutdown = 7,    ///< supervisor -> worker: drain done, exit now
  kFailed = 8,      ///< worker -> supervisor: I failed primarily (tag = stage,
                    ///< payload = reason); the worker stays alive to ship
                    ///< reports, the supervisor broadcasts kPeerFailed
  kFrameStart = 9,  ///< supervisor -> worker: tag = frame index, payload =
                    ///< the roster (per-rank generations + demoted set);
                    ///< opens the next rendering frame
  kFrameDone = 10,  ///< worker -> supervisor: tag = frame index, payload[0] =
                    ///< 0 clean / 1 aborted; the frame barrier that makes
                    ///< resurrection land between frames
};

/// One transport frame. For kData frames the fields mirror mp::Message
/// one-to-one; control frames reuse source/tag as documented on FrameKind.
/// `generation` is the sender's incarnation (SLP1 envelope field): the
/// supervisor rejects frames whose generation does not match the link's
/// incarnation, so a respawned rank can never be confused with its dead
/// predecessor's in-flight traffic.
struct Frame {
  FrameKind kind = FrameKind::kData;
  int source = -1;
  int dest = -1;
  int tag = 0;
  std::uint64_t seq = 0;
  std::uint32_t generation = 0;
  std::vector<std::uint64_t> clock;
  std::vector<std::byte> payload;
};

/// Caps enforced at both pack and parse time; a violation is a protocol
/// error (TransportError), not a resize attempt.
inline constexpr std::uint32_t kFrameMagic = 0x5750'4C53u;  // "SLPW"
inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 30;
inline constexpr std::size_t kMaxFrameClock = std::size_t{1} << 16;

/// Serialize for the wire: header + SLP1 envelope over the frame body.
[[nodiscard]] std::vector<std::byte> pack_frame(const Frame& frame);

/// Blocking read of one frame. Returns nullopt on clean EOF between frames;
/// throws TransportError on torn frames, size-cap violations or CRC damage.
[[nodiscard]] std::optional<Frame> read_frame(int fd);

/// Incremental frame parser for the supervisor's nonblocking router: feed()
/// whatever recv() returned, then drain next() until it yields nothing.
/// next() throws TransportError exactly where read_frame would.
class FrameReader {
 public:
  void feed(std::span<const std::byte> bytes);
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet consumed (diagnostics; nonzero at EOF means
  /// the peer died mid-frame).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix (compacted lazily)
};

}  // namespace slspvr::mp
