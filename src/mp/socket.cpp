#include "mp/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace slspvr::mp {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(std::span<const std::byte> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[at + i])) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::span<const std::byte> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[at + i])) << (8 * i);
  }
  return v;
}

/// Decode the SLP1-enveloped frame body (everything after the 8-byte wire
/// header). Shared by the blocking and incremental readers.
Frame parse_frame_body(std::span<const std::byte> envelope_bytes) {
  EnvelopeView envelope;
  try {
    envelope = verify_envelope(envelope_bytes);
  } catch (const EnvelopeError& e) {
    throw TransportError(std::string("frame envelope damaged: ") + e.what());
  }
  const std::span<const std::byte> body = envelope.payload;
  if (body.size() < 20) {
    throw TransportError("frame body truncated: " + std::to_string(body.size()) + " byte(s)");
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(get_u32(body, 0));
  if (frame.kind < FrameKind::kHello || frame.kind > FrameKind::kFrameDone) {
    throw TransportError("unknown frame kind " + std::to_string(get_u32(body, 0)));
  }
  frame.source = static_cast<int>(get_u32(body, 4));
  frame.dest = static_cast<int>(get_u32(body, 8));
  frame.tag = static_cast<int>(get_u32(body, 12));
  frame.seq = envelope.seq;
  frame.generation = envelope.generation;
  const std::size_t clock_count = get_u32(body, 16);
  if (clock_count > kMaxFrameClock) {
    throw TransportError("frame clock count " + std::to_string(clock_count) +
                         " exceeds cap " + std::to_string(kMaxFrameClock));
  }
  const std::size_t payload_at = 20 + clock_count * 8;
  if (body.size() < payload_at) {
    throw TransportError("frame body shorter than its clock array");
  }
  frame.clock.resize(clock_count);
  for (std::size_t i = 0; i < clock_count; ++i) frame.clock[i] = get_u64(body, 20 + i * 8);
  frame.payload.assign(body.begin() + static_cast<std::ptrdiff_t>(payload_at), body.end());
  return frame;
}

sockaddr_in resolve_tcp(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  const std::string host = ep.host == "localhost" ? std::string("127.0.0.1") : ep.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("cannot resolve host '" + ep.host +
                         "' (numeric IPv4 or 'localhost' only)");
  }
  return addr;
}

sockaddr_un resolve_unix(const Endpoint& ep) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (ep.path.size() >= sizeof(addr.sun_path)) {
    throw TransportError("unix socket path too long (" + std::to_string(ep.path.size()) +
                         " >= " + std::to_string(sizeof(addr.sun_path)) + "): " + ep.path);
  }
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  // Latency matters more than segment coalescing for rendezvous exchanges;
  // failure is harmless (e.g. on a Unix socket), so ignore it.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Fd try_connect(const Endpoint& ep, std::string& error_out) {
  const int domain = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Fd fd(::socket(domain, SOCK_STREAM, 0));
  if (!fd.valid()) {
    error_out = std::string("socket: ") + std::strerror(errno);
    return {};
  }
  int rc = 0;
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = resolve_unix(ep);
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    const sockaddr_in addr = resolve_tcp(ep);
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    error_out = std::string("connect: ") + std::strerror(errno);
    return {};
  }
  if (ep.kind == Endpoint::Kind::kTcp) set_nodelay(fd.get());
  return fd;
}

}  // namespace

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      throw std::invalid_argument("endpoint '" + spec + "': unix path is empty");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw std::invalid_argument("endpoint '" + spec + "': expected tcp:host:port");
    }
    ep.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    std::size_t used = 0;
    int port = 0;
    try {
      port = std::stoi(port_str, &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("endpoint '" + spec + "': bad port '" + port_str + "'");
    }
    if (used != port_str.size() || port < 0 || port > 65535) {
      throw std::invalid_argument("endpoint '" + spec + "': bad port '" + port_str + "'");
    }
    ep.port = port;
    return ep;
  }
  throw std::invalid_argument("endpoint '" + spec + "': expected unix:<path> or tcp:host:port");
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_at(const Endpoint& ep, int backlog) {
  const int domain = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Fd fd(::socket(domain, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = resolve_unix(ep);
    (void)::unlink(ep.path.c_str());  // a stale socket file from a dead run
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind " + ep.describe());
    }
  } else {
    const int one = 1;
    (void)setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = resolve_tcp(ep);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind " + ep.describe());
    }
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen " + ep.describe());
  return fd;
}

Endpoint bound_endpoint(const Fd& listener, const Endpoint& requested) {
  Endpoint ep = requested;
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw_errno("getsockname");
    }
    ep.port = ntohs(addr.sin_port);
  }
  return ep;
}

Fd accept_with_deadline(const Fd& listener, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      throw TransportError("accept deadline (" + std::to_string(deadline.count()) +
                           " ms) expired: a worker never connected");
    }
    pollfd pfd{listener.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(listen)");
    }
    if (rc == 0) continue;  // loop re-checks the deadline
    Fd conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept");
    }
    set_nodelay(conn.get());
    return conn;
  }
}

std::chrono::milliseconds backoff_delay(const RetryPolicy& policy, int attempt, int rank) {
  constexpr std::chrono::milliseconds kMaxDelay{200};
  const auto base = std::max(policy.base_delay, std::chrono::milliseconds{1});
  std::chrono::milliseconds delay = base;
  for (int i = 1; i < attempt && delay < kMaxDelay; ++i) delay = std::min(delay * 2, kMaxDelay);
  // Deterministic per-(rank, attempt) jitter in [0, base/2]: a splitmix64
  // hash, not a live RNG, so every run replays exactly while P reconnecting
  // workers still spread out instead of retrying in lockstep.
  const auto span = static_cast<std::uint64_t>(base.count() / 2);
  if (span == 0) return delay;
  std::uint64_t z = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32) |
                    static_cast<std::uint32_t>(attempt);
  z += 0x9E37'79B9'7F4A'7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D0'49BB'1331'11EBull;
  z ^= z >> 31;
  return delay + std::chrono::milliseconds(static_cast<long>(z % (span + 1)));
}

Fd connect_with_backoff(const Endpoint& ep, const RetryPolicy& policy, int rank) {
  const int max_attempts = std::max(policy.max_attempts, 1);
  const auto until = std::chrono::steady_clock::now() + policy.deadline;
  std::string last_error = "never attempted";
  for (int attempt = 1;; ++attempt) {
    Fd fd = try_connect(ep, last_error);
    if (fd.valid()) return fd;
    if (attempt >= max_attempts) {
      throw RetryExhaustedError(rank, /*peer=*/-1, /*tag=*/0, attempt,
                                "connect to " + ep.describe() + " failed after " +
                                    std::to_string(attempt) + " attempt(s): " + last_error);
    }
    const auto delay = backoff_delay(policy, attempt, rank);
    if (std::chrono::steady_clock::now() + delay >= until) {
      throw RetryExhaustedError(rank, /*peer=*/-1, /*tag=*/0, attempt,
                                "connect to " + ep.describe() + " deadline (" +
                                    std::to_string(policy.deadline.count()) +
                                    " ms) expired: " + last_error);
    }
    std::this_thread::sleep_for(delay);
  }
}

void send_all(int fd, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the process
    // with SIGPIPE — the caller maps it to a typed failure.
    const ssize_t n = ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    done += static_cast<std::size_t>(n);
  }
}

bool read_exact(int fd, std::span<std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::read(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (n == 0) {
      if (done == 0) return false;  // clean EOF between frames
      throw TransportError("peer closed mid-frame (" + std::to_string(done) + " of " +
                           std::to_string(data.size()) + " byte(s) read)");
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::byte> pack_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw TransportError("frame payload " + std::to_string(frame.payload.size()) +
                         " byte(s) exceeds cap");
  }
  if (frame.clock.size() > kMaxFrameClock) {
    throw TransportError("frame clock count " + std::to_string(frame.clock.size()) +
                         " exceeds cap");
  }
  // Wire header, envelope header slot, body: laid out once in the wire
  // buffer, so the payload is copied once and the envelope is sealed in
  // place.
  const std::size_t envelope_len =
      kEnvelopeHeaderBytes + 20 + frame.clock.size() * 8 + frame.payload.size();
  std::vector<std::byte> wire;
  wire.reserve(kFrameHeaderBytes + envelope_len);
  put_u32(wire, kFrameMagic);
  put_u32(wire, static_cast<std::uint32_t>(envelope_len));
  wire.resize(kFrameHeaderBytes + kEnvelopeHeaderBytes);
  put_u32(wire, static_cast<std::uint32_t>(frame.kind));
  put_u32(wire, static_cast<std::uint32_t>(frame.source));
  put_u32(wire, static_cast<std::uint32_t>(frame.dest));
  put_u32(wire, static_cast<std::uint32_t>(frame.tag));
  put_u32(wire, static_cast<std::uint32_t>(frame.clock.size()));
  for (const std::uint64_t c : frame.clock) put_u64(wire, c);
  wire.insert(wire.end(), frame.payload.begin(), frame.payload.end());
  seal_envelope(std::span(wire).subspan(kFrameHeaderBytes), frame.seq, frame.generation);
  return wire;
}

std::optional<Frame> read_frame(int fd) {
  std::byte header[kFrameHeaderBytes];
  if (!read_exact(fd, header)) return std::nullopt;
  const std::span<const std::byte> h(header);
  if (get_u32(h, 0) != kFrameMagic) {
    throw TransportError("bad frame magic: stream out of sync");
  }
  const std::size_t len = get_u32(h, 4);
  if (len < kEnvelopeHeaderBytes || len > kMaxFramePayload + (1u << 20)) {
    throw TransportError("implausible frame length " + std::to_string(len));
  }
  std::vector<std::byte> envelope(len);
  if (!read_exact(fd, envelope)) {
    throw TransportError("peer closed between frame header and body");
  }
  return parse_frame_body(envelope);
}

void FrameReader::feed(std::span<const std::byte> bytes) {
  // Compact the consumed prefix before growing, keeping feed() amortised
  // linear without re-copying on every next().
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (std::size_t{1} << 20)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameReader::next() {
  const std::span<const std::byte> view(buf_.data() + pos_, buf_.size() - pos_);
  if (view.size() < kFrameHeaderBytes) return std::nullopt;
  if (get_u32(view, 0) != kFrameMagic) {
    throw TransportError("bad frame magic: stream out of sync");
  }
  const std::size_t len = get_u32(view, 4);
  if (len < kEnvelopeHeaderBytes || len > kMaxFramePayload + (1u << 20)) {
    throw TransportError("implausible frame length " + std::to_string(len));
  }
  if (view.size() < kFrameHeaderBytes + len) {
    // Make room for the whole frame once, instead of regrowing the buffer
    // on every recv() while a large frame trickles in.
    if (buf_.capacity() - pos_ < kFrameHeaderBytes + len) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
      buf_.reserve(kFrameHeaderBytes + len);
    }
    return std::nullopt;
  }
  Frame frame = parse_frame_body(view.subspan(kFrameHeaderBytes, len));
  pos_ += kFrameHeaderBytes + len;
  return frame;
}

}  // namespace slspvr::mp
