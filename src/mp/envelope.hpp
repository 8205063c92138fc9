// Reliable-transport envelope: framing, checksums and retry policy.
//
// The compositing protocols are rendezvous exchanges, so a single lost or
// corrupted message used to poison the whole frame (PR 1's abort-and-degrade
// path). This header adds the wire-level machinery for healing instead:
// every payload is framed in a fixed 20-byte envelope carrying a magic, the
// payload length, the per-channel sequence number and a CRC32C over header
// and payload. A receiver that sees a checksum mismatch, a framing error or
// a missing sequence number NAKs the sender and pulls a retransmit from the
// sender's bounded in-flight buffer (communicator.hpp) under the
// RetryPolicy's capped exponential backoff — DropRule/CorruptRule faults
// heal transparently and the run's trace stays schedule-conformant.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace slspvr::mp {

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum used
/// by iSCSI/ext4; chosen over CRC32 for its better burst-error detection.
/// `seed` chains partial computations (pass the previous return value).
/// Runs on the SSE4.2 `crc32` instruction where the CPU has it and on a
/// byte-at-a-time table everywhere else; both compute the same polynomial,
/// so every checksum is the same on every host.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

namespace detail {

/// The two implementations crc32c dispatches between, callable directly so
/// tests can check each against a reference. crc32c_sse42 requires
/// crc32c_sse42_supported(); where it is not compiled in (non-x86 builds)
/// it falls back to the table.
[[nodiscard]] std::uint32_t crc32c_table(std::span<const std::byte> data, std::uint32_t seed);
[[nodiscard]] std::uint32_t crc32c_sse42(std::span<const std::byte> data, std::uint32_t seed);
[[nodiscard]] bool crc32c_sse42_supported() noexcept;

}  // namespace detail

/// Raised by parse_envelope on any framing violation: bad magic, truncated
/// header, length field disagreeing with the buffer, or checksum mismatch.
/// Receivers treat it as "this message was damaged in transit" and NAK.
class EnvelopeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Envelope layout (little-endian on every supported platform):
///   [0..4)   magic "SLP1"
///   [4..8)   payload length (bytes)
///   [8..16)  per-channel (source, dest, tag) sequence number
///   [16..20) sender incarnation generation
///   [20..24) CRC32C over bytes [0..20) followed by the payload
///
/// The generation field is the incarnation-safety hook for supervised
/// respawn: rank identity on the wire is (rank, generation), and each
/// respawned incarnation restarts its per-channel sequence spaces from
/// zero. A receiver therefore must never compare sequence numbers across
/// generations — a frame whose generation does not match the sender's
/// current incarnation is rejected outright (a typed stale-generation
/// reject, never a delivery). The in-process reliable transport always
/// runs at generation 0.
inline constexpr std::uint32_t kEnvelopeMagic = 0x3150'4C53u;  // "SLP1"
inline constexpr std::size_t kEnvelopeHeaderBytes = 24;

/// Frame `payload` for the wire: header + payload copy.
[[nodiscard]] std::vector<std::byte> pack_envelope(std::uint64_t seq,
                                                   std::span<const std::byte> payload,
                                                   std::uint32_t generation = 0);

/// Seal an envelope laid out in place: `framed` is a kEnvelopeHeaderBytes
/// slot followed by the payload. Writes the header (length, seq,
/// generation, CRC) into the slot — for callers that build the payload
/// behind the slot themselves, so it is never copied to be framed.
void seal_envelope(std::span<std::byte> framed, std::uint64_t seq, std::uint32_t generation);

/// Serial-number ordering (RFC 1982 style) on the per-channel sequence
/// space: `a` precedes `b` iff the wrapped distance from `a` to `b` is
/// positive. Identical to `a < b` everywhere except across the 2^64
/// wraparound, where plain comparison would misread seq 0 as *older* than
/// seq 2^64-1 and re-deliver or stash-sort the wrapped channel wrongly.
/// Every receiver-side cursor comparison must go through this.
[[nodiscard]] constexpr bool seq_before(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(a - b) < 0;
}

struct ParsedEnvelope {
  std::uint64_t seq = 0;
  std::uint32_t generation = 0;
  std::vector<std::byte> payload;
};

/// Unframe and verify. Throws EnvelopeError on any damage; never reads out
/// of bounds regardless of input bytes (decode-fuzz tested).
[[nodiscard]] ParsedEnvelope parse_envelope(std::span<const std::byte> framed);

/// A verified envelope whose payload still points into the framed bytes.
struct EnvelopeView {
  std::uint64_t seq = 0;
  std::uint32_t generation = 0;
  std::span<const std::byte> payload;
};

/// parse_envelope without the payload copy: the same checks, the same
/// EnvelopeError on damage.
[[nodiscard]] EnvelopeView verify_envelope(std::span<const std::byte> framed);

/// Knobs for the NAK/retransmit state machine. `max_attempts == 0` disables
/// the reliable transport entirely: sends are unframed and receives behave
/// exactly as the legacy runtime (zero overhead, zero behaviour change).
struct RetryPolicy {
  int max_attempts = 0;                    ///< NAKs per receive before giving up
  std::chrono::milliseconds base_delay{1}; ///< first backoff step
  /// Bound on the healing state machine: measured from the first NAK of a
  /// receive, not from the start of the receive — a slow-but-healthy peer
  /// never burns the budget.
  std::chrono::milliseconds deadline{250};

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 0; }
};

/// What the transport healed during a run (aggregated from the trace).
struct RetryStats {
  std::uint64_t naks = 0;         ///< loss/corruption detections signalled
  std::uint64_t retransmits = 0;  ///< messages re-delivered from in-flight
  std::uint64_t healed_bytes = 0; ///< payload bytes of those retransmits
  /// Channels given up on: the healing budget (max_attempts / deadline) ran
  /// out, or the in-flight window had already evicted the lost message. The
  /// receive surfaced a typed RetryExhaustedError instead of hanging; each
  /// abandonment counts once. Socket-backend workers count a connect whose
  /// backoff deadline expired here too.
  std::uint64_t abandoned = 0;

  [[nodiscard]] bool any() const noexcept {
    return naks != 0 || retransmits != 0 || abandoned != 0;
  }

  RetryStats& operator+=(const RetryStats& o) noexcept {
    naks += o.naks;
    retransmits += o.retransmits;
    healed_bytes += o.healed_bytes;
    abandoned += o.abandoned;
    return *this;
  }
};

}  // namespace slspvr::mp
