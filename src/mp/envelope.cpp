#include "mp/envelope.hpp"

#include <array>
#include <cstring>

// The hardware CRC32C path: the SSE4.2 `crc32` instruction computes the
// same reflected Castagnoli polynomial as the table, 8 bytes per
// instruction. Compiled per function with target("sse4.2"), like the AVX2
// image kernels, and dispatched only after the CPU is probed at run time.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SLSPVR_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace slspvr::mp {

namespace {

/// Byte-at-a-time table for the reflected Castagnoli polynomial.
[[nodiscard]] std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F6'3B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

template <typename T>
void put_le(std::span<std::byte> out, std::size_t offset, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  }
}

template <typename T>
[[nodiscard]] T get_le(std::span<const std::byte> in, std::size_t offset) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<std::uint8_t>(in[offset + i])) << (8 * i);
  }
  return value;
}

#if defined(SLSPVR_CRC32C_SSE42)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42_impl(const std::byte* p,
                                                                  std::size_t n,
                                                                  std::uint32_t crc) {
  // The running value stays 64 bits wide (crc32q clears the top half), so
  // no zero-extension lengthens the one-instruction dependency chain.
  std::uint64_t wide = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, std::to_integer<std::uint8_t>(*p));
  return crc;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::span<const std::byte> data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(b)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c_sse42(std::span<const std::byte> data, std::uint32_t seed) {
#if defined(SLSPVR_CRC32C_SSE42)
  return ~crc32c_sse42_impl(data.data(), data.size(), ~seed);
#else
  return crc32c_table(data, seed);
#endif
}

bool crc32c_sse42_supported() noexcept {
#if defined(SLSPVR_CRC32C_SSE42)
  static const bool has = __builtin_cpu_supports("sse4.2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return detail::crc32c_sse42_supported() ? detail::crc32c_sse42(data, seed)
                                          : detail::crc32c_table(data, seed);
}

std::vector<std::byte> pack_envelope(std::uint64_t seq, std::span<const std::byte> payload,
                                     std::uint32_t generation) {
  std::vector<std::byte> out;
  out.reserve(kEnvelopeHeaderBytes + payload.size());
  out.resize(kEnvelopeHeaderBytes);
  out.insert(out.end(), payload.begin(), payload.end());
  seal_envelope(out, seq, generation);
  return out;
}

void seal_envelope(std::span<std::byte> framed, std::uint64_t seq, std::uint32_t generation) {
  if (framed.size() < kEnvelopeHeaderBytes) {
    throw EnvelopeError("envelope: no room for the header (" + std::to_string(framed.size()) +
                        " of " + std::to_string(kEnvelopeHeaderBytes) + " bytes)");
  }
  put_le<std::uint32_t>(framed, 0, kEnvelopeMagic);
  put_le<std::uint32_t>(framed, 4,
                        static_cast<std::uint32_t>(framed.size() - kEnvelopeHeaderBytes));
  put_le<std::uint64_t>(framed, 8, seq);
  put_le<std::uint32_t>(framed, 16, generation);
  // CRC over the header-so-far chained with the payload, so a flipped
  // length/seq/generation field is as detectable as a flipped payload byte.
  const std::uint32_t crc =
      crc32c(framed.subspan(kEnvelopeHeaderBytes), crc32c(framed.first(20)));
  put_le<std::uint32_t>(framed, 20, crc);
}

ParsedEnvelope parse_envelope(std::span<const std::byte> framed) {
  const EnvelopeView view = verify_envelope(framed);
  ParsedEnvelope parsed;
  parsed.seq = view.seq;
  parsed.generation = view.generation;
  parsed.payload.assign(view.payload.begin(), view.payload.end());
  return parsed;
}

EnvelopeView verify_envelope(std::span<const std::byte> framed) {
  if (framed.size() < kEnvelopeHeaderBytes) {
    throw EnvelopeError("envelope: truncated header (" + std::to_string(framed.size()) +
                        " of " + std::to_string(kEnvelopeHeaderBytes) + " bytes)");
  }
  if (get_le<std::uint32_t>(framed, 0) != kEnvelopeMagic) {
    throw EnvelopeError("envelope: bad magic");
  }
  const auto length = get_le<std::uint32_t>(framed, 4);
  if (framed.size() - kEnvelopeHeaderBytes != length) {
    throw EnvelopeError("envelope: length field says " + std::to_string(length) +
                        " payload bytes, buffer carries " +
                        std::to_string(framed.size() - kEnvelopeHeaderBytes));
  }
  EnvelopeView view;
  view.seq = get_le<std::uint64_t>(framed, 8);
  view.generation = get_le<std::uint32_t>(framed, 16);
  view.payload = framed.subspan(kEnvelopeHeaderBytes);
  const std::uint32_t want = get_le<std::uint32_t>(framed, 20);
  const std::uint32_t got = crc32c(view.payload, crc32c(framed.first(20)));
  if (want != got) {
    throw EnvelopeError("envelope: CRC32C mismatch (corrupted in transit)");
  }
  return view;
}

}  // namespace slspvr::mp
