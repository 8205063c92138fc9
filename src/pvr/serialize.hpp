// Byte-exact serialization for worker reports crossing the socket backend.
//
// Workers ship their results to the supervisor as kReport frame payloads;
// the acceptance bar for the multi-process backend is a *byte-identical*
// final frame, so every float crosses the wire as its IEEE-754 bit pattern
// (memcpy through uint32), never through text formatting. All integers are
// little-endian fixed-width, matching the SLP1 envelope convention.
//
// ByteReader is defensive: every accessor bounds-checks and throws
// std::out_of_range on underflow, so a truncated or hostile payload is a
// typed error in the supervisor, not a read past the buffer (the CRC32C on
// the enclosing frame already catches corruption; this catches logic bugs
// and version skew).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "image/image.hpp"
#include "image/pack.hpp"
#include "image/rect.hpp"
#include "mp/trace.hpp"

namespace slspvr::pvr {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.put(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);  ///< bit pattern, not text — byte-exact round trip
  void f64(double v);
  void str(const std::string& s);
  void bytes(std::span<const std::byte> data) { out_.put_span(data); }
  /// The underlying buffer, for the wire codecs that append to one.
  [[nodiscard]] img::PackBuffer& buffer() noexcept { return out_; }

  [[nodiscard]] std::vector<std::byte> take() { return out_.take(); }

 private:
  img::PackBuffer out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  void bytes(std::span<std::byte> out);  ///< the next out.size() bytes, verbatim

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }
  /// The unread bytes, not consumed; skip() consumes them.
  [[nodiscard]] std::span<const std::byte> rest() const noexcept { return data_.subspan(pos_); }
  void skip(std::size_t n);

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;

  void need(std::size_t n) const;
};

/// Image as width, height, then its row spans (core::wire::pack_row_spans):
/// 8 bytes per row and the 16-byte pixels (4 float bit patterns each)
/// between each row's first and last pixel with a non-zero byte — the round
/// trip is bit-exact by construction. read_image checks the dimensions (at
/// most kMaxImageSide each) and that the row table is there before it
/// allocates the image, and throws std::out_of_range for any malformed or
/// truncated encoding.
void write_image(ByteWriter& w, const img::Image& image);
[[nodiscard]] img::Image read_image(ByteReader& r);

/// Largest width or height read_image accepts: the range of the int16 wire
/// rectangle (img::WireRect), which bounds every frame the methods composite.
inline constexpr int kMaxImageSide = 32767;

void write_rect(ByteWriter& w, const img::Rect& rect);
[[nodiscard]] img::Rect read_rect(ByteReader& r);

void write_counters(ByteWriter& w, const core::Counters& counters);
[[nodiscard]] core::Counters read_counters(ByteReader& r);

void write_record(ByteWriter& w, const mp::MessageRecord& record);
[[nodiscard]] mp::MessageRecord read_record(ByteReader& r);

}  // namespace slspvr::pvr
