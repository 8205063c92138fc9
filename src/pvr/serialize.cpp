#include "pvr/serialize.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "core/wire.hpp"

namespace slspvr::pvr {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.put(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.put(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(std::as_bytes(std::span<const char>(s)));
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw std::out_of_range("ByteReader: truncated payload (need " + std::to_string(n) +
                            " byte(s), have " + std::to_string(remaining()) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

float ByteReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

void ByteReader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

void ByteReader::bytes(std::span<std::byte> out) {
  need(out.size());
  if (out.empty()) return;  // memcpy must not see an empty span's null data()
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

// The span pixels are each pixel's r, g, b, a as little-endian float bit
// patterns, which is what a Pixel array holds on a little-endian host (the
// SLP1 envelope layout assumes one too).
static_assert(std::endian::native == std::endian::little,
              "image serialisation copies pixels verbatim as little-endian");
static_assert(std::is_trivially_copyable_v<img::Pixel> && sizeof(img::Pixel) == 4 * sizeof(float),
              "a Pixel must be exactly its four float bit patterns");

void write_image(ByteWriter& w, const img::Image& image) {
  w.i32(image.width());
  w.i32(image.height());
  core::wire::pack_row_spans(image, image.bounds(), w.buffer());
}

img::Image read_image(ByteReader& r) {
  const int width = r.i32();
  const int height = r.i32();
  const img::Rect bounds{0, 0, width, height};
  // Checked before the image is allocated: sane dimensions, and the row
  // table (8 bytes per row) is all there.
  if (width < 0 || height < 0 || width > kMaxImageSide || height > kMaxImageSide ||
      static_cast<std::size_t>(bounds.height()) > r.remaining() / sizeof(core::wire::RowSpan)) {
    throw std::out_of_range("read_image: bad " + std::to_string(width) + "x" +
                            std::to_string(height) + " header with " +
                            std::to_string(r.remaining()) + " byte(s) left");
  }
  img::Image image(width, height);
  img::UnpackBuffer in(r.rest());
  try {
    core::wire::unpack_row_spans(in, bounds, image);
  } catch (const img::DecodeError& e) {
    throw std::out_of_range(std::string("read_image: ") + e.what());
  }
  r.skip(r.remaining() - in.remaining());
  return image;
}

void write_rect(ByteWriter& w, const img::Rect& rect) {
  w.i32(rect.x0);
  w.i32(rect.y0);
  w.i32(rect.x1);
  w.i32(rect.y1);
}

img::Rect read_rect(ByteReader& r) {
  img::Rect rect;
  rect.x0 = r.i32();
  rect.y0 = r.i32();
  rect.x1 = r.i32();
  rect.y1 = r.i32();
  return rect;
}

namespace {

void write_totals(ByteWriter& w, const core::OpTotals& t) {
  w.i64(t.over_ops);
  w.i64(t.encoded_pixels);
  w.i64(t.rect_scanned);
  w.i64(t.codes_emitted);
  w.i64(t.pixels_sent);
  w.i64(t.pixels_received);
}

core::OpTotals read_totals(ByteReader& r) {
  core::OpTotals t;
  t.over_ops = r.i64();
  t.encoded_pixels = r.i64();
  t.rect_scanned = r.i64();
  t.codes_emitted = r.i64();
  t.pixels_sent = r.i64();
  t.pixels_received = r.i64();
  return t;
}

}  // namespace

void write_counters(ByteWriter& w, const core::Counters& counters) {
  write_totals(w, counters.totals());
  w.u32(static_cast<std::uint32_t>(counters.stage_marks.size()));
  for (const core::OpTotals& mark : counters.stage_marks) write_totals(w, mark);
}

core::Counters read_counters(ByteReader& r) {
  core::Counters counters;
  static_cast<core::OpTotals&>(counters) = read_totals(r);
  const std::uint32_t marks = r.u32();
  counters.stage_marks.reserve(marks);
  for (std::uint32_t i = 0; i < marks; ++i) counters.stage_marks.push_back(read_totals(r));
  return counters;
}

void write_record(ByteWriter& w, const mp::MessageRecord& record) {
  w.i32(record.peer);
  w.i32(record.tag);
  w.u64(record.bytes);
  w.i32(record.stage);
  w.u64(record.seq);
  w.u64(record.index);
  w.u32(static_cast<std::uint32_t>(record.clock.size()));
  for (const std::uint64_t c : record.clock) w.u64(c);
}

mp::MessageRecord read_record(ByteReader& r) {
  mp::MessageRecord record;
  record.peer = r.i32();
  record.tag = r.i32();
  record.bytes = r.u64();
  record.stage = r.i32();
  record.seq = r.u64();
  record.index = r.u64();
  const std::uint32_t n = r.u32();
  record.clock.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) record.clock.push_back(r.u64());
  return record;
}

}  // namespace slspvr::pvr
