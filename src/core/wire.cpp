#include "core/wire.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "image/kernels.hpp"

namespace slspvr::core::wire {

namespace {

/// Staging area for the strided encode: interleaved progressions are
/// gathered contiguous here so the batched classify kernel can run over
/// them. One arena per calling thread, so concurrent ranks never share it;
/// the codecs' band-parallel decoders use the explicit per-worker
/// EngineScratch instead.
std::vector<img::Pixel>& strided_scratch(std::int64_t count) {
  thread_local std::vector<img::Pixel> scratch;
  if (static_cast<std::int64_t>(scratch.size()) < count) {
    scratch.resize(static_cast<std::size_t>(count));
  }
  return scratch;
}

}  // namespace

// ---- encoders --------------------------------------------------------------

void pack_rect_pixels(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf) {
  for (int y = rect.y0; y < rect.y1; ++y) {
    const img::Pixel* row = &image.at(rect.x0, y);
    buf.put_span(std::span<const img::Pixel>(row, static_cast<std::size_t>(rect.width())));
  }
}

img::Rle encode_rect(const img::Image& image, const img::Rect& rect, Counters& counters) {
  // Row-at-a-time run classification; RunState carries runs across row
  // boundaries so the codes equal the single-sequence encoding exactly.
  img::Rle rle;
  rle.length = rect.area();
  img::kern::RunState state;
  for (int y = rect.y0; y < rect.y1; ++y) {
    img::kern::rle_classify_span(&image.at(rect.x0, y), rect.width(), state, rle);
  }
  if (rle.length > 0) img::kern::rle_classify_flush(state, rle);
  counters.encoded_pixels += rect.area();
  counters.codes_emitted += static_cast<std::int64_t>(rle.codes.size());
  return rle;
}

img::Rle encode_strided(const img::Image& image, const img::InterleavedRange& range,
                        Counters& counters) {
  return encode_strided_base(image.pixels().data(), range, counters);
}

img::Rle encode_strided_base(const img::Pixel* base, const img::InterleavedRange& range,
                             Counters& counters) {
  // Gather the interleaved progression contiguous, then classify it with
  // the same batched kernel the rectangle path uses.
  std::vector<img::Pixel>& scratch = strided_scratch(range.count);
  img::kern::gather_strided(base, range.offset, range.stride, range.count, scratch.data());
  img::Rle rle;
  rle.length = range.count;
  img::kern::RunState state;
  img::kern::rle_classify_span(scratch.data(), range.count, state, rle);
  if (range.count > 0) img::kern::rle_classify_flush(state, rle);
  counters.encoded_pixels += range.count;
  counters.codes_emitted += static_cast<std::int64_t>(rle.codes.size());
  return rle;
}

void pack_rle(const img::Rle& rle, img::PackBuffer& buf) {
  buf.put_span(std::span<const std::uint16_t>(rle.codes));
  buf.put_span(std::span<const img::Pixel>(rle.pixels));
}

img::SpanImage encode_spans(const img::Image& image, const img::Rect& rect,
                            Counters& counters) {
  std::int64_t scanned = 0;
  img::SpanImage spans = img::span_encode_rect(image, rect, &scanned);
  counters.encoded_pixels += scanned;
  // 2-byte units: one per row count, two per span (offset + length).
  counters.codes_emitted += static_cast<std::int64_t>(spans.row_counts.size()) +
                            2 * static_cast<std::int64_t>(spans.spans.size());
  return spans;
}

void pack_spans(const img::SpanImage& spans, img::PackBuffer& buf) {
  buf.put_span(std::span<const std::uint16_t>(spans.row_counts));
  buf.put_span(std::span<const img::Span>(spans.spans));
  buf.put_span(std::span<const img::Pixel>(spans.pixels));
}

void pack_raw_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters) {
  buf.put(img::to_wire(rect));
  if (!rect.empty()) {
    pack_rect_pixels(image, rect, buf);
    counters.pixels_sent += rect.area();
  }
}

void pack_rle_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters) {
  buf.put(img::to_wire(rect));
  if (!rect.empty()) {
    const img::Rle rle = encode_rect(image, rect, counters);
    counters.pixels_sent += rle.non_blank_count();
    pack_rle(rle, buf);
  }
}

void pack_span_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                    Counters& counters) {
  buf.put(img::to_wire(rect));
  if (!rect.empty()) {
    const img::SpanImage spans = encode_spans(image, rect, counters);
    counters.pixels_sent += spans.non_blank_count();
    pack_spans(spans, buf);
  }
}

// ---- streaming views -------------------------------------------------------

img::Rect parse_rect(img::UnpackBuffer& buf, const img::Rect& bounds) {
  const img::Rect rect = img::from_wire(buf.get<img::WireRect>());
  if (rect.empty()) return img::kEmptyRect;
  if (!bounds.contains(rect)) {
    throw img::DecodeError("parse_rect: rectangle [" + std::to_string(rect.x0) + "," +
                           std::to_string(rect.y0) + "," + std::to_string(rect.x1) + "," +
                           std::to_string(rect.y1) + ") escapes the frame [" +
                           std::to_string(bounds.x0) + "," + std::to_string(bounds.y0) + "," +
                           std::to_string(bounds.x1) + "," + std::to_string(bounds.y1) + ")");
  }
  return rect;
}

RleView parse_rle_view(img::UnpackBuffer& buf, std::int64_t expected_length,
                       std::vector<img::Pixel>& pixel_bounce,
                       std::vector<std::uint16_t>& code_bounce) {
  // Prescan the code section in place (memcpy per 2-byte code — alignment-
  // agnostic) to find where it ends, exactly mirroring the reference
  // parse_rle: stop as soon as the total reaches the expected length, throw
  // on overshoot, and let truncation surface as a short read.
  const std::span<const std::byte> rest = buf.peek_remaining();
  std::size_t ncodes = 0;
  std::int64_t total = 0;
  std::int64_t foreground = 0;
  bool blank = true;
  while (total < expected_length) {
    if ((ncodes + 1) * sizeof(std::uint16_t) > rest.size()) {
      throw img::DecodeError("parse_rle_view: short read (codes truncated at " +
                             std::to_string(total) + " of " +
                             std::to_string(expected_length) + " pixels)");
    }
    std::uint16_t code = 0;
    std::memcpy(&code, rest.data() + ncodes * sizeof(std::uint16_t), sizeof(code));
    ++ncodes;
    total += code;
    if (!blank) foreground += code;
    blank = !blank;
  }
  if (total != expected_length) {
    throw img::DecodeError("parse_rle_view: codes overshoot the expected length (" +
                           std::to_string(total) + " > " + std::to_string(expected_length) +
                           ")");
  }
  RleView view;
  view.ncodes = ncodes;
  view.non_blank = foreground;
  view.codes = typed_view(buf.get_bytes(ncodes * sizeof(std::uint16_t)), ncodes, code_bounce);
  view.pixels =
      typed_view(buf.get_bytes(static_cast<std::size_t>(foreground) * sizeof(img::Pixel)),
                 static_cast<std::size_t>(foreground), pixel_bounce);
  return view;
}

SpanView parse_spans_view(img::UnpackBuffer& buf, const img::Rect& rect,
                          std::vector<img::Pixel>& pixel_bounce) {
  SpanView view;
  if (rect.empty()) return view;
  const auto height = static_cast<std::size_t>(rect.height());
  // row_counts and spans are 2-byte-aligned by construction (they follow an
  // 8-byte header and 2-byte-multiple sections), so these views never
  // bounce; the DecodeError checks match the reference parse_spans exactly.
  const std::span<const std::byte> counts_bytes = buf.get_bytes(height * sizeof(std::uint16_t));
  thread_local std::vector<std::uint16_t> counts_bounce;
  view.row_counts = typed_view(counts_bytes, height, counts_bounce);
  std::size_t total_spans = 0;
  for (std::size_t r = 0; r < height; ++r) total_spans += view.row_counts[r];
  thread_local std::vector<img::Span> span_bounce;
  view.spans = typed_view(buf.get_bytes(total_spans * sizeof(img::Span)), total_spans,
                          span_bounce);
  view.nspans = total_spans;
  std::size_t total_pixels = 0;
  for (std::size_t s = 0; s < total_spans; ++s) {
    const img::Span& span = view.spans[s];
    // A corrupted span must not index outside the rectangle when composited.
    if (static_cast<int>(span.x) + static_cast<int>(span.len) > rect.width()) {
      throw img::DecodeError("parse_spans_view: span [" + std::to_string(span.x) + "+" +
                             std::to_string(span.len) + "] exceeds rectangle width " +
                             std::to_string(rect.width()));
    }
    total_pixels += span.len;
  }
  view.pixels = typed_view(buf.get_bytes(total_pixels * sizeof(img::Pixel)), total_pixels,
                           pixel_bounce);
  view.non_blank = static_cast<std::int64_t>(total_pixels);
  return view;
}

// ---- row-span image codec --------------------------------------------------

namespace {

/// True when all 16 bytes of `p` are zero (the codec's blank test).
bool zero_bytes(const img::Pixel& p) noexcept {
  std::uint64_t half[2] = {};
  std::memcpy(half, &p, sizeof half);
  return (half[0] | half[1]) == 0;
}

/// The span between the first and last pixel of `row` with a non-zero byte.
RowSpan nonzero_span(const img::Pixel* row, int width) noexcept {
  int first = 0;
  while (first < width && zero_bytes(row[first])) ++first;
  if (first == width) return {};
  int last = width;
  while (zero_bytes(row[last - 1])) --last;
  return {static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(last - first)};
}

}  // namespace

void pack_row_spans(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf) {
  const auto rows = static_cast<std::size_t>(rect.height());
  std::vector<RowSpan> table(rows);
  std::size_t pixels = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    table[i] = nonzero_span(&image.at(rect.x0, rect.y0 + static_cast<int>(i)), rect.width());
    pixels += table[i].length;
  }
  buf.reserve(buf.size() + rows * sizeof(RowSpan) + pixels * sizeof(img::Pixel));
  buf.put_span(std::span<const RowSpan>(table));
  for (std::size_t i = 0; i < rows; ++i) {
    const int y = rect.y0 + static_cast<int>(i);
    buf.put_span(std::span<const img::Pixel>(
        &image.at(rect.x0 + static_cast<int>(table[i].offset), y), table[i].length));
  }
}

void unpack_row_spans(img::UnpackBuffer& buf, const img::Rect& rect, img::Image& out) {
  if (!out.bounds().contains(rect)) {
    throw img::DecodeError("unpack_row_spans: rectangle [" + std::to_string(rect.x0) + "," +
                           std::to_string(rect.y0) + "," + std::to_string(rect.x1) + "," +
                           std::to_string(rect.y1) + ") escapes the " +
                           std::to_string(out.width()) + "x" + std::to_string(out.height()) +
                           " frame");
  }
  const auto rows = static_cast<std::size_t>(rect.height());
  const auto width = static_cast<std::uint32_t>(rect.width());
  thread_local std::vector<RowSpan> table_bounce;
  const RowSpan* table =
      typed_view(buf.get_bytes(rows * sizeof(RowSpan)), rows, table_bounce);
  std::size_t pixels = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (table[i].offset > width || table[i].length > width - table[i].offset) {
      throw img::DecodeError("unpack_row_spans: span [" + std::to_string(table[i].offset) +
                             "+" + std::to_string(table[i].length) +
                             "] exceeds rectangle width " + std::to_string(width));
    }
    pixels += table[i].length;
  }
  if (pixels > buf.remaining() / sizeof(img::Pixel)) {
    throw img::DecodeError("unpack_row_spans: short read (" + std::to_string(pixels) +
                           " span pixels, " + std::to_string(buf.remaining()) + " bytes left)");
  }
  thread_local std::vector<img::Pixel> pixel_bounce;
  const img::Pixel* src =
      typed_view(buf.get_bytes(pixels * sizeof(img::Pixel)), pixels, pixel_bounce);
  // Each placed span is written once and not re-read this frame: stream it.
  for (std::size_t i = 0; i < rows; ++i) {
    if (table[i].length == 0) continue;
    const int y = rect.y0 + static_cast<int>(i);
    img::kern::copy_span_nt(&out.at(rect.x0 + static_cast<int>(table[i].offset), y), src,
                            table[i].length);
    src += table[i].length;
  }
}

}  // namespace slspvr::core::wire
