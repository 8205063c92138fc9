#include "reference_decoders.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "image/kernels.hpp"

namespace slspvr::testing::ref {

namespace {

/// Staging area for the strided blend: a run's interleaved pixels are
/// gathered contiguous here, blended with the span kernel and scattered
/// back. One arena per calling thread, so concurrent ranks never share it.
std::vector<img::Pixel>& strided_scratch(std::int64_t count) {
  thread_local std::vector<img::Pixel> scratch;
  if (static_cast<std::int64_t>(scratch.size()) < count) {
    scratch.resize(static_cast<std::size_t>(count));
  }
  return scratch;
}

}  // namespace

void unpack_composite_rect(img::Image& image, const img::Rect& rect, img::UnpackBuffer& buf,
                           bool incoming_in_front, core::Counters& counters) {
  for (int y = rect.y0; y < rect.y1; ++y) {
    const auto row = buf.get_vector<img::Pixel>(static_cast<std::size_t>(rect.width()));
    img::kern::composite_span(&image.at(rect.x0, y), row.data(), rect.width(),
                              incoming_in_front);
  }
  counters.over_ops += rect.area();
  counters.pixels_received += rect.area();
}

img::Rle parse_rle(img::UnpackBuffer& buf, std::int64_t expected_length) {
  img::Rle rle;
  rle.length = expected_length;
  std::int64_t total = 0;
  std::int64_t foreground = 0;
  bool blank = true;
  while (total < expected_length) {
    const auto code = buf.get<std::uint16_t>();
    rle.codes.push_back(code);
    total += code;
    if (!blank) foreground += code;
    blank = !blank;
  }
  if (total != expected_length) {
    throw img::DecodeError("parse_rle: codes overshoot the expected length (" +
                           std::to_string(total) + " > " + std::to_string(expected_length) +
                           ")");
  }
  rle.pixels = buf.get_vector<img::Pixel>(static_cast<std::size_t>(foreground));
  return rle;
}

void composite_rle_rect(img::Image& image, const img::Rect& rect, const img::Rle& rle,
                        bool incoming_in_front, core::Counters& counters) {
  const int w = rect.width();
  std::int64_t composited = 0;
  // Whole runs at a time, split only where a run crosses a rectangle row.
  img::rle_for_each_non_blank_run(
      rle, [&](std::int64_t pos, std::int64_t len, const img::Pixel* pixels) {
        while (len > 0) {
          const int x = rect.x0 + static_cast<int>(pos % w);
          const int y = rect.y0 + static_cast<int>(pos / w);
          const std::int64_t chunk = std::min<std::int64_t>(len, rect.x1 - x);
          img::kern::composite_span(&image.at(x, y), pixels, chunk, incoming_in_front);
          pos += chunk;
          pixels += chunk;
          len -= chunk;
          composited += chunk;
        }
      });
  counters.over_ops += composited;
  counters.pixels_received += composited;
}

void composite_rle_strided(img::Image& image, const img::InterleavedRange& range,
                           const img::Rle& rle, bool incoming_in_front,
                           core::Counters& counters) {
  std::int64_t composited = 0;
  // Per run: gather the local strided pixels contiguous, blend the whole
  // run with the span kernel, scatter the result back (O(non-blank) work).
  img::rle_for_each_non_blank_run(
      rle, [&](std::int64_t pos, std::int64_t len, const img::Pixel* pixels) {
        std::vector<img::Pixel>& scratch = strided_scratch(len);
        const std::int64_t offset = range.index(pos);
        img::kern::gather_strided(image.pixels().data(), offset, range.stride, len,
                                  scratch.data());
        img::kern::composite_span(scratch.data(), pixels, len, incoming_in_front);
        img::kern::scatter_strided(scratch.data(), len, image.pixels().data(), offset,
                                   range.stride);
        composited += len;
      });
  counters.over_ops += composited;
  counters.pixels_received += composited;
}

img::SpanImage parse_spans(img::UnpackBuffer& buf, const img::Rect& rect) {
  img::SpanImage spans;
  spans.rect = rect;
  if (rect.empty()) return spans;
  spans.row_counts = buf.get_vector<std::uint16_t>(static_cast<std::size_t>(rect.height()));
  std::size_t total_spans = 0;
  for (const auto c : spans.row_counts) total_spans += c;
  spans.spans = buf.get_vector<img::Span>(total_spans);
  // A corrupted span must not index outside the rectangle when composited.
  for (const img::Span& s : spans.spans) {
    if (static_cast<int>(s.x) + static_cast<int>(s.len) > rect.width()) {
      throw img::DecodeError("parse_spans: span [" + std::to_string(s.x) + "+" +
                             std::to_string(s.len) + "] exceeds rectangle width " +
                             std::to_string(rect.width()));
    }
  }
  std::size_t total_pixels = 0;
  for (const auto& s : spans.spans) total_pixels += s.len;
  spans.pixels = buf.get_vector<img::Pixel>(total_pixels);
  return spans;
}

void composite_spans(img::Image& image, const img::SpanImage& spans, bool incoming_in_front,
                     core::Counters& counters) {
  const std::int64_t ops = img::span_composite(image, spans, incoming_in_front);
  counters.over_ops += ops;
  counters.pixels_received += ops;
}

img::Rect unpack_composite_raw_rect(img::Image& image, img::UnpackBuffer& buf,
                                    const img::Rect& bounds, bool incoming_in_front,
                                    core::Counters& counters) {
  const img::Rect rect = core::wire::parse_rect(buf, bounds);
  if (!rect.empty()) {
    unpack_composite_rect(image, rect, buf, incoming_in_front, counters);
  }
  return rect;
}

img::Rect unpack_composite_rle_rect(img::Image& image, img::UnpackBuffer& buf,
                                    const img::Rect& bounds, bool incoming_in_front,
                                    core::Counters& counters) {
  const img::Rect rect = core::wire::parse_rect(buf, bounds);
  if (!rect.empty()) {
    const img::Rle incoming = parse_rle(buf, rect.area());
    composite_rle_rect(image, rect, incoming, incoming_in_front, counters);
  }
  return rect;
}

img::Rect unpack_composite_span_rect(img::Image& image, img::UnpackBuffer& buf,
                                     const img::Rect& bounds, bool incoming_in_front,
                                     core::Counters& counters) {
  const img::Rect rect = core::wire::parse_rect(buf, bounds);
  if (!rect.empty()) {
    const img::SpanImage incoming = parse_spans(buf, rect);
    composite_spans(image, incoming, incoming_in_front, counters);
  }
  return rect;
}

}  // namespace slspvr::testing::ref
