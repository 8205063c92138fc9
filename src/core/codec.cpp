#include "core/codec.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "core/worker_pool.hpp"
#include "image/kernels.hpp"

namespace slspvr::core {

void PayloadCodec::encode_rect(const img::Image&, const img::Rect&, const img::Rect&,
                               img::PackBuffer&, Counters&) const {
  throw std::logic_error(std::string(name()) + ": codec does not encode rectangles");
}

img::Rect PayloadCodec::decode_rect(DecodeSink&, const img::Rect&, img::UnpackBuffer&) const {
  throw std::logic_error(std::string(name()) + ": codec does not decode rectangles");
}

void PayloadCodec::encode_range(const img::Image&, const img::InterleavedRange&,
                                img::PackBuffer&, Counters&) const {
  throw std::logic_error(std::string(name()) + ": codec does not encode progressions");
}

void PayloadCodec::decode_range(DecodeSink&, const img::InterleavedRange&,
                                img::UnpackBuffer&) const {
  throw std::logic_error(std::string(name()) + ": codec does not decode progressions");
}

namespace {

// ---- decode plumbing -------------------------------------------------------

EngineScratch& sink_scratch(const DecodeSink& sink, int worker) {
  return sink.engine.scratch(worker);
}

[[nodiscard]] int sink_workers(const DecodeSink& sink) { return sink.engine.workers(); }

/// Fan a banded task across the sink's engine pool (a 1-wide pool runs the
/// task inline on the caller).
void run_banded(const DecodeSink& sink, const std::function<void(int)>& fn) {
  sink.engine.pool().run(fn);
}

/// Band-parallel blend of a raw row-major pixel payload over `rect`,
/// straight out of the receive buffer (FullPixel / BoundingRect bodies).
void composite_raw_rect_view(DecodeSink& sink, const img::Rect& rect, img::UnpackBuffer& in) {
  const auto count = static_cast<std::size_t>(rect.area());
  const img::Pixel* pixels = wire::typed_view(in.get_bytes(count * sizeof(img::Pixel)), count,
                                              sink_scratch(sink, 0).bounce);
  const int nworkers = sink_workers(sink);
  img::Image& image = sink.image;
  const bool in_front = sink.incoming_in_front;
  run_banded(sink, [&](int w) {
    const ChunkBounds band = chunk_bounds(rect.height(), nworkers, w);
    for (std::int64_t y = band.first; y < band.last; ++y) {
      img::kern::composite_span(&image.at(rect.x0, rect.y0 + static_cast<int>(y)),
                                pixels + y * rect.width(), rect.width(), in_front);
    }
  });
  sink.counters.over_ops += rect.area();
  sink.counters.pixels_received += rect.area();
}

/// Blend one band of an interleaved-RLE message: the strided equivalent of
/// kern::composite_rle_span, reproducing the per-run gather → composite_span
/// → scatter arithmetic of the reference composite_rle_strided
/// (tests/reference_decoders.hpp) over the band's elements (runs split at
/// band boundaries change only the chunking, not any pixel's arithmetic).
/// Returns the pixels composited.
std::int64_t composite_rle_strided_band(img::Image& image, const img::InterleavedRange& range,
                                        const wire::RleView& view, img::kern::RleCursor cur,
                                        std::int64_t pos, std::int64_t n, bool in_front,
                                        std::vector<img::Pixel>& staging) {
  std::int64_t composited = 0;
  while (n > 0) {
    if (cur.run_left == 0) {
      if (cur.code >= view.ncodes) break;
      cur.blank = !cur.blank;
      cur.run_left = view.codes[cur.code++];
      continue;
    }
    const std::int64_t take = std::min(cur.run_left, n);
    if (!cur.blank) {
      if (static_cast<std::int64_t>(staging.size()) < take) {
        staging.resize(static_cast<std::size_t>(take));
      }
      const std::int64_t offset = range.index(pos);
      img::kern::gather_strided(image.pixels().data(), offset, range.stride, take,
                                staging.data());
      img::kern::composite_span(staging.data(), view.pixels + cur.pixel, take, in_front);
      img::kern::scatter_strided(staging.data(), take, image.pixels().data(), offset,
                                 range.stride);
      cur.pixel += take;
      composited += take;
    }
    cur.run_left -= take;
    pos += take;
    n -= take;
  }
  return composited;
}

/// Raw region pixels, no header: 16 B/pixel over the whole part.
class FullPixelCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "full-pixel"; }
  [[nodiscard]] WireTraits traits() const override {
    return WireTraits{check::PayloadClass::kFullRegion, 0, 16, 0, false};
  }
  void encode_rect(const img::Image& image, const img::Rect& part, const img::Rect&,
                   img::PackBuffer& buf, Counters& counters) const override {
    buf.reserve(buf.size() + static_cast<std::size_t>(part.area()) * sizeof(img::Pixel));
    wire::pack_rect_pixels(image, part, buf);
    counters.pixels_sent += part.area();
  }
  img::Rect decode_rect(DecodeSink& sink, const img::Rect& part,
                        img::UnpackBuffer& in) const override {
    composite_raw_rect_view(sink, part, in);
    return part;
  }
};

/// WireRect header + raw pixels of the clipped rectangle (BSBR).
class BoundingRectCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "bounding-rect"; }
  [[nodiscard]] WireTraits traits() const override {
    return WireTraits{check::PayloadClass::kBoundingRect, 8, 16, 0, false};
  }
  [[nodiscard]] bool tracks_rect() const override { return true; }
  void encode_rect(const img::Image& image, const img::Rect&, const img::Rect& clip,
                   img::PackBuffer& buf, Counters& counters) const override {
    wire::pack_raw_rect(image, clip, buf, counters);
  }
  img::Rect decode_rect(DecodeSink& sink, const img::Rect&,
                        img::UnpackBuffer& in) const override {
    const img::Rect rect = wire::parse_rect(in, sink.image.bounds());
    if (!rect.empty()) composite_raw_rect_view(sink, rect, in);
    return rect;
  }
};

/// WireRect header + row-major RLE of the clipped rectangle (BSBRC).
class RleRectCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "rle-rect"; }
  [[nodiscard]] WireTraits traits() const override {
    // WireRect (8 B) + code-count headroom (4 B) + RLE worst case 18 B/pixel.
    return WireTraits{check::PayloadClass::kNonBlank, 12, 18, 0, false};
  }
  [[nodiscard]] bool tracks_rect() const override { return true; }
  void encode_rect(const img::Image& image, const img::Rect&, const img::Rect& clip,
                   img::PackBuffer& buf, Counters& counters) const override {
    wire::pack_rle_rect(image, clip, buf, counters);
  }
  img::Rect decode_rect(DecodeSink& sink, const img::Rect&,
                        img::UnpackBuffer& in) const override {
    const img::Rect rect = wire::parse_rect(in, sink.image.bounds());
    if (rect.empty()) return rect;
    EngineScratch& s0 = sink_scratch(sink, 0);
    const wire::RleView view = wire::parse_rle_view(in, rect.area(), s0.bounce, s0.code_bounce);
    const int nworkers = sink_workers(sink);
    // Serial prescan: band w's cursor is the walk state at its first
    // sequence element (runs — including kMaxRun escape chains — straddle
    // band boundaries freely; rle_skip resumes mid-run).
    std::vector<img::kern::RleCursor> cursors(static_cast<std::size_t>(nworkers));
    img::kern::RleCursor cur;
    std::int64_t at = 0;
    for (int w = 0; w < nworkers; ++w) {
      const ChunkBounds band = chunk_bounds(rect.area(), nworkers, w);
      img::kern::rle_skip(view.codes, view.ncodes, cur, band.first - at);
      at = band.first;
      cursors[static_cast<std::size_t>(w)] = cur;
    }
    std::vector<std::int64_t> composited(static_cast<std::size_t>(nworkers), 0);
    img::Image& image = sink.image;
    const bool in_front = sink.incoming_in_front;
    run_banded(sink, [&](int w) {
      const ChunkBounds band = chunk_bounds(rect.area(), nworkers, w);
      if (band.count() == 0) return;
      img::kern::RleCursor c = cursors[static_cast<std::size_t>(w)];
      composited[static_cast<std::size_t>(w)] = img::kern::composite_rle_span(
          &image.at(rect.x0, rect.y0), band.first, rect.width(), image.width(), view.codes,
          view.ncodes, view.pixels, c, band.count(), in_front);
    });
    std::int64_t total = 0;
    for (const std::int64_t c : composited) total += c;
    sink.counters.over_ops += total;
    sink.counters.pixels_received += total;
    return rect;
  }
};

/// WireRect header + scanline spans of the clipped rectangle (BSBRS).
class SpanRectCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "span-rect"; }
  [[nodiscard]] WireTraits traits() const override {
    // WireRect + 4 B span-count headroom, 20 B per single-pixel span, 2 B
    // span-count per rectangle row (paid even when the row is blank).
    return WireTraits{check::PayloadClass::kNonBlank, 12, 20, 2, false};
  }
  [[nodiscard]] bool tracks_rect() const override { return true; }
  void encode_rect(const img::Image& image, const img::Rect&, const img::Rect& clip,
                   img::PackBuffer& buf, Counters& counters) const override {
    wire::pack_span_rect(image, clip, buf, counters);
  }
  img::Rect decode_rect(DecodeSink& sink, const img::Rect&,
                        img::UnpackBuffer& in) const override {
    const img::Rect rect = wire::parse_rect(in, sink.image.bounds());
    if (rect.empty()) return rect;
    const wire::SpanView view = wire::parse_spans_view(in, rect, sink_scratch(sink, 0).bounce);
    const int nworkers = sink_workers(sink);
    // Serial prescan: prefix sums of span and payload counts up to each row
    // band, so every worker starts at its band's first span and pixel.
    struct BandStart {
      std::size_t span = 0;
      std::int64_t pixel = 0;
    };
    std::vector<BandStart> starts(static_cast<std::size_t>(nworkers));
    {
      std::size_t span_idx = 0;
      std::int64_t pixel_idx = 0;
      std::int64_t row = 0;
      for (int w = 0; w < nworkers; ++w) {
        const ChunkBounds band = chunk_bounds(rect.height(), nworkers, w);
        starts[static_cast<std::size_t>(w)] = BandStart{span_idx, pixel_idx};
        for (; row < band.last; ++row) {
          const std::uint16_t nspans = view.row_counts[row];
          for (std::uint16_t s = 0; s < nspans; ++s) {
            pixel_idx += view.spans[span_idx + s].len;
          }
          span_idx += nspans;
        }
      }
    }
    std::vector<std::int64_t> composited(static_cast<std::size_t>(nworkers), 0);
    img::Image& image = sink.image;
    const bool in_front = sink.incoming_in_front;
    run_banded(sink, [&](int w) {
      const ChunkBounds band = chunk_bounds(rect.height(), nworkers, w);
      if (band.count() == 0) return;
      const BandStart& start = starts[static_cast<std::size_t>(w)];
      composited[static_cast<std::size_t>(w)] = img::kern::composite_span_rows(
          &image.at(rect.x0, rect.y0 + static_cast<int>(band.first)), image.width(),
          view.row_counts + band.first, band.count(), view.spans + start.span,
          view.pixels + start.pixel, in_front);
    });
    std::int64_t total = 0;
    for (const std::int64_t c : composited) total += c;
    sink.counters.over_ops += total;
    sink.counters.pixels_received += total;
    return rect;
  }
};

/// RLE over an interleaved pixel progression, no header (BSLC).
class InterleavedRleCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "interleaved-rle"; }
  [[nodiscard]] WireTraits traits() const override {
    // Worst case one 2 B code per 16 B pixel, behind a 4 B count headroom.
    return WireTraits{check::PayloadClass::kNonBlank, 4, 18, 0, true};
  }
  [[nodiscard]] bool scalar() const override { return true; }
  void encode_range(const img::Image& image, const img::InterleavedRange& part,
                    img::PackBuffer& buf, Counters& counters) const override {
    const img::Rle rle = wire::encode_strided(image, part, counters);
    counters.pixels_sent += rle.non_blank_count();
    buf.reserve(buf.size() + static_cast<std::size_t>(rle.wire_bytes()));
    wire::pack_rle(rle, buf);
  }
  void decode_range(DecodeSink& sink, const img::InterleavedRange& part,
                    img::UnpackBuffer& in) const override {
    EngineScratch& s0 = sink_scratch(sink, 0);
    const wire::RleView view = wire::parse_rle_view(in, part.count, s0.bounce, s0.code_bounce);
    const int nworkers = sink_workers(sink);
    std::vector<img::kern::RleCursor> cursors(static_cast<std::size_t>(nworkers));
    img::kern::RleCursor cur;
    std::int64_t at = 0;
    for (int w = 0; w < nworkers; ++w) {
      const ChunkBounds band = chunk_bounds(part.count, nworkers, w);
      img::kern::rle_skip(view.codes, view.ncodes, cur, band.first - at);
      at = band.first;
      cursors[static_cast<std::size_t>(w)] = cur;
    }
    std::vector<std::int64_t> composited(static_cast<std::size_t>(nworkers), 0);
    img::Image& image = sink.image;
    const bool in_front = sink.incoming_in_front;
    run_banded(sink, [&](int w) {
      const ChunkBounds band = chunk_bounds(part.count, nworkers, w);
      if (band.count() == 0) return;
      composited[static_cast<std::size_t>(w)] = composite_rle_strided_band(
          image, part, view, cursors[static_cast<std::size_t>(w)], band.first, band.count(),
          in_front, sink_scratch(sink, w).staging);
    });
    std::int64_t total = 0;
    for (const std::int64_t c : composited) total += c;
    sink.counters.over_ops += total;
    sink.counters.pixels_received += total;
  }
};

}  // namespace

const PayloadCodec& codec_for(CodecKind kind) {
  static const FullPixelCodec full;
  static const BoundingRectCodec brect;
  static const RleRectCodec rle;
  static const SpanRectCodec span;
  static const InterleavedRleCodec strided;
  switch (kind) {
    case CodecKind::kFullPixel: return full;
    case CodecKind::kBoundingRect: return brect;
    case CodecKind::kRleRect: return rle;
    case CodecKind::kSpanRect: return span;
    case CodecKind::kInterleavedRle: return strided;
  }
  throw std::invalid_argument("codec_for: unknown codec kind");
}

std::string_view codec_name(CodecKind kind) { return codec_for(kind).name(); }

}  // namespace slspvr::core
