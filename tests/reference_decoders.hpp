// Per-message reference decoders for core/wire's payload formats.
//
// Unpack-then-blend decoders: each materializes the message (img::Rle,
// img::SpanImage, a row vector) and then blends it one run or row at a time
// on the calling thread. Nothing in the engine calls them. They are the
// oracle the codecs' streaming decoders (core/codec.hpp) are held to, as
// render::render_brick_reference is for the ray caster:
// test_streaming_decode.cpp requires byte- and counter-identical results per
// message, and test_decode_fuzz.cpp feeds both mutated bytes.
#pragma once

#include <cstdint>

#include "core/counters.hpp"
#include "image/image.hpp"
#include "image/interleave.hpp"
#include "image/pack.hpp"
#include "image/rle.hpp"
#include "image/spans.hpp"

namespace slspvr::testing::ref {

/// Composite raw rect pixels from `buf` into `image` over `rect`.
/// Every pixel of the rectangle costs one over op (the BSBR disadvantage:
/// blank pixels inside the rectangle are shipped and composited too).
void unpack_composite_rect(img::Image& image, const img::Rect& rect, img::UnpackBuffer& buf,
                           bool incoming_in_front, core::Counters& counters);

/// Parse an Rle representing `expected_length` pixels from `buf`.
/// Throws img::DecodeError when the codes overshoot the expected sequence
/// length or the buffer is truncated — never reads out of bounds.
[[nodiscard]] img::Rle parse_rle(img::UnpackBuffer& buf, std::int64_t expected_length);

/// Composite an Rle whose sequence is the row-major scan of `rect`.
/// Only non-blank pixels are composited (one over op each).
void composite_rle_rect(img::Image& image, const img::Rect& rect, const img::Rle& rle,
                        bool incoming_in_front, core::Counters& counters);

/// Composite an Rle whose sequence is the interleaved progression `range`.
void composite_rle_strided(img::Image& image, const img::InterleavedRange& range,
                           const img::Rle& rle, bool incoming_in_front,
                           core::Counters& counters);

/// Parse a SpanImage for the known `rect` from `buf`.
[[nodiscard]] img::SpanImage parse_spans(img::UnpackBuffer& buf, const img::Rect& rect);

/// Composite the span pixels into `image` (over ops = non-blank count).
void composite_spans(img::Image& image, const img::SpanImage& spans, bool incoming_in_front,
                     core::Counters& counters);

/// Parse a pack_raw_rect message and composite it into `image`. The header
/// rectangle is validated against `bounds` before any pixel is touched.
/// Returns the received rectangle (empty when the sender had nothing).
[[nodiscard]] img::Rect unpack_composite_raw_rect(img::Image& image, img::UnpackBuffer& buf,
                                                  const img::Rect& bounds,
                                                  bool incoming_in_front,
                                                  core::Counters& counters);

/// Parse a pack_rle_rect message and composite its non-blank pixels.
[[nodiscard]] img::Rect unpack_composite_rle_rect(img::Image& image, img::UnpackBuffer& buf,
                                                  const img::Rect& bounds,
                                                  bool incoming_in_front,
                                                  core::Counters& counters);

/// Parse a pack_span_rect message and composite its span pixels.
[[nodiscard]] img::Rect unpack_composite_span_rect(img::Image& image, img::UnpackBuffer& buf,
                                                   const img::Rect& bounds,
                                                   bool incoming_in_front,
                                                   core::Counters& counters);

}  // namespace slspvr::testing::ref
