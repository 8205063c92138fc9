// Wire helpers shared by the binary-swap family: packing raw rectangles,
// run-length encoded rectangles, scanline spans and run-length encoded
// interleaved ranges into send buffers; zero-copy views that the codecs'
// decoders (core/codec.hpp) blend straight out of receive buffers; and the
// row-span codec of the final image (gather pieces and image reports).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/counters.hpp"
#include "image/image.hpp"
#include "image/interleave.hpp"
#include "image/pack.hpp"
#include "image/rle.hpp"
#include "image/spans.hpp"

namespace slspvr::core::wire {

// ---- encoders --------------------------------------------------------------

/// Append the raw pixels of `rect` (row-major) to `buf`.
void pack_rect_pixels(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf);

/// Run-length encode the pixels of `rect` in row-major order.
/// Counts rect.area() encoded pixels and the emitted codes.
[[nodiscard]] img::Rle encode_rect(const img::Image& image, const img::Rect& rect,
                                   Counters& counters);

/// Run-length encode the pixels of an interleaved progression.
[[nodiscard]] img::Rle encode_strided(const img::Image& image,
                                      const img::InterleavedRange& range,
                                      Counters& counters);

/// Same, over a raw pixel array instead of a frame — the BSLC SoA engine
/// keeps its progression compacted in scratch between stages and encodes
/// parts of it in element space. Identical sequence values mean identical
/// codes, payload and counters, so the wire bytes match the frame-based
/// encode exactly.
[[nodiscard]] img::Rle encode_strided_base(const img::Pixel* base,
                                           const img::InterleavedRange& range,
                                           Counters& counters);

/// Append an Rle to `buf`: codes then pixels, no header — the decoder knows
/// the expected sequence length, so wire bytes are exactly
/// 2*#codes + 16*#pixels (the R_code / A_opaque terms of Eqs. 6 and 8).
void pack_rle(const img::Rle& rle, img::PackBuffer& buf);

/// Span-encode the pixels of `rect` (the future-work scanline-span
/// encoding; see image/spans.hpp); counts rect.area() encoded pixels and one
/// "code" per row plus two per span (matching its 2-byte units so the cost
/// model's R_code term stays comparable with the RLE methods).
[[nodiscard]] img::SpanImage encode_spans(const img::Image& image, const img::Rect& rect,
                                          Counters& counters);

/// Append a SpanImage (rows, spans, pixels — rect is shipped separately).
void pack_spans(const img::SpanImage& spans, img::PackBuffer& buf);

// The WireRect-then-payload sequences BSBR/BSBRC/BSBRS/Fold ship. One shared
// copy keeps the header handling identical across every method that ships
// a rectangle.

/// BSBR wire format: 8 B WireRect, then the rectangle's raw pixels (nothing
/// when the rectangle is empty). Adds rect.area() to pixels_sent.
void pack_raw_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters);

/// BSBRC wire format: 8 B WireRect, then the rectangle's row-major RLE
/// (codes + non-blank pixels). Adds the non-blank count to pixels_sent.
void pack_rle_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters);

/// BSBRS wire format: 8 B WireRect, then the rectangle's scanline spans.
void pack_span_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                    Counters& counters);

// ---- streaming views (what every decode reads) -----------------------------
// The codecs' decoders blend straight out of the receive buffer, so instead
// of materializing img::Rle / img::SpanImage (allocating and copying codes
// and pixels) they take zero-copy *views* of the payload. Validation is the
// same as the reference parsers' — truncation, overshooting code
// totals, out-of-frame rectangles and out-of-rect spans all throw
// img::DecodeError before any pixel is touched. Pixel payloads land 2-mod-4
// whenever an odd number of 2-byte codes precedes them; a misaligned section
// is copied once into the caller's bounce vector. The per-message reference
// decoders these views are held to live with the tests
// (tests/reference_decoders.hpp).

/// Parse an 8-byte wire rectangle and validate it against `bounds`: the
/// rectangle must be empty or well-formed and fully inside `bounds`.
/// Throws img::DecodeError otherwise (a corrupted or hostile header must
/// not drive out-of-bounds pixel writes in the compositing loops).
[[nodiscard]] img::Rect parse_rect(img::UnpackBuffer& buf, const img::Rect& bounds);

/// Reinterpret a borrowed wire section as `T[count]`, bouncing through
/// `bounce` when the in-buffer address is not aligned for T. The returned
/// pointer aliases either the message or the bounce vector.
template <typename T>
const T* typed_view(std::span<const std::byte> bytes, std::size_t count,
                    std::vector<T>& bounce) {
  if ((reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T)) == 0) {
    return reinterpret_cast<const T*>(bytes.data());
  }
  bounce.resize(count);
  if (count != 0) std::memcpy(bounce.data(), bytes.data(), count * sizeof(T));
  return bounce.data();
}

/// Zero-copy view of a pack_rle message: codes + payload, still in `buf`.
struct RleView {
  const std::uint16_t* codes = nullptr;
  std::size_t ncodes = 0;
  const img::Pixel* pixels = nullptr;
  std::int64_t non_blank = 0;  ///< total payload pixels (sum of non-blank runs)
};

/// Parse an RLE view for `expected_length` sequence elements. Consumes the
/// message bytes from `buf`; `pixel_bounce`/`code_bounce` back misaligned
/// sections and must outlive every use of the view.
[[nodiscard]] RleView parse_rle_view(img::UnpackBuffer& buf, std::int64_t expected_length,
                                     std::vector<img::Pixel>& pixel_bounce,
                                     std::vector<std::uint16_t>& code_bounce);

/// Zero-copy view of a pack_spans message for a known rectangle.
struct SpanView {
  const std::uint16_t* row_counts = nullptr;  ///< rect.height() entries
  const img::Span* spans = nullptr;
  std::size_t nspans = 0;
  const img::Pixel* pixels = nullptr;
  std::int64_t non_blank = 0;
};

/// Parse a span view for `rect` (the reference parse_spans's validation).
[[nodiscard]] SpanView parse_spans_view(img::UnpackBuffer& buf, const img::Rect& rect,
                                        std::vector<img::Pixel>& pixel_bounce);

// ---- row-span image codec --------------------------------------------------
// The lossless format of the final image's byte path: core::gather_final's
// rectangle pieces and pvr::write_image's worker image reports. Per row of
// the rectangle, the span between its first and last pixel whose 16 bytes
// are not all zero; then those spans' pixels verbatim, row after row. The
// test is on bytes, not img::is_blank, so a pixel with alpha 0 and a
// non-zero colour, a -0.0 or a NaN payload still round-trips. Wire bytes:
// exactly 8 per row plus 16 per span pixel.

/// One row's entry of the span table: `length` pixels from rect.x0 +
/// `offset`; {0, 0} for a row whose bytes are all zero.
struct RowSpan {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(RowSpan) == 8, "a row costs 8 bytes on the wire");

/// Append the row-span encoding of `rect` of `image` to `buf`: the span
/// table (rect.height() entries), then the span pixels.
void pack_row_spans(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf);

/// Decode a pack_row_spans message of `rect` from `buf` into `out`, whose
/// pixels over `rect` must be zero (a freshly allocated image): pixels
/// outside the spans are left as they are. Throws img::DecodeError before
/// any pixel is written when `rect` leaves `out`, a span leaves `rect` or
/// the buffer is short.
void unpack_row_spans(img::UnpackBuffer& buf, const img::Rect& rect, img::Image& out);

}  // namespace slspvr::core::wire
