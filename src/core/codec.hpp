// PayloadCodec: what bytes ride a compositing exchange.
//
// The paper's methods differ along exactly this axis — BS ships raw region
// pixels, BSBR clips to a bounding rectangle, BSBRC run-length encodes the
// rectangle, BSLC run-length encodes an interleaved progression, BSBRS uses
// scanline spans. Each codec packages one encode/decode/blend + counter
// accounting pair (previously duplicated across the bs*.cpp stage loops) and
// publishes its WireTraits so derive_schedule can bound its messages.
//
// Rect codecs encode a rectangular part, optionally pre-clipped by a
// RegionTracker; scalar codecs encode an interleaved pixel progression.
// Codecs are stateless: codec_for returns shared singletons.
#pragma once

#include <string_view>

#include "core/counters.hpp"
#include "core/plan.hpp"
#include "image/image.hpp"
#include "image/interleave.hpp"
#include "image/pack.hpp"

namespace slspvr::core {

enum class CodecKind {
  kFullPixel,       ///< raw region pixels, no header (BS, dense direct send)
  kBoundingRect,    ///< WireRect + raw clipped pixels (BSBR, sparse DS)
  kRleRect,         ///< WireRect + row-major RLE of the rectangle (BSBRC)
  kSpanRect,        ///< WireRect + scanline spans (BSBRS)
  kInterleavedRle,  ///< RLE of an interleaved progression, scalar (BSLC)
};

class EngineContext;  // core/worker_pool.hpp

/// Where a decode blends: the frame to blend into, the blend order, the
/// counters to charge, and the per-rank engine context supplying the worker
/// pool + scratch for band-parallel blending (a 1-wide pool runs inline on
/// the caller).
struct DecodeSink {
  img::Image& image;
  bool incoming_in_front;
  Counters& counters;
  EngineContext& engine;
};

class PayloadCodec {
 public:
  virtual ~PayloadCodec() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Wire-format constants for derive_schedule's symbolic size bounds.
  [[nodiscard]] virtual WireTraits traits() const = 0;

  /// Scalar codecs move interleaved progressions, not rectangles.
  [[nodiscard]] virtual bool scalar() const { return false; }

  /// Whether the codec benefits from a RegionTracker clip. The engine only
  /// clips outgoing parts (and maintains the tracker) when this is true —
  /// dense codecs must receive the whole part or the decoder underruns.
  [[nodiscard]] virtual bool tracks_rect() const { return false; }

  /// Encode `part` (pre-clipped to `clip` for tracking codecs) into `buf`.
  virtual void encode_rect(const img::Image& image, const img::Rect& part,
                           const img::Rect& clip, img::PackBuffer& buf,
                           Counters& counters) const;

  /// Decode one message covering `part` and composite it into the sink's
  /// frame straight out of the receive buffer (no unpacked intermediate),
  /// band-parallel across the sink's engine pool by rectangle rows. Returns
  /// the rectangle the message actually covered (for trackers). Byte- and
  /// counter-identical to the tests' per-message reference decoders
  /// (tests/reference_decoders.hpp) at any worker count: bands only
  /// repartition who blends which pixels, never a pixel's arithmetic or its
  /// order.
  virtual img::Rect decode_rect(DecodeSink& sink, const img::Rect& part,
                                img::UnpackBuffer& in) const;

  /// Scalar variants over interleaved progressions; decode_range bands by
  /// element chunks.
  virtual void encode_range(const img::Image& image, const img::InterleavedRange& part,
                            img::PackBuffer& buf, Counters& counters) const;
  virtual void decode_range(DecodeSink& sink, const img::InterleavedRange& part,
                            img::UnpackBuffer& in) const;
};

/// Shared stateless instance of each codec.
[[nodiscard]] const PayloadCodec& codec_for(CodecKind kind);

[[nodiscard]] std::string_view codec_name(CodecKind kind);

}  // namespace slspvr::core
