#include "core/compositor.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "core/worker_pool.hpp"
#include "image/kernels.hpp"
#include "image/pack.hpp"

namespace slspvr::core {

Ownership Compositor::composite(mp::Comm& comm, img::Image& image, const SwapOrder& order,
                                Counters& counters) const {
  EngineContext engine;  // single worker — the default
  return composite(comm, image, order, counters, engine);
}

namespace {

// Every gather piece starts with this header. Packed to 4 bytes it has no
// padding, so every header byte on the wire is defined and the payload
// after it stays 4-aligned for Pixel.
#pragma pack(push, 4)
struct GatherHeader {
  std::int32_t kind = 0;
  std::int32_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  std::int64_t offset = 0, stride = 1, count = 0;
};
#pragma pack(pop)
static_assert(sizeof(GatherHeader) == check::kGatherHeaderBytes);
static_assert(sizeof(wire::RowSpan) == check::kGatherRowBytes);

/// Whether every element of `range` indexes a pixel of a `pixels`-pixel frame.
bool range_inside(const img::InterleavedRange& range, std::int64_t pixels) {
  if (range.count == 0) return true;
  return range.count > 0 && range.offset >= 0 && range.offset < pixels && range.stride >= 1 &&
         range.count - 1 <= (pixels - 1 - range.offset) / range.stride;
}

}  // namespace

void pack_gather_piece(const img::Image& local, const Ownership& ownership,
                       img::PackBuffer& buf) {
  GatherHeader header;
  header.kind = static_cast<std::int32_t>(ownership.kind);
  switch (ownership.kind) {
    case Ownership::Kind::kRect: {
      const img::Rect& r = ownership.rect;
      header.x0 = r.x0;
      header.y0 = r.y0;
      header.x1 = r.x1;
      header.y1 = r.y1;
      buf.put(header);
      wire::pack_row_spans(local, r, buf);
      break;
    }
    case Ownership::Kind::kInterleaved: {
      header.offset = ownership.range.offset;
      header.stride = ownership.range.stride;
      header.count = ownership.range.count;
      buf.put(header);
      for (std::int64_t i = 0; i < ownership.range.count; ++i) {
        buf.put(local.at_index(ownership.range.index(i)));
      }
      break;
    }
    case Ownership::Kind::kFullAtRoot:
      buf.put(header);  // no payload: either we are root or we own nothing
      break;
  }
}

void place_gather_piece(std::span<const std::byte> bytes, img::Image& out) {
  img::UnpackBuffer in(bytes);
  const auto h = in.get<GatherHeader>();
  switch (static_cast<Ownership::Kind>(h.kind)) {
    case Ownership::Kind::kRect:
      wire::unpack_row_spans(in, img::Rect{h.x0, h.y0, h.x1, h.y1}, out);
      return;
    case Ownership::Kind::kInterleaved: {
      const img::InterleavedRange range{h.offset, h.stride, h.count};
      if (!range_inside(range, out.pixel_count())) {
        throw img::DecodeError("place_gather_piece: range {" + std::to_string(range.offset) +
                               ", " + std::to_string(range.stride) + ", " +
                               std::to_string(range.count) + "} escapes the " +
                               std::to_string(out.pixel_count()) + "-pixel frame");
      }
      const auto count = static_cast<std::size_t>(range.count);
      if (count > in.remaining() / sizeof(img::Pixel)) {
        throw img::DecodeError("place_gather_piece: short read (" + std::to_string(count) +
                               " pixels, " + std::to_string(in.remaining()) + " bytes left)");
      }
      std::vector<img::Pixel> bounce;
      const img::Pixel* src =
          wire::typed_view(in.get_bytes(count * sizeof(img::Pixel)), count, bounce);
      img::kern::scatter_strided(src, range.count, out.pixels().data(), range.offset,
                                 range.stride);
      return;
    }
    case Ownership::Kind::kFullAtRoot:
      return;  // header only: the sender owns nothing
  }
  throw img::DecodeError("place_gather_piece: unknown piece kind " + std::to_string(h.kind));
}

img::Image gather_final(mp::Comm& comm, const img::Image& local, const Ownership& ownership,
                        int root) {
  comm.set_stage(0);  // gather traffic is outside the measured phase

  img::PackBuffer buf;
  pack_gather_piece(local, ownership, buf);
  if (comm.rank() != root) {
    comm.send(root, check::kGatherTag, buf.bytes());
    return {};
  }

  // Pieces are disjoint and each writes only its non-zero spans, so the
  // frame starts zeroed and every pixel no span covers stays zero.
  img::Image out(local.width(), local.height());
  if (ownership.kind == Ownership::Kind::kFullAtRoot) {
    // The root already holds the whole image: stream it into the output
    // frame (freshly allocated, write-once) instead of a caching copy.
    img::kern::copy_span_nt(out.pixels().data(), local.pixels().data(), out.pixel_count());
  } else {
    place_gather_piece(buf.bytes(), out);
  }
  for (int r = 0; r < comm.size(); ++r) {
    if (r == root) continue;
    place_gather_piece(comm.recv(r, check::kGatherTag), out);
  }
  return out;
}

}  // namespace slspvr::core
