#include "core/compositor.hpp"

#include <cstdint>

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

constexpr int kGatherTag = 900;

struct GatherHeader {
  std::int32_t kind = 0;
  std::int32_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  std::int64_t offset = 0, stride = 1, count = 0;
};

}  // namespace

img::Image gather_final(mp::Comm& comm, const img::Image& local, const Ownership& ownership,
                        int root) {
  comm.set_stage(0);  // gather traffic is outside the measured phase

  img::PackBuffer buf;
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
      wire::pack_rect_pixels(local, r, buf);
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

  if (comm.rank() != root) {
    comm.send(root, kGatherTag, buf.bytes());
    return {};
  }

  img::Image out(local.width(), local.height());
  const auto place = [&](std::span<const std::byte> bytes, const img::Image* own) {
    img::UnpackBuffer in(bytes);
    const auto h = in.get<GatherHeader>();
    switch (static_cast<Ownership::Kind>(h.kind)) {
      case Ownership::Kind::kRect: {
        const img::Rect r{h.x0, h.y0, h.x1, h.y1};
        // Each placed row is written exactly once and never re-read this
        // frame, so stream it straight from the message with non-temporal
        // stores (44-byte header keeps the payload 4-aligned for Pixel; fall
        // back to the copying read if a transport ever hands us worse).
        for (int y = r.y0; y < r.y1; ++y) {
          const auto n = static_cast<std::size_t>(r.width());
          const std::span<const std::byte> row_bytes = in.get_bytes(n * sizeof(img::Pixel));
          if (reinterpret_cast<std::uintptr_t>(row_bytes.data()) % alignof(img::Pixel) == 0) {
            img::kern::copy_span_nt(&out.at(r.x0, y),
                                    reinterpret_cast<const img::Pixel*>(row_bytes.data()),
                                    r.width());
          } else {
            std::vector<img::Pixel> row(n);
            std::memcpy(row.data(), row_bytes.data(), n * sizeof(img::Pixel));
            img::kern::copy_span_nt(&out.at(r.x0, y), row.data(), r.width());
          }
        }
        break;
      }
      case Ownership::Kind::kInterleaved: {
        const img::InterleavedRange range{h.offset, h.stride, h.count};
        for (std::int64_t i = 0; i < range.count; ++i) {
          out.at_index(range.index(i)) = in.get<img::Pixel>();
        }
        break;
      }
      case Ownership::Kind::kFullAtRoot:
        // The root already holds the whole image: stream it into the output
        // frame (freshly allocated, write-once) instead of a caching copy.
        if (own != nullptr) {
          img::kern::copy_span_nt(out.pixels().data(), own->pixels().data(),
                                  out.pixel_count());
        }
        break;
    }
  };

  place(buf.bytes(), &local);
  for (int r = 0; r < comm.size(); ++r) {
    if (r == root) continue;
    const auto bytes = comm.recv(r, kGatherTag);
    place(bytes, nullptr);
  }
  return out;
}

}  // namespace slspvr::core
