#include "core/parallel_pipeline.hpp"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "image/pack.hpp"

namespace slspvr::core {

namespace {

/// Direct pixel forwarding record: explicit coordinates + value (20 bytes),
/// the scheme Sec. 2 credits to Lee / Cox & Hanrahan.
struct PixelRecord {
  std::int16_t x = 0;
  std::int16_t y = 0;
  img::Pixel value;
};
static_assert(sizeof(PixelRecord) == 20, "explicit-xy record is 20 bytes on the wire");

void scan_to_records(const img::Image& buffer, const img::Rect& band,
                     std::vector<PixelRecord>& out) {
  for (int y = band.y0; y < band.y1; ++y) {
    for (int x = band.x0; x < band.x1; ++x) {
      const img::Pixel& p = buffer.at(x, y);
      if (!img::is_blank(p)) {
        out.push_back(PixelRecord{static_cast<std::int16_t>(x), static_cast<std::int16_t>(y), p});
      }
    }
  }
}

void place_records(img::Image& buffer, std::span<const PixelRecord> records) {
  for (const PixelRecord& r : records) buffer.at(r.x, r.y) = r.value;
}

}  // namespace

Ownership ParallelPipelineCompositor::composite(mp::Comm& comm, img::Image& image,
                                                const SwapOrder& order, Counters& counters,
                                                EngineContext& /*engine*/) const {
  const int ranks = comm.size();
  const int rank = comm.rank();
  if (ranks == 1) return Ownership::full_rect(image.bounds());

  // Logical ring position = depth position (0 = front-most).
  const int q = order.depth_position(rank);
  const int succ = order.front_to_back[static_cast<std::size_t>((q + 1) % ranks)];
  const int pred = order.front_to_back[static_cast<std::size_t>((q - 1 + ranks) % ranks)];

  // Two partial composites for the band currently passing through us:
  // segment A = logical procs [band .. P-1], segment B = [0 .. band-1].
  img::Image partial_a(image.width(), image.height());
  img::Image partial_b(image.width(), image.height());

  img::Image result(image.width(), image.height());
  img::Rect my_band;
  const std::vector<img::Rect> bands = band_parts(image.bounds(), ranks);

  for (int s = 0; s < ranks; ++s) {
    const int band_index = ((q - s) % ranks + ranks) % ranks;
    const img::Rect& band = bands[static_cast<std::size_t>(band_index)];

    if (s == 0) {
      partial_a.clear();
      partial_b.clear();
      // Seed segment A with our own contribution (q == band_index here),
      // a straight row copy.
      for (int y = band.y0; y < band.y1; ++y) {
        std::memcpy(&partial_a.at(band.x0, y), &image.at(band.x0, y),
                    static_cast<std::size_t>(band.width()) * sizeof(img::Pixel));
      }
    } else {
      comm.set_stage(s);
      const auto bytes = comm.recv(pred, s);
      img::UnpackBuffer in(bytes);
      const auto count_a = in.get<std::int32_t>();
      const auto count_b = in.get<std::int32_t>();
      const auto recs_a = in.get_vector<PixelRecord>(static_cast<std::size_t>(count_a));
      const auto recs_b = in.get_vector<PixelRecord>(static_cast<std::size_t>(count_b));
      counters.pixels_received += count_a + count_b;
      partial_a.clear();
      partial_b.clear();
      place_records(partial_a, recs_a);
      place_records(partial_b, recs_b);

      // Composite our own non-blank pixels of this band. We are deeper than
      // everything already in our segment's partial, so partial stays front.
      img::Image& segment = q >= band_index ? partial_a : partial_b;
      for (int y = band.y0; y < band.y1; ++y) {
        for (int x = band.x0; x < band.x1; ++x) {
          const img::Pixel& own = image.at(x, y);
          if (img::is_blank(own)) continue;
          img::Pixel& acc = segment.at(x, y);
          acc = img::over(acc, own);
          ++counters.over_ops;
        }
      }
    }

    if (s < ranks - 1) {
      // Forward the band's partials to the ring successor.
      std::vector<PixelRecord> recs_a, recs_b;
      scan_to_records(partial_a, band, recs_a);
      scan_to_records(partial_b, band, recs_b);
      img::PackBuffer buf;
      buf.put(static_cast<std::int32_t>(recs_a.size()));
      buf.put(static_cast<std::int32_t>(recs_b.size()));
      buf.put_span(std::span<const PixelRecord>(recs_a));
      buf.put_span(std::span<const PixelRecord>(recs_b));
      counters.pixels_sent += static_cast<std::int64_t>(recs_a.size() + recs_b.size());
      comm.set_stage(s + 1);
      comm.send(succ, s + 1, buf.bytes());
    } else {
      // Band retired at its owner: final = B over A (B is the front segment).
      my_band = band;
      for (int y = band.y0; y < band.y1; ++y) {
        for (int x = band.x0; x < band.x1; ++x) {
          const img::Pixel& front = partial_b.at(x, y);
          const img::Pixel& back = partial_a.at(x, y);
          if (img::is_blank(front) && img::is_blank(back)) continue;
          result.at(x, y) = img::over(front, back);
          ++counters.over_ops;
        }
      }
    }
    // Stage alignment for the timeline model: messages of ring step s carry
    // stage tag s, and the work of step s (receive + composite) belongs to
    // that same stage; step 0 only seeds local buffers (no counted work).
    if (s >= 1) counters.mark_stage();
  }
  comm.set_stage(0);

  image = std::move(result);
  return Ownership::full_rect(my_band);
}


check::CommSchedule ParallelPipelineCompositor::schedule(int ranks) const {
  // Two partial segments of one band, as 20-byte explicit-xy records behind
  // the two 4-byte counts. The composite above keeps its two-segment ring
  // loop, but its exchange structure is the shared ring plan.
  return derive_schedule(ring_plan(ranks),
                         WireTraits{check::PayloadClass::kNonBlank, 8, 40, 0, false}, name());
}

}  // namespace slspvr::core
