#include "core/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "core/worker_pool.hpp"
#include "image/kernels.hpp"

namespace slspvr::core {

namespace {

/// Split an interleaved progression `radix` ways: balanced keeps every part
/// evenly spread (stride multiplies — InterleavedRange::split at radix 2);
/// contiguous takes consecutive index blocks with ceil boundaries.
[[nodiscard]] std::vector<img::InterleavedRange> split_range_parts(
    const img::InterleavedRange& range, int radix, SplitRule split) {
  std::vector<img::InterleavedRange> parts(static_cast<std::size_t>(radix));
  if (split == SplitRule::kContiguous) {
    for (int j = 0; j < radix; ++j) {
      const std::int64_t c0 = (range.count * j + radix - 1) / radix;
      const std::int64_t c1 = (range.count * (j + 1) + radix - 1) / radix;
      parts[static_cast<std::size_t>(j)] =
          img::InterleavedRange{range.offset + c0 * range.stride, range.stride, c1 - c0};
    }
  } else {
    for (int j = 0; j < radix; ++j) {
      parts[static_cast<std::size_t>(j)] =
          img::InterleavedRange{range.offset + j * range.stride, range.stride * radix,
                                (range.count + radix - 1 - j) / radix};
    }
  }
  return parts;
}

/// The calling PE thread's snapshot sink (null = retention off). Genuinely
/// per-PE-thread (not per pool worker): only the rank's own thread walks the
/// stage loop; pool workers never consult it.
thread_local StageSnapshotSink* g_stage_retention = nullptr;

/// Band-parallel "own contribution" blend of a depth-order rect stage:
/// result = result OVER image inside `rect`, row bands fanned across the
/// pool. Same per-pixel arithmetic as img::composite_region (which this
/// replaces on the engine path); charges rect.area() over ops like it.
void composite_own_rect(WorkerPool& pool, img::Image& result, const img::Image& image,
                        const img::Rect& rect, Counters& counters) {
  if (rect.empty()) return;
  const int nworkers = pool.workers();
  pool.run([&](int w) {
    const ChunkBounds band = chunk_bounds(rect.height(), nworkers, w);
    for (std::int64_t y = band.first; y < band.last; ++y) {
      const int row = rect.y0 + static_cast<int>(y);
      img::kern::composite_span(&result.at(rect.x0, row), &image.at(rect.x0, row),
                                rect.width(), /*incoming_in_front=*/false);
    }
  });
  counters.over_ops += rect.area();
}

/// Band-parallel "own contribution" blend of a depth-order scalar stage:
/// gather both strided progressions contiguous (per-worker staging), blend
/// with the span kernel, scatter back — same arithmetic/order as the
/// historical per-pixel loop, batched and banded.
void composite_own_range(WorkerPool& pool, img::Image& result, const img::Image& image,
                         const img::InterleavedRange& keep, Counters& counters) {
  const int nworkers = pool.workers();
  pool.run([&](int w) {
    const ChunkBounds band = chunk_bounds(keep.count, nworkers, w);
    if (band.count() == 0) return;
    EngineScratch& scratch = pool.scratch(w);
    const auto n = static_cast<std::size_t>(band.count());
    if (scratch.staging.size() < n) scratch.staging.resize(n);
    if (scratch.staging2.size() < n) scratch.staging2.resize(n);
    const std::int64_t offset = keep.offset + band.first * keep.stride;
    img::kern::gather_strided(result.pixels().data(), offset, keep.stride, band.count(),
                              scratch.staging.data());
    img::kern::gather_strided(image.pixels().data(), offset, keep.stride, band.count(),
                              scratch.staging2.data());
    img::kern::composite_span(scratch.staging.data(), scratch.staging2.data(), band.count(),
                              /*incoming_in_front=*/false);
    img::kern::scatter_strided(scratch.staging.data(), band.count(), result.pixels().data(),
                               offset, keep.stride);
  });
  counters.over_ops += keep.count;
}

/// SoA compact-and-blend of one BSLC stage: gather the kept element-space
/// progression of `elems` contiguous into `dst` (the compaction) and, when a
/// message arrived, blend its RLE payload over `dst` in place. Both steps
/// band across the pool; each element's gather and blend arithmetic is
/// exactly the reference composite_rle_strided's
/// (tests/reference_decoders.hpp), so the compacted array equals the frame
/// values the in-place engine would hold at those positions.
/// Returns the number of pixels composited (the non-blank payload total).
std::int64_t soa_compact_blend(WorkerPool& pool, const img::Pixel* elems,
                               const img::InterleavedRange& ekeep, const wire::RleView* view,
                               bool incoming_in_front, std::vector<img::Pixel>& dst) {
  dst.resize(static_cast<std::size_t>(ekeep.count));
  if (ekeep.count == 0) return 0;
  const int nworkers = pool.workers();
  std::vector<img::kern::RleCursor> cursors(static_cast<std::size_t>(nworkers));
  if (view != nullptr) {
    img::kern::RleCursor cur;
    std::int64_t at = 0;
    for (int w = 0; w < nworkers; ++w) {
      const ChunkBounds band = chunk_bounds(ekeep.count, nworkers, w);
      img::kern::rle_skip(view->codes, view->ncodes, cur, band.first - at);
      at = band.first;
      cursors[static_cast<std::size_t>(w)] = cur;
    }
  }
  std::vector<std::int64_t> composited(static_cast<std::size_t>(nworkers), 0);
  pool.run([&](int w) {
    const ChunkBounds band = chunk_bounds(ekeep.count, nworkers, w);
    if (band.count() == 0) return;
    img::kern::gather_strided(elems, ekeep.offset + band.first * ekeep.stride, ekeep.stride,
                              band.count(), dst.data() + band.first);
    if (view != nullptr) {
      img::kern::RleCursor cur = cursors[static_cast<std::size_t>(w)];
      // width == row_stride degenerates composite_rle_span to one contiguous
      // span over dst — the SoA case.
      composited[static_cast<std::size_t>(w)] = img::kern::composite_rle_span(
          dst.data(), band.first, ekeep.count, ekeep.count, view->codes, view->ncodes,
          view->pixels, cur, band.count(), incoming_in_front);
    }
  });
  std::int64_t total = 0;
  for (const std::int64_t c : composited) total += c;
  return total;
}

}  // namespace

void set_stage_retention(StageSnapshotSink* sink) noexcept { g_stage_retention = sink; }

StageSnapshotSink* stage_retention() noexcept { return g_stage_retention; }

Ownership plan_composite(const ExchangePlan& plan, const PayloadCodec& codec,
                         TrackerKind tracker_kind, mp::Comm& comm, img::Image& image,
                         const SwapOrder& order, Counters& counters, EngineContext& engine) {
  // Exclusive hold for the whole stage loop: a second frame passing the
  // same context fails deterministically instead of racing on scratch.
  const EngineContext::UseGuard exclusive(engine);
  const int rank = comm.rank();
  if (plan.ranks != comm.size()) {
    throw std::invalid_argument("plan_composite: plan is for " + std::to_string(plan.ranks) +
                                " ranks, communicator has " + std::to_string(comm.size()));
  }
  if (plan.split == SplitRule::kRing) {
    throw std::logic_error("plan_composite: ring plans are schedule-only");
  }
  const bool scalar = codec.scalar();
  if (scalar &&
      (plan.split != SplitRule::kBalanced && plan.split != SplitRule::kContiguous)) {
    throw std::invalid_argument("plan_composite: scalar codec " + std::string(codec.name()) +
                                " needs a balanced or contiguous split");
  }
  if (!scalar && plan.split == SplitRule::kContiguous) {
    throw std::invalid_argument("plan_composite: contiguous splits are scalar-only");
  }

  WorkerPool& pool = engine.pool();

  img::Rect region = image.bounds();
  img::InterleavedRange range = img::InterleavedRange::whole(image.pixel_count());
  // Only sparse rect codecs carry a tracked rectangle (and pay its scan).
  const bool clip_parts = !scalar && codec.tracks_rect();
  RegionTracker tracker(clip_parts ? tracker_kind : TrackerKind::kNone);
  if (clip_parts) tracker.init(image, counters);

  img::PackBuffer& buf = pool.scratch(0).pack;

  // BSLC SoA fast path (scalar, pairwise, fanned out): keep the progression
  // compacted contiguous in scratch between stages instead of strided across
  // the whole frame. Encode reads one dense array; decode compacts and
  // blends in one banded pass. The compaction pass touches every kept
  // element (blank or not), which only pays off when its bands
  // actually run in parallel — with a 1-wide pool the in-place strided walk
  // touches strictly less memory, so SoA engages only for wider pools.
  // `elems`/`ecount` track the compacted progression (initially the frame
  // itself: offset 0, stride 1); `range` still tracks the frame-space
  // ownership descriptor for the final scatter and the returned Ownership.
  // Byte-identical wire bytes, counters and owned pixels — only where
  // intermediates live changes.
  const bool soa = scalar && plan.front == FrontRule::kSwapBit && pool.workers() > 1;
  const img::Pixel* elems = image.pixels().data();
  std::int64_t ecount = image.pixel_count();
  std::vector<img::Pixel>* soa_buf = nullptr;  // null = `elems` is the frame

  const int stages = plan.stages();
  for (int st = 0; st < stages; ++st) {
    const RankStage& rs =
        plan.per_rank[static_cast<std::size_t>(rank)][static_cast<std::size_t>(st)];
    if (rs.sends.empty() && rs.recv_peers.empty()) continue;  // retired rank
    comm.set_stage(st + 1);
    const int tag = st + 1;

    if (soa) {
      // Element-space split: part j of {0,1,ecount} selects exactly the
      // elements frame-space part j of `range` selects, because compaction
      // preserved progression order.
      const std::vector<img::InterleavedRange> eparts =
          split_range_parts(img::InterleavedRange{0, 1, ecount}, rs.radix, plan.split);
      for (const PartSend& ps : rs.sends) {
        buf.clear();
        const img::Rle rle = wire::encode_strided_base(
            elems, eparts[static_cast<std::size_t>(ps.part)], counters);
        counters.pixels_sent += rle.non_blank_count();
        buf.reserve(buf.size() + static_cast<std::size_t>(rle.wire_bytes()));
        wire::pack_rle(rle, buf);
        comm.send(ps.peer, tag, buf.bytes());
      }
      if (rs.recv_peers.size() > 1) {
        throw std::logic_error("plan_composite: kSwapBit stages receive from one peer");
      }
      if (rs.keep >= 0) {
        const img::InterleavedRange ekeep = eparts[static_cast<std::size_t>(rs.keep)];
        std::vector<img::Pixel>& dst = (soa_buf == &pool.scratch(0).soa_a)
                                           ? pool.scratch(0).soa_b
                                           : pool.scratch(0).soa_a;
        if (rs.recv_peers.empty()) {
          soa_compact_blend(pool, elems, ekeep, nullptr, false, dst);
        } else {
          const bool in_front = order.incoming_in_front(rank, st);
          const auto received = comm.recv(rs.recv_peers.front(), tag);
          img::UnpackBuffer in(received);
          EngineScratch& s0 = pool.scratch(0);
          const wire::RleView view =
              wire::parse_rle_view(in, ekeep.count, s0.bounce, s0.code_bounce);
          const std::int64_t composited =
              soa_compact_blend(pool, elems, ekeep, &view, in_front, dst);
          counters.over_ops += composited;
          counters.pixels_received += composited;
        }
        elems = dst.data();
        ecount = ekeep.count;
        soa_buf = &dst;
        range = split_range_parts(range, rs.radix, plan.split)[static_cast<std::size_t>(rs.keep)];
      } else {
        // Drained the receives above (none in practice: keep < 0 ranks only
        // send); ownership collapses to the empty progression.
        elems = nullptr;
        ecount = 0;
        range = img::InterleavedRange{0, 1, 0};
      }
      counters.mark_stage();
      continue;
    }

    std::vector<img::Rect> rparts;
    std::vector<img::InterleavedRange> sparts;
    if (scalar) {
      sparts = split_range_parts(range, rs.radix, plan.split);
    } else if (plan.split == SplitRule::kBand) {
      rparts = band_parts(image.bounds(), rs.radix);
    } else if (plan.split == SplitRule::kGather) {
      rparts = {region};  // part 0 is the whole accumulated region
    } else {
      rparts = split_rect_parts(region, rs.radix);
    }
    const img::Rect keep_rect =
        (!scalar && rs.keep >= 0) ? rparts[static_cast<std::size_t>(rs.keep)] : img::kEmptyRect;

    // Sends first, in plan order (sends are eager, so this cannot deadlock
    // and matches the event order derive_schedule emits).
    for (const PartSend& ps : rs.sends) {
      buf.clear();
      if (scalar) {
        codec.encode_range(image, sparts[static_cast<std::size_t>(ps.part)], buf, counters);
      } else {
        const img::Rect part = rparts[static_cast<std::size_t>(ps.part)];
        codec.encode_rect(image, part, tracker.clip(part), buf, counters);
      }
      comm.send(ps.peer, tag, buf.bytes());
    }

    img::Rect recv_union = img::kEmptyRect;
    if (plan.front == FrontRule::kSwapBit) {
      // Pairing on rank bit `st`: composite the single partner's payload in
      // place, front side decided by the order's per-bit rule.
      if (rs.recv_peers.size() > 1) {
        throw std::logic_error("plan_composite: kSwapBit stages receive from one peer");
      }
      for (const int peer : rs.recv_peers) {
        const bool in_front = order.incoming_in_front(rank, st);
        const auto received = comm.recv(peer, tag);
        img::UnpackBuffer in(received);
        DecodeSink sink{image, in_front, counters, engine};
        if (scalar) {
          codec.decode_range(sink, sparts[static_cast<std::size_t>(rs.keep)], in);
        } else {
          recv_union =
              img::bounding_union(recv_union, codec.decode_rect(sink, keep_rect, in));
        }
      }
    } else {
      // Depth-order grouping: buffer every contribution, then composite the
      // kept part front-to-back (left-associative, like the reference).
      std::vector<std::vector<std::byte>> inbox;
      inbox.reserve(rs.recv_peers.size());
      for (const int peer : rs.recv_peers) inbox.push_back(comm.recv(peer, tag));

      img::Image& result = engine.scratch_frame(image.width(), image.height());
      std::size_t composited = 0;
      for (const int contributor : order.front_to_back) {
        if (contributor == rank) {
          if (scalar) {
            composite_own_range(pool, result, image, sparts[static_cast<std::size_t>(rs.keep)],
                                counters);
          } else {
            composite_own_rect(pool, result, image, keep_rect, counters);
          }
          ++composited;
          continue;
        }
        const auto slot = std::find(rs.recv_peers.begin(), rs.recv_peers.end(), contributor);
        if (slot == rs.recv_peers.end()) continue;
        img::UnpackBuffer in(inbox[static_cast<std::size_t>(slot - rs.recv_peers.begin())]);
        // `result` holds everything nearer, so the incoming pixels are
        // behind: local over incoming.
        DecodeSink sink{result, /*incoming_in_front=*/false, counters, engine};
        if (scalar) {
          codec.decode_range(sink, sparts[static_cast<std::size_t>(rs.keep)], in);
        } else {
          recv_union =
              img::bounding_union(recv_union, codec.decode_rect(sink, keep_rect, in));
        }
        ++composited;
      }
      if (composited != rs.recv_peers.size() + 1) {
        throw std::invalid_argument(
            "plan_composite: order.front_to_back does not cover this stage's group");
      }
      // Swap rather than move: the retired buffer becomes the next stage's
      // (pre-owned) scratch frame instead of being freed.
      std::swap(image, result);
    }

    if (clip_parts) tracker.after_stage(image, keep_rect, recv_union, counters);
    if (scalar) {
      range = rs.keep >= 0 ? sparts[static_cast<std::size_t>(rs.keep)]
                           : img::InterleavedRange{0, 1, 0};
    } else {
      region = rs.keep >= 0 ? keep_rect : img::kEmptyRect;
    }
    counters.mark_stage();
    // Mid-frame repair retention: after each completed stage of a balanced
    // rect plan, hand the installed sink the partial this rank now owns.
    if (!scalar && plan.split == SplitRule::kBalanced && g_stage_retention != nullptr) {
      g_stage_retention->on_stage_complete(rank, st + 1, image, region);
    }
  }
  comm.set_stage(0);

  // SoA epilogue: the owned progression lives compacted in scratch; scatter
  // it to its frame-space positions so gather_final (which reads only the
  // ownership range) sees the same pixels the in-place engine produces.
  // Pixels outside the owned range are not restored — nothing reads them.
  if (soa && soa_buf != nullptr) {
    img::kern::scatter_strided(elems, ecount, image.pixels().data(), range.offset,
                               range.stride);
  }

  if (plan.split == SplitRule::kGather) return Ownership::full_at_root();
  if (scalar) return Ownership::interleaved(range);
  return Ownership::full_rect(region);
}

}  // namespace slspvr::core
