// Streaming decode→composite identity: the codecs' decode_rect /
// decode_range blend straight out of the receive buffer and promise
// *byte*-identical frames and identical counters to the per-message
// reference decoders (reference_decoders.hpp), which unpack the message
// first and then blend it (the "Legacy" of the case names) — for every
// codec, every part width (including empty and the 0..33 sweep that
// crosses every vector-kernel remainder case), both front orders, any
// worker fan-out, and RLE runs that straddle both kMaxRun escape chains and
// band boundaries. The worker
// fan-out is explicit EngineContext state here — there are no process
// globals to twiddle or restore. The suite closes with whole-frame identity
// of the tile-parallel engine: every paper method at P ∈ {2,4,8} must
// gather the same bytes for workers-per-rank ∈ {1,2,3}.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/binary_tree.hpp"
#include "core/codec.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "core/worker_pool.hpp"
#include "reference_decoders.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
namespace ref = slspvr::testing::ref;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

namespace {

core::EngineConfig engine_config(int workers) {
  core::EngineConfig config;
  config.workers_per_rank = workers;
  return config;
}

/// The reference decode of one `kind` message covering `part`: the
/// unpack-then-blend decoder for that codec's wire format.
img::Rect reference_decode_rect(core::CodecKind kind, img::Image& image, const img::Rect& part,
                                img::UnpackBuffer& in, bool in_front,
                                core::Counters& counters) {
  switch (kind) {
    case core::CodecKind::kFullPixel:
      ref::unpack_composite_rect(image, part, in, in_front, counters);
      return part;
    case core::CodecKind::kBoundingRect:
      return ref::unpack_composite_raw_rect(image, in, image.bounds(), in_front, counters);
    case core::CodecKind::kRleRect:
      return ref::unpack_composite_rle_rect(image, in, image.bounds(), in_front, counters);
    case core::CodecKind::kSpanRect:
      return ref::unpack_composite_span_rect(image, in, image.bounds(), in_front, counters);
    case core::CodecKind::kInterleavedRle:
      break;
  }
  throw std::logic_error("reference_decode_rect: not a rect codec");
}

/// The reference decode of one interleaved-RLE message covering `part`.
void reference_decode_range(img::Image& image, const img::InterleavedRange& part,
                            img::UnpackBuffer& in, bool in_front, core::Counters& counters) {
  const img::Rle incoming = ref::parse_rle(in, part.count);
  ref::composite_rle_strided(image, part, incoming, in_front, counters);
}

/// Byte-exact frame comparison (the streaming decoders promise identity,
/// not tolerance), with a first-differing-pixel report on failure.
void expect_bytes_identical(const img::Image& got, const img::Image& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  if (got.pixel_count() == 0) return;
  if (std::memcmp(got.pixels().data(), want.pixels().data(),
                  static_cast<std::size_t>(got.pixel_count()) * sizeof(img::Pixel)) == 0) {
    return;
  }
  for (std::int64_t i = 0; i < got.pixel_count(); ++i) {
    const img::Pixel& g = got.at_index(i);
    const img::Pixel& w = want.at_index(i);
    ASSERT_EQ(0, std::memcmp(&g, &w, sizeof(img::Pixel)))
        << "first differing pixel at index " << i << ": got (" << g.r << ", " << g.g << ", "
        << g.b << ", " << g.a << ") want (" << w.r << ", " << w.g << ", " << w.b << ", "
        << w.a << ")";
  }
}

/// Encode `part` of a random source, then decode it twice into copies of the
/// same random destination — the wire reference vs the codec's streaming
/// decode_rect through `engine` — and require identical bytes, covered rect,
/// and counters.
void check_rect_codec_identity(core::CodecKind kind, int width, core::EngineContext& engine,
                               bool in_front) {
  constexpr int kHeight = 7;
  const auto seed = static_cast<std::uint32_t>(100 * static_cast<int>(kind) + width);
  const img::Image source = pvr::random_subimage(40, kHeight, 0.45, 77 + seed);
  const img::Image base = pvr::random_subimage(40, kHeight, 0.60, 900 + seed);
  const img::Rect part{3, 0, 3 + width, kHeight};
  const core::PayloadCodec& codec = core::codec_for(kind);

  img::PackBuffer buf;
  core::Counters encode_counters;
  codec.encode_rect(source, part, part, buf, encode_counters);

  img::Image reference = base;
  core::Counters reference_counters;
  img::UnpackBuffer reference_in(buf.bytes());
  const img::Rect reference_rect = reference_decode_rect(kind, reference, part, reference_in,
                                                         in_front, reference_counters);

  img::Image streamed = base;
  core::Counters streamed_counters;
  img::UnpackBuffer streamed_in(buf.bytes());
  core::DecodeSink sink{streamed, in_front, streamed_counters, engine};
  const img::Rect streamed_rect = codec.decode_rect(sink, part, streamed_in);

  EXPECT_EQ(streamed_rect, reference_rect);
  expect_bytes_identical(streamed, reference);
  EXPECT_EQ(streamed_counters.totals(), reference_counters.totals());
}

/// The scalar-codec twin: an interleaved progression of `count` elements at
/// `stride` through a shared source/destination pair.
void check_scalar_codec_identity(std::int64_t count, std::int64_t stride,
                                 core::EngineContext& engine, bool in_front) {
  const auto seed = static_cast<std::uint32_t>(17 * count + stride);
  const img::Image source = pvr::random_subimage(16, 12, 0.45, 31 + seed);
  const img::Image base = pvr::random_subimage(16, 12, 0.60, 500 + seed);
  const img::InterleavedRange part{1, stride, count};
  ASSERT_LE(part.index(count > 0 ? count - 1 : 0), source.pixel_count() - 1);
  const core::PayloadCodec& codec = core::codec_for(core::CodecKind::kInterleavedRle);

  img::PackBuffer buf;
  core::Counters encode_counters;
  codec.encode_range(source, part, buf, encode_counters);

  img::Image reference = base;
  core::Counters reference_counters;
  img::UnpackBuffer reference_in(buf.bytes());
  reference_decode_range(reference, part, reference_in, in_front, reference_counters);

  img::Image streamed = base;
  core::Counters streamed_counters;
  img::UnpackBuffer streamed_in(buf.bytes());
  core::DecodeSink sink{streamed, in_front, streamed_counters, engine};
  codec.decode_range(sink, part, streamed_in);

  expect_bytes_identical(streamed, reference);
  EXPECT_EQ(streamed_counters.totals(), reference_counters.totals());
}

/// An image whose row-major RLE has one blank and one non-blank run, both
/// longer than kern::kMaxRun (65535) — so the wire stream carries zero-length
/// escape codes, and any band partition of a multi-worker decode lands
/// boundaries inside both escape chains.
img::Image long_run_image(int width, int height, int blank_rows, int solid_rows) {
  img::Image image(width, height);
  for (int y = blank_rows; y < blank_rows + solid_rows; ++y) {
    for (int x = 0; x < width; ++x) {
      image.at(x, y) =
          img::Pixel{0.1f + 0.01f * static_cast<float>(x % 7),
                     0.2f + 0.01f * static_cast<float>(y % 5),
                     0.3f + 0.01f * static_cast<float>((x + y) % 3), 0.5f};
    }
  }
  return image;
}

}  // namespace

TEST(StreamingDecode, RectCodecsMatchLegacyAtEveryWidth) {
  core::EngineContext single(engine_config(1));
  core::EngineContext banded(engine_config(3));
  for (const core::CodecKind kind :
       {core::CodecKind::kFullPixel, core::CodecKind::kBoundingRect,
        core::CodecKind::kRleRect, core::CodecKind::kSpanRect}) {
    for (int width = 0; width <= 33; ++width) {
      for (const bool in_front : {false, true}) {
        SCOPED_TRACE(std::string(core::codec_name(kind)) + " width " +
                     std::to_string(width) + (in_front ? " front" : " back"));
        check_rect_codec_identity(kind, width, single, in_front);
        check_rect_codec_identity(kind, width, banded, in_front);
      }
    }
  }
}

TEST(StreamingDecode, ScalarCodecMatchesLegacyAtEveryLength) {
  core::EngineContext single(engine_config(1));
  core::EngineContext banded(engine_config(3));
  for (const std::int64_t stride : {1, 2, 5}) {
    for (std::int64_t count = 0; count <= 33; ++count) {
      for (const bool in_front : {false, true}) {
        SCOPED_TRACE("stride " + std::to_string(stride) + " count " + std::to_string(count) +
                     (in_front ? " front" : " back"));
        check_scalar_codec_identity(count, stride, single, in_front);
        check_scalar_codec_identity(count, stride, banded, in_front);
      }
    }
  }
}

// Runs longer than kMaxRun force zero-length escape codes into the stream;
// with a 3-wide pool over a 400x400 part the band boundaries (ceil thirds of
// 160000 elements) fall inside both the blank chain (68000 blanks, escape at
// 65535) and the non-blank chain (80000 pixels, escape at element 133535) —
// rle_skip must resume mid-chain without desynchronizing code/pixel cursors.
TEST(StreamingDecode, RunsStraddleKMaxRunAndBandBoundaries) {
  core::EngineContext engine(engine_config(3));
  const img::Image source = long_run_image(400, 400, /*blank_rows=*/170, /*solid_rows=*/200);
  const img::Image base = pvr::random_subimage(400, 400, 0.5, 4242);
  const img::Rect part{0, 0, 400, 400};

  for (const bool in_front : {false, true}) {
    SCOPED_TRACE(in_front ? "front" : "back");
    {
      const core::PayloadCodec& codec = core::codec_for(core::CodecKind::kRleRect);
      img::PackBuffer buf;
      core::Counters encode_counters;
      codec.encode_rect(source, part, part, buf, encode_counters);

      img::Image reference = base;
      core::Counters reference_counters;
      img::UnpackBuffer reference_in(buf.bytes());
      (void)reference_decode_rect(core::CodecKind::kRleRect, reference, part, reference_in,
                                  in_front, reference_counters);

      img::Image streamed = base;
      core::Counters streamed_counters;
      img::UnpackBuffer streamed_in(buf.bytes());
      core::DecodeSink sink{streamed, in_front, streamed_counters, engine};
      (void)codec.decode_rect(sink, part, streamed_in);

      expect_bytes_identical(streamed, reference);
      EXPECT_EQ(streamed_counters.totals(), reference_counters.totals());
    }
    {
      const core::PayloadCodec& codec = core::codec_for(core::CodecKind::kInterleavedRle);
      const img::InterleavedRange whole = img::InterleavedRange::whole(source.pixel_count());
      img::PackBuffer buf;
      core::Counters encode_counters;
      codec.encode_range(source, whole, buf, encode_counters);

      img::Image reference = base;
      core::Counters reference_counters;
      img::UnpackBuffer reference_in(buf.bytes());
      reference_decode_range(reference, whole, reference_in, in_front, reference_counters);

      img::Image streamed = base;
      core::Counters streamed_counters;
      img::UnpackBuffer streamed_in(buf.bytes());
      core::DecodeSink sink{streamed, in_front, streamed_counters, engine};
      codec.decode_range(sink, whole, streamed_in);

      expect_bytes_identical(streamed, reference);
      EXPECT_EQ(streamed_counters.totals(), reference_counters.totals());
    }
  }
}

// Whole-frame identity: for every paper method, the gathered frame and the
// per-rank op totals must be byte-for-byte independent of the intra-rank
// worker fan-out. The reference is the historical one-thread-per-rank
// engine (1 worker); every fan-out, a second 1-worker run included, must
// match it.
TEST(StreamingDecode, WholeFrameIdenticalAcrossWorkers) {
  struct MethodCase {
    std::string name;
    const core::Compositor* method;
  };
  const core::BinaryTreeCompositor tree;
  const core::ParallelPipelineCompositor pipeline;
  const std::vector<MethodCase> methods = {
      {"BS", &core::bs()},
      {"BSBR", &core::bsbr()},
      {"BSBRC", &core::bsbrc()},
      {"BSBRS", &core::bsbrs()},
      {"BSLC", &core::bslc()},
      {"BSLC-contig", &core::bslc_noninterleaved()},
      {"BinaryTree", &tree},
      {"DirectSend-sparse", &core::direct_send_sparse()},
      {"Pipeline", &pipeline},
  };


  for (const MethodCase& mc : methods) {
    for (const int ranks : {2, 4, 8}) {
      int levels = 0;
      while ((1 << levels) < ranks) ++levels;
      const auto subimages = make_subimages(ranks, 48, 36, 0.4,
                                            static_cast<std::uint32_t>(7 * ranks + 1));
      const core::SwapOrder order = make_default_order(levels);

      const auto reference = run_method(*mc.method, subimages, order, engine_config(1));

      for (const int workers : {1, 2, 3}) {
        SCOPED_TRACE(mc.name + " P" + std::to_string(ranks) + " workers " +
                     std::to_string(workers));
        const auto got = run_method(*mc.method, subimages, order, engine_config(workers));
        expect_bytes_identical(got.final_image, reference.final_image);
        ASSERT_EQ(got.per_rank.size(), reference.per_rank.size());
        for (std::size_t r = 0; r < got.per_rank.size(); ++r) {
          EXPECT_EQ(got.per_rank[r].totals(), reference.per_rank[r].totals())
              << "rank " << r;
        }
      }
    }
  }
}
