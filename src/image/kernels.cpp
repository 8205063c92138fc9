#include "image/kernels.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(SLSPVR_KERNELS_X86)
#include <immintrin.h>
#define SLSPVR_TARGET_AVX2 __attribute__((target("avx2")))
#endif

// The scalar implementations are the reference oracle: one pixel at a time,
// exactly the historical loops. Keep the optimizer from auto-vectorizing
// them (GCC happily turns them into SSE), both so the oracle's codegen
// matches its definition and so scalar-vs-vector benchmarks compare against
// a genuinely scalar baseline. Identical arithmetic either way — the loops
// carry no cross-iteration dependence the vectorizer could reassociate.
#if defined(__GNUC__) && !defined(__clang__)
#define SLSPVR_SCALAR_REF __attribute__((optimize("no-tree-vectorize")))
#else
#define SLSPVR_SCALAR_REF
#endif

namespace slspvr::img::kern {

namespace {

/// Tri-state override installed by force_scalar_kernels:
/// -1 = follow the environment, 0 = force vector, 1 = force scalar.
std::atomic<int> g_override{-1};

bool env_wants_scalar() noexcept {
  static const bool scalar = [] {
    const char* v = std::getenv("SLSPVR_SCALAR_KERNELS");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return scalar;
}

bool cpu_has_avx2() noexcept {
#if defined(SLSPVR_KERNELS_X86)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace

std::string_view isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: break;
  }
  return "scalar";
}

bool simd_compiled() noexcept {
#if defined(SLSPVR_KERNELS_X86)
  return true;
#else
  return false;
#endif
}

Isa active_isa() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  const bool scalar = forced >= 0 ? forced == 1 : env_wants_scalar();
  if (!scalar && simd_compiled() && cpu_has_avx2()) return Isa::kAvx2;
  return Isa::kScalar;
}

bool force_scalar_kernels(bool scalar) noexcept {
  return g_override.exchange(scalar ? 1 : 0, std::memory_order_relaxed) == 1;
}

void clear_kernel_override() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (the oracle). These are deliberately the
// historical one-pixel-at-a-time loops; the vector paths must match them
// byte for byte.

namespace {

SLSPVR_SCALAR_REF void composite_span_scalar(Pixel* local, const Pixel* incoming, std::int64_t n,
                           bool incoming_in_front) noexcept {
  if (incoming_in_front) {
    for (std::int64_t i = 0; i < n; ++i) local[i] = over(incoming[i], local[i]);
  } else {
    for (std::int64_t i = 0; i < n; ++i) local[i] = over(local[i], incoming[i]);
  }
}

SLSPVR_SCALAR_REF RowExtent row_non_blank_extent_scalar(const Pixel* row, std::int64_t n) noexcept {
  RowExtent extent;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!is_blank(row[i])) {
      extent.first = i;
      break;
    }
  }
  if (extent.first < 0) return extent;
  for (std::int64_t i = n - 1; i >= extent.first; --i) {
    if (!is_blank(row[i])) {
      extent.last = i;
      break;
    }
  }
  return extent;
}

SLSPVR_SCALAR_REF std::int64_t count_non_blank_span_scalar(const Pixel* row, std::int64_t n) noexcept {
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!is_blank(row[i])) ++count;
  }
  return count;
}

SLSPVR_SCALAR_REF void rle_classify_span_scalar(const Pixel* row, std::int64_t n, RunState& state, Rle& out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const bool blank = is_blank(row[i]);
    if (blank != state.blank) {
      detail::emit_run(out.codes, state.run);
      state.blank = blank;
      state.run = 0;
    }
    ++state.run;
    if (!blank) out.pixels.push_back(row[i]);
  }
}

SLSPVR_SCALAR_REF void gather_strided_scalar(const Pixel* base, std::int64_t offset, std::int64_t stride,
                           std::int64_t count, Pixel* out) noexcept {
  for (std::int64_t i = 0; i < count; ++i) out[i] = base[offset + i * stride];
}

SLSPVR_SCALAR_REF void scatter_strided_scalar(const Pixel* src, std::int64_t count, Pixel* base,
                            std::int64_t offset, std::int64_t stride) noexcept {
  for (std::int64_t i = 0; i < count; ++i) base[offset + i * stride] = src[i];
}

}  // namespace

// ---------------------------------------------------------------------------
// AVX2 implementations. Pixels are 16 bytes, so one 256-bit register holds
// two pixels; the alpha lanes sit at positions 3 and 7.

#if defined(SLSPVR_KERNELS_X86)

namespace {

/// result = front + (1 - front.a) * back, per component — the exact
/// multiply-then-add ordering of img::over (no FMA, so the rounding matches
/// the scalar oracle bit for bit).
SLSPVR_TARGET_AVX2 inline __m256 over2(__m256 front, __m256 back) noexcept {
  const __m256 alpha = _mm256_shuffle_ps(front, front, _MM_SHUFFLE(3, 3, 3, 3));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(1.0f), alpha);
  return _mm256_add_ps(front, _mm256_mul_ps(t, back));
}

/// Blend loop shared by both front orders; `IncomingInFront` is a template
/// parameter so the per-register select compiles away and the 4-pixel body
/// keeps two independent over chains in flight.
template <bool IncomingInFront>
SLSPVR_TARGET_AVX2 void composite_span_avx2_impl(Pixel* local, const Pixel* incoming,
                                                 std::int64_t n) noexcept {
  auto* out = reinterpret_cast<float*>(local);
  const auto* in = reinterpret_cast<const float*>(incoming);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4, out += 16, in += 16) {
    const __m256 l0 = _mm256_loadu_ps(out);
    const __m256 l1 = _mm256_loadu_ps(out + 8);
    const __m256 v0 = _mm256_loadu_ps(in);
    const __m256 v1 = _mm256_loadu_ps(in + 8);
    if constexpr (IncomingInFront) {
      _mm256_storeu_ps(out, over2(v0, l0));
      _mm256_storeu_ps(out + 8, over2(v1, l1));
    } else {
      _mm256_storeu_ps(out, over2(l0, v0));
      _mm256_storeu_ps(out + 8, over2(l1, v1));
    }
  }
  for (; i + 2 <= n; i += 2, out += 8, in += 8) {
    const __m256 l = _mm256_loadu_ps(out);
    const __m256 v = _mm256_loadu_ps(in);
    _mm256_storeu_ps(out, IncomingInFront ? over2(v, l) : over2(l, v));
  }
  if (i < n) {
    local[i] = IncomingInFront ? over(incoming[i], local[i]) : over(local[i], incoming[i]);
  }
}

SLSPVR_TARGET_AVX2 void composite_span_avx2(Pixel* local, const Pixel* incoming,
                                            std::int64_t n, bool incoming_in_front) noexcept {
  if (incoming_in_front) {
    composite_span_avx2_impl<true>(local, incoming, n);
  } else {
    composite_span_avx2_impl<false>(local, incoming, n);
  }
}

/// Bit i of the result is set iff pixel i of the 8-pixel block is non-blank
/// (alpha != 0.0f, NaN counts as non-blank — exactly `!is_blank`). Shuffles
/// the eight alpha lanes into one register so the whole block costs a single
/// compare + movemask instead of four.
SLSPVR_TARGET_AVX2 inline std::uint32_t non_blank_mask8(const Pixel* p) noexcept {
  const auto* f = reinterpret_cast<const float*>(p);
  const __m256 v0 = _mm256_loadu_ps(f);       // pixels 0,1
  const __m256 v1 = _mm256_loadu_ps(f + 8);   // pixels 2,3
  const __m256 v2 = _mm256_loadu_ps(f + 16);  // pixels 4,5
  const __m256 v3 = _mm256_loadu_ps(f + 24);  // pixels 6,7
  // shuffle_ps works per 128-bit half, so the picks land interleaved:
  const __m256 a01 = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 3, 3, 3));  // a0 a0 a2 a2 | a1 a1 a3 a3
  const __m256 a23 = _mm256_shuffle_ps(v2, v3, _MM_SHUFFLE(3, 3, 3, 3));  // a4 a4 a6 a6 | a5 a5 a7 a7
  const __m256 mixed = _mm256_shuffle_ps(a01, a23, _MM_SHUFFLE(2, 0, 2, 0));  // a0 a2 a4 a6 | a1 a3 a5 a7
  const __m256 alphas =
      _mm256_permutevar8x32_ps(mixed, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
  const __m256 eq = _mm256_cmp_ps(alphas, _mm256_setzero_ps(), _CMP_EQ_OQ);
  return ~static_cast<std::uint32_t>(_mm256_movemask_ps(eq)) & 0xffu;
}

SLSPVR_TARGET_AVX2 RowExtent row_non_blank_extent_avx2(const Pixel* row,
                                                       std::int64_t n) noexcept {
  RowExtent extent;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint32_t m = non_blank_mask8(row + i);
    if (m != 0) {
      extent.first = i + std::countr_zero(m);
      break;
    }
  }
  if (extent.first < 0) {
    for (; i < n; ++i) {
      if (!is_blank(row[i])) {
        extent.first = i;
        break;
      }
    }
    if (extent.first < 0) return extent;
  }
  std::int64_t j = n;
  while (j - 8 >= extent.first) {
    const std::uint32_t m = non_blank_mask8(row + j - 8);
    if (m != 0) {
      extent.last = j - 8 + std::bit_width(m) - 1;
      return extent;
    }
    j -= 8;
  }
  for (std::int64_t k = j - 1; k >= extent.first; --k) {
    if (!is_blank(row[k])) {
      extent.last = k;
      break;
    }
  }
  return extent;
}

SLSPVR_TARGET_AVX2 std::int64_t count_non_blank_span_avx2(const Pixel* row,
                                                          std::int64_t n) noexcept {
  std::int64_t count = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) count += std::popcount(non_blank_mask8(row + i));
  for (; i < n; ++i) {
    if (!is_blank(row[i])) ++count;
  }
  return count;
}

SLSPVR_TARGET_AVX2 void rle_classify_span_avx2(const Pixel* row, std::int64_t n,
                                               RunState& state, Rle& out) {
  std::int64_t pos = 0;
  while (pos < n) {
    // Build one 64-pixel blank/non-blank word (bit = non-blank).
    const int valid = static_cast<int>(n - pos < 64 ? n - pos : 64);
    std::uint64_t word = 0;
    int b = 0;
    for (; b + 8 <= valid; b += 8) {
      word |= static_cast<std::uint64_t>(non_blank_mask8(row + pos + b)) << b;
    }
    for (; b < valid; ++b) {
      word |= static_cast<std::uint64_t>(!is_blank(row[pos + b])) << b;
    }
    // Extract alternating runs word-at-a-time.
    int used = 0;
    while (used < valid) {
      const std::uint64_t rest = word >> used;
      int len = state.blank ? std::countr_zero(rest) : std::countr_one(rest);
      if (len > valid - used) len = valid - used;
      if (len == 0) {  // kind flips here: close the open run
        detail::emit_run(out.codes, state.run);
        state.blank = !state.blank;
        state.run = 0;
        continue;
      }
      if (!state.blank) {
        out.pixels.insert(out.pixels.end(), row + pos + used, row + pos + used + len);
      }
      state.run += len;
      used += len;
    }
    pos += valid;
  }
}

SLSPVR_TARGET_AVX2 void gather_strided_avx2(const Pixel* base, std::int64_t offset,
                                            std::int64_t stride, std::int64_t count,
                                            Pixel* out) noexcept {
  const auto* src = reinterpret_cast<const __m128i*>(base);
  auto* dst = reinterpret_cast<__m128i*>(out);
  std::int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::int64_t k = offset + i * stride;
    const __m128i p0 = _mm_loadu_si128(src + k);
    const __m128i p1 = _mm_loadu_si128(src + k + stride);
    const __m128i p2 = _mm_loadu_si128(src + k + 2 * stride);
    const __m128i p3 = _mm_loadu_si128(src + k + 3 * stride);
    _mm_storeu_si128(dst + i, p0);
    _mm_storeu_si128(dst + i + 1, p1);
    _mm_storeu_si128(dst + i + 2, p2);
    _mm_storeu_si128(dst + i + 3, p3);
  }
  for (; i < count; ++i) out[i] = base[offset + i * stride];
}

SLSPVR_TARGET_AVX2 void scatter_strided_avx2(const Pixel* src, std::int64_t count,
                                             Pixel* base, std::int64_t offset,
                                             std::int64_t stride) noexcept {
  const auto* in = reinterpret_cast<const __m128i*>(src);
  auto* dst = reinterpret_cast<__m128i*>(base);
  std::int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::int64_t k = offset + i * stride;
    const __m128i p0 = _mm_loadu_si128(in + i);
    const __m128i p1 = _mm_loadu_si128(in + i + 1);
    const __m128i p2 = _mm_loadu_si128(in + i + 2);
    const __m128i p3 = _mm_loadu_si128(in + i + 3);
    _mm_storeu_si128(dst + k, p0);
    _mm_storeu_si128(dst + k + stride, p1);
    _mm_storeu_si128(dst + k + 2 * stride, p2);
    _mm_storeu_si128(dst + k + 3 * stride, p3);
  }
  for (; i < count; ++i) base[offset + i * stride] = src[i];
}

}  // namespace

#endif  // SLSPVR_KERNELS_X86

// ---------------------------------------------------------------------------
// Dispatch. One relaxed atomic load per call; the vector paths only exist
// when the configure-time gate compiled them in.

void composite_span(Pixel* local, const Pixel* incoming, std::int64_t n,
                    bool incoming_in_front) noexcept {
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) {
    composite_span_avx2(local, incoming, n, incoming_in_front);
    return;
  }
#endif
  composite_span_scalar(local, incoming, n, incoming_in_front);
}

RowExtent row_non_blank_extent(const Pixel* row, std::int64_t n) noexcept {
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) return row_non_blank_extent_avx2(row, n);
#endif
  return row_non_blank_extent_scalar(row, n);
}

std::int64_t count_non_blank_span(const Pixel* row, std::int64_t n) noexcept {
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) return count_non_blank_span_avx2(row, n);
#endif
  return count_non_blank_span_scalar(row, n);
}

void rle_classify_span(const Pixel* row, std::int64_t n, RunState& state, Rle& out) {
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) {
    rle_classify_span_avx2(row, n, state, out);
    return;
  }
#endif
  rle_classify_span_scalar(row, n, state, out);
}

void rle_classify_flush(RunState& state, Rle& out) { detail::emit_run(out.codes, state.run); }

void gather_strided(const Pixel* base, std::int64_t offset, std::int64_t stride,
                    std::int64_t count, Pixel* out) noexcept {
  if (stride == 1) {
    // count == 0 may come with a null `out`, which memcpy must not see.
    if (count > 0) std::memcpy(out, base + offset, static_cast<std::size_t>(count) * sizeof(Pixel));
    return;
  }
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) {
    gather_strided_avx2(base, offset, stride, count, out);
    return;
  }
#endif
  gather_strided_scalar(base, offset, stride, count, out);
}

void scatter_strided(const Pixel* src, std::int64_t count, Pixel* base, std::int64_t offset,
                     std::int64_t stride) noexcept {
  if (stride == 1) {
    if (count > 0) std::memcpy(base + offset, src, static_cast<std::size_t>(count) * sizeof(Pixel));
    return;
  }
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) {
    scatter_strided_avx2(src, count, base, offset, stride);
    return;
  }
#endif
  scatter_strided_scalar(src, count, base, offset, stride);
}

void fill_zero(Pixel* dst, std::int64_t n) noexcept {
  // Blank pixels are all-zero bit patterns, so the arena fill is one memset
  // on every ISA (the compiler vectorizes it; there is nothing to gain from
  // hand-written stores).
  std::memset(static_cast<void*>(dst), 0, static_cast<std::size_t>(n) * sizeof(Pixel));
}

// ---------------------------------------------------------------------------
// Fused wire→frame kernels. The run/span walk is control logic shared by
// both ISAs; every pixel touch goes through the dispatched composite_span,
// so the scalar-oracle contract is inherited rather than duplicated.

void rle_skip(const std::uint16_t* codes, std::size_t ncodes, RleCursor& cur,
              std::int64_t n) noexcept {
  while (n > 0) {
    if (cur.run_left == 0) {
      if (cur.code >= ncodes) return;  // caller validated totals; stop short
      cur.run_left = codes[cur.code++];
      cur.blank = !cur.blank;  // alternation starts blank (kMaxRun escapes
      continue;                // are zero-length runs and just flip twice)
    }
    const std::int64_t take = n < cur.run_left ? n : cur.run_left;
    if (!cur.blank) cur.pixel += take;
    n -= take;
    cur.run_left -= take;
  }
}

std::int64_t composite_rle_span(Pixel* base, std::int64_t pos, std::int64_t width,
                                std::int64_t row_stride, const std::uint16_t* codes,
                                std::size_t ncodes, const Pixel* pixels, RleCursor& cur,
                                std::int64_t n, bool incoming_in_front) {
  std::int64_t composited = 0;
  while (n > 0) {
    if (cur.run_left == 0) {
      if (cur.code >= ncodes) break;
      cur.run_left = codes[cur.code++];
      cur.blank = !cur.blank;
      continue;
    }
    const std::int64_t take = n < cur.run_left ? n : cur.run_left;
    if (!cur.blank) {
      // Whole runs at a time, split only where the run crosses a grid row.
      const Pixel* src = pixels + cur.pixel;
      std::int64_t left = take;
      std::int64_t p = pos;
      while (left > 0) {
        const std::int64_t x = p % width;
        const std::int64_t chunk = left < width - x ? left : width - x;
        composite_span(base + (p / width) * row_stride + x, src, chunk, incoming_in_front);
        p += chunk;
        src += chunk;
        left -= chunk;
      }
      cur.pixel += take;
      composited += take;
    }
    pos += take;
    n -= take;
    cur.run_left -= take;
  }
  return composited;
}

std::int64_t composite_span_rows(Pixel* top_left, std::int64_t row_stride,
                                 const std::uint16_t* row_counts, std::int64_t rows,
                                 const Span* spans, const Pixel* pixels,
                                 bool incoming_in_front) {
  std::int64_t composited = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    Pixel* row = top_left + r * row_stride;
    for (std::uint16_t s = 0; s < row_counts[r]; ++s) {
      const Span& span = *spans++;
      composite_span(row + span.x, pixels, span.len, incoming_in_front);
      pixels += span.len;
      composited += span.len;
    }
  }
  return composited;
}

// ---------------------------------------------------------------------------
// Non-temporal copy.

#if defined(SLSPVR_KERNELS_X86)

namespace {

SLSPVR_TARGET_AVX2 void copy_span_nt_avx2(Pixel* dst, const Pixel* src,
                                          std::int64_t n) noexcept {
  auto* out = reinterpret_cast<float*>(dst);
  const auto* in = reinterpret_cast<const float*>(src);
  std::int64_t i = 0;
  // Scalar head until the destination is 32-byte aligned (streaming stores
  // require it); Pixel is 16 bytes, so at most one head pixel.
  while (i < n && (reinterpret_cast<std::uintptr_t>(out) & 31u) != 0) {
    dst[i] = src[i];
    ++i;
    out += 4;
    in += 4;
  }
  for (; i + 2 <= n; i += 2, out += 8, in += 8) {
    _mm256_stream_ps(out, _mm256_loadu_ps(in));
  }
  if (i < n) dst[i] = src[i];
  _mm_sfence();  // streaming stores are weakly ordered; publish before return
}

}  // namespace

#endif  // SLSPVR_KERNELS_X86

void copy_span_nt(Pixel* dst, const Pixel* src, std::int64_t n) noexcept {
#if defined(SLSPVR_KERNELS_X86)
  if (active_isa() == Isa::kAvx2) {
    copy_span_nt_avx2(dst, src, n);
    return;
  }
#endif
  std::memcpy(static_cast<void*>(dst), static_cast<const void*>(src),
              static_cast<std::size_t>(n) * sizeof(Pixel));
}

}  // namespace slspvr::img::kern
