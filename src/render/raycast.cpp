#include "render/raycast.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "image/kernels.hpp"
#include "image/rect.hpp"

#if defined(SLSPVR_KERNELS_X86)
#include <immintrin.h>
// AVX2 only, never FMA: a fused multiply-add rounds once where the scalar
// loop rounds twice, and would change pixels.
#define SLSPVR_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace slspvr::render {

namespace {

/// What every marcher needs. A finite, positive sample spacing: with 0 or
/// NaN the loop never passes tmax, and first_sample's cast of an infinite
/// or NaN quotient to an integer is undefined. Voxels to read when the
/// brick is not empty: with none, the interior test's extent - 1 wraps and
/// Volume::at_clamped clamps to index -1.
void check_render(const vol::Volume& voxels, const vol::Brick& brick,
                  const RaycastOptions& options) {
  if (!(std::isfinite(options.step) && options.step > 0.0f)) {
    throw std::invalid_argument("RaycastOptions::step must be finite and > 0, got " +
                                std::to_string(options.step));
  }
  if (!brick.empty() && voxels.data().empty()) {
    throw std::invalid_argument("cannot render a non-empty brick from a volume with no voxels");
  }
}

/// Classification lookup table: density in [0,255] -> (intensity, corrected
/// opacity). Baking the step-size opacity correction into the table keeps
/// the inner loop free of pow().
struct ClassifyLut {
  static constexpr int kSize = 1024;
  std::array<vol::Classified, kSize> entries{};

  ClassifyLut(const vol::TransferFunction& tf, float step) {
    for (int i = 0; i < kSize; ++i) {
      const float density = 255.0f * static_cast<float>(i) / (kSize - 1);
      vol::Classified c = tf.classify(density);
      if (step != 1.0f) c.opacity = 1.0f - std::pow(1.0f - c.opacity, step);
      entries[static_cast<std::size_t>(i)] = c;
    }
  }

  /// Table position of `density`: classify() blends entries floor(pos) and
  /// floor(pos) + 1.
  [[nodiscard]] static float position(float density) noexcept {
    float pos = density * ((kSize - 1) / 255.0f);
    if (pos <= 0.0f) pos = 0.0f;
    if (pos >= kSize - 1) pos = kSize - 1;
    return pos;
  }

  [[nodiscard]] vol::Classified classify(float density) const noexcept {
    const float pos = position(density);
    const int i = static_cast<int>(pos);
    const float f = pos - static_cast<float>(i);
    const int j = i + 1 < kSize ? i + 1 : i;
    const vol::Classified& a = entries[static_cast<std::size_t>(i)];
    const vol::Classified& b = entries[static_cast<std::size_t>(j)];
    return {a.r + f * (b.r - a.r), a.g + f * (b.g - a.g), a.b + f * (b.b - a.b),
            a.opacity + f * (b.opacity - a.opacity)};
  }
};

/// A brick's half-open box [b0, b1) in continuous voxel coordinates.
struct Box {
  float b0[3];
  float b1[3];

  explicit Box(const vol::Brick& brick) noexcept
      : b0{static_cast<float>(brick.x0), static_cast<float>(brick.y0),
           static_cast<float>(brick.z0)},
        b1{static_cast<float>(brick.x1), static_cast<float>(brick.y1),
           static_cast<float>(brick.z1)} {}

  /// The half-open ownership test: it gives each global grid sample to
  /// exactly one brick, so brick images composite exactly.
  [[nodiscard]] bool owns(const Vec3& p) const noexcept {
    return p.x >= b0[0] && p.x < b1[0] && p.y >= b0[1] && p.y < b1[1] && p.z >= b0[2] &&
           p.z < b1[2];
  }

  /// Slab intersection of the ray o + t * dir, t in [0, t_end], with the
  /// box; false when the ray misses it.
  [[nodiscard]] bool clip(const Vec3& o, const Vec3& dir, float t_end, float& tmin,
                          float& tmax) const noexcept {
    tmin = 0.0f;
    tmax = t_end;
    for (int axis = 0; axis < 3; ++axis) {
      const float d = dir[axis];
      const float ov = o[axis];
      if (std::fabs(d) < 1e-7f) {
        if (ov < b0[axis] || ov >= b1[axis]) return false;
        continue;
      }
      float t1 = (b0[axis] - ov) / d;
      float t2 = (b1[axis] - ov) / d;
      if (t1 > t2) std::swap(t1, t2);
      tmin = std::max(tmin, t1);
      tmax = std::min(tmax, t2);
    }
    return tmin <= tmax;
  }
};

/// First index of the GLOBAL sample grid t_i = (i + 0.5) * dt that a ray
/// entering the brick at tmin can own.
[[nodiscard]] std::int64_t first_sample(float tmin, float dt) noexcept {
  return std::max<std::int64_t>(0, static_cast<std::int64_t>(std::floor(tmin / dt - 0.5f)));
}

/// Front-to-back premultiplied `over` accumulation along one ray.
struct Accumulator {
  float r = 0.0f, g = 0.0f, b = 0.0f, a = 0.0f;

  /// Blend one classified sample; true once the ray may terminate early.
  bool add(const vol::Classified& c, float early_termination) noexcept {
    const float contribution = (1.0f - a) * c.opacity;
    r += contribution * c.r;
    g += contribution * c.g;
    b += contribution * c.b;
    a += contribution;
    return a >= early_termination;
  }

  void store(img::Image& out, int px, int py) const {
    if (a > 0.0f) out.at(px, py) = img::Pixel{r, g, b, a};
  }
};

/// Voxel storage a brick is sampled from: `voxels` holds global voxel
/// origin + (x, y, z) at (x, y, z). The shared volume sits at the origin; a
/// PE-local ghost brick at its brick corner minus the ghost width.
struct Storage {
  const vol::Volume& voxels;
  std::array<int, 3> origin;
};

/// Cell edge, in stencil bases. Edges of 4 and 16 rendered the benchmark's
/// service-orbit views slower (docs/performance.md).
constexpr int kCell = 8;

/// Grid of transparent cells for one render call. A sample at p has its
/// trilinear stencil's base (low corner) at global voxel floor(p - 0.5);
/// the samples a brick owns have bases in [b0 - 1, b1 - 1] per axis, which
/// the grid tiles with cells of kCell bases. A cell is transparent when no
/// density its stencils can produce classifies at or above min_alpha.
class CellGrid {
 public:
  CellGrid(const Storage& storage, const vol::Brick& brick, const ClassifyLut& lut,
           float min_alpha) {
    const vol::Dims dims = storage.voxels.dims();
    if (brick.empty() || dims.voxel_count() == 0) return;
    const int extent[3] = {dims.nx, dims.ny, dims.nz};
    const int b0[3] = {brick.x0, brick.y0, brick.z0};
    const int b1[3] = {brick.x1, brick.y1, brick.z1};
    for (int a = 0; a < 3; ++a) {
      lo_[a] = b0[a] - 1;
      bases_[a] = b1[a] - b0[a] + 1;
      cells_[a] = (bases_[a] + kCell - 1) / kCell;
    }

    // visible_before[k]: table entries below k that can reach min_alpha. An
    // entry counts as transparent only when 0 <= opacity <
    // min_alpha * (1 - 1e-6): the margin absorbs the rounding of
    // classify()'s blend, and min_alpha <= 0 leaves nothing transparent.
    std::array<int, ClassifyLut::kSize + 1> visible_before{};
    const float threshold = min_alpha * (1.0f - 1e-6f);
    for (std::size_t k = 0; k < lut.entries.size(); ++k) {
      const float opacity = lut.entries[k].opacity;
      visible_before[k + 1] = visible_before[k] + (opacity >= 0.0f && opacity < threshold ? 0 : 1);
    }
    const auto entry = [](int density) {
      return static_cast<int>(ClassifyLut::position(static_cast<float>(density)));
    };

    const std::uint8_t* voxels = storage.voxels.data().data();
    // kFlagSlack zero bytes after the last cell: the packet marcher reads
    // each flag with a 4-byte gather.
    transparent_.assign(
        static_cast<std::size_t>(cells_[0]) * cells_[1] * cells_[2] + kFlagSlack, 0);
    std::size_t cell = 0;
    for (int cz = 0; cz < cells_[2]; ++cz) {
      for (int cy = 0; cy < cells_[1]; ++cy) {
        for (int cx = 0; cx < cells_[0]; ++cx) {
          // The voxels the cell's stencils read: K + 1 per axis (the +1 is
          // the far corner), clamped to the storage like Volume::at_clamped.
          const int c[3] = {cx, cy, cz};
          int v0[3], v1[3];
          for (int a = 0; a < 3; ++a) {
            const int first = lo_[a] + kCell * c[a] - storage.origin[a];
            v0[a] = std::clamp(first, 0, extent[a] - 1);
            v1[a] = std::clamp(first + kCell, 0, extent[a] - 1);
          }
          int dmin = 255, dmax = 0;
          for (int z = v0[2]; z <= v1[2]; ++z) {
            for (int y = v0[1]; y <= v1[1]; ++y) {
              const std::uint8_t* row =
                  voxels + (static_cast<std::ptrdiff_t>(z) * extent[1] + y) * extent[0];
              for (int x = v0[0]; x <= v1[0]; ++x) {
                dmin = std::min<int>(dmin, row[x]);
                dmax = std::max<int>(dmax, row[x]);
              }
            }
          }
          // Blend rounding can carry a density just past [dmin, dmax], and
          // classify() reads the next entry too: widen by 1 below, 2 above.
          const int e0 = std::max(0, entry(dmin) - 1);
          const int e1 = std::min(ClassifyLut::kSize - 1, entry(dmax) + 2);
          transparent_[cell++] = visible_before[static_cast<std::size_t>(e1) + 1] ==
                                 visible_before[static_cast<std::size_t>(e0)];
        }
      }
    }
  }

  /// True when stencil base `base` lies in a transparent cell; `cell_lo`
  /// then receives the cell's first base per axis.
  [[nodiscard]] bool transparent(const int base[3], int cell_lo[3]) const noexcept {
    unsigned rel[3];
    for (int a = 0; a < 3; ++a) {
      rel[a] = static_cast<unsigned>(base[a] - lo_[a]);
      if (rel[a] >= static_cast<unsigned>(bases_[a])) return false;
    }
    const std::size_t cell =
        (static_cast<std::size_t>(rel[2] / kCell) * static_cast<std::size_t>(cells_[1]) +
         rel[1] / kCell) *
            static_cast<std::size_t>(cells_[0]) +
        rel[0] / kCell;
    if (transparent_[cell] == 0) return false;
    for (int a = 0; a < 3; ++a) {
      cell_lo[a] = lo_[a] + static_cast<int>(rel[a] / kCell * kCell);
    }
    return true;
  }

  // The packet marcher evaluates transparent() on eight bases at once.
  static constexpr int kFlagSlack = 3;
  [[nodiscard]] const int* lo() const noexcept { return lo_; }
  [[nodiscard]] const int* bases() const noexcept { return bases_; }
  [[nodiscard]] const int* cells() const noexcept { return cells_; }
  [[nodiscard]] const std::uint8_t* flags() const noexcept { return transparent_.data(); }

 private:
  int lo_[3] = {0, 0, 0};     ///< first stencil base per axis (global)
  int bases_[3] = {0, 0, 0};  ///< bases per axis; 0 leaves the grid empty
  int cells_[3] = {0, 0, 0};
  std::vector<std::uint8_t> transparent_;
};

/// Pixels whose rays can meet the brick: the bounding box of its projected
/// corners, widened by two pixels against rounding and clipped to the image.
/// Every ray outside it misses the brick's box.
img::Rect projected_rect(const OrthoCamera& camera, const vol::Brick& brick) {
  const img::Rect image{0, 0, camera.width(), camera.height()};
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float lo[2] = {kInf, kInf};
  float hi[2] = {-kInf, -kInf};
  for (int k = 0; k < 8; ++k) {
    const Vec3 corner{static_cast<float>((k & 1) != 0 ? brick.x1 : brick.x0),
                      static_cast<float>((k & 2) != 0 ? brick.y1 : brick.y0),
                      static_cast<float>((k & 4) != 0 ? brick.z1 : brick.z0)};
    float p[2];
    camera.project(corner, p[0], p[1]);
    if (!std::isfinite(p[0]) || !std::isfinite(p[1])) return image;
    for (int a = 0; a < 2; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  }
  // Pixel px's ray projects to px itself; clamp before converting to int.
  const auto pixel = [](float v, int size) {
    return static_cast<int>(std::clamp(v, -1.0f, static_cast<float>(size) + 1.0f));
  };
  const img::Rect widened{
      pixel(std::floor(lo[0]) - 2.0f, image.x1), pixel(std::floor(lo[1]) - 2.0f, image.y1),
      pixel(std::ceil(hi[0]) + 3.0f, image.x1), pixel(std::ceil(hi[1]) + 3.0f, image.y1)};
  return img::intersect(widened, image);
}

/// Where a ray leaves a transparent cell. A cell's sample-position box is
/// [c + 0.5, c + K + 0.5) per axis for first base c. A ray leaves it through
/// the far face of each axis it moves along; an axis it runs exactly
/// parallel to never bounds the exit. The faces are pulled 1e-3 voxel
/// inwards against rounding.
struct CellExit {
  float face[3] = {};
  float inv_dir[3] = {};

  explicit CellExit(const Vec3& dir) noexcept {
    constexpr float kMargin = 1e-3f;
    for (int a = 0; a < 3; ++a) {
      face[a] = 0.5f + (dir[a] > 0.0f ? kCell - kMargin : kMargin);
      inv_dir[a] = dir[a] != 0.0f ? 1.0f / dir[a] : 0.0f;
    }
  }
};

#if defined(SLSPVR_KERNELS_X86)

/// Rays per packet: 8 adjacent pixels of one rectangle row, one per lane.
constexpr int kLanes = 8;

/// Whether Packets' int32 lanes hold every value they form: sample indices
/// (below t_max / step + 2), voxel offsets and cell indices.
bool packets_fit(const Storage& storage, const OrthoCamera& camera, float dt) {
  constexpr float kMaxSamples = 1073741824.0f;  // 2^30
  const std::size_t voxels = storage.voxels.data().size();
  return img::kern::active_isa() == img::kern::Isa::kAvx2 && camera.t_max() / dt < kMaxSamples &&
         voxels > 0 && voxels < (std::size_t{1} << 31);
}

SLSPVR_TARGET_AVX2 inline __m256i as_int(__m256 mask) { return _mm256_castps_si256(mask); }
SLSPVR_TARGET_AVX2 inline __m256 as_float(__m256i mask) { return _mm256_castsi256_ps(mask); }

/// Bit k set when lane k of `mask` is.
SLSPVR_TARGET_AVX2 inline int lanes(__m256i mask) { return _mm256_movemask_ps(as_float(mask)); }

/// `bound` with its sign bit flipped, for below().
SLSPVR_TARGET_AVX2 inline __m256i biased(int bound) {
  return _mm256_set1_epi32(static_cast<int>(static_cast<unsigned>(bound) ^ 0x80000000u));
}

/// v < bound per lane, compared as unsigned like the scalar loop's range
/// tests; `bound` comes from biased().
SLSPVR_TARGET_AVX2 inline __m256i below(__m256i v, __m256i bound) {
  return _mm256_cmpgt_epi32(bound, _mm256_xor_si256(v, _mm256_set1_epi32(INT32_MIN)));
}

/// (int)floor(v) per lane, as locate() computes a stencil base.
SLSPVR_TARGET_AVX2 inline __m256i floor_int(__m256 v) {
  return _mm256_cvttps_epi32(_mm256_floor_ps(v));
}

/// lo * w_lo + hi * w_hi: one of Volume::sample's lerps, in its order.
SLSPVR_TARGET_AVX2 inline __m256 lerp(__m256 lo, __m256 hi, __m256 w_lo, __m256 w_hi) {
  return _mm256_add_ps(_mm256_mul_ps(lo, w_lo), _mm256_mul_ps(hi, w_hi));
}

/// march()'s scalar loop for eight rays at once, one per AVX2 lane. Each
/// lane does the scalar loop's float operations in its order, under masks,
/// and AVX2 without FMA rounds each as the scalar code does, so images,
/// rays and samples are the scalar loop's. The private members mirror its
/// lambdas and the CellGrid and ClassifyLut lookups.
class Packets {
 public:
  SLSPVR_TARGET_AVX2 Packets(const Storage& storage, const ClassifyLut& lut,
                             const CellGrid& grid, const Box& box, const CellExit& cell_exit,
                             const OrthoCamera& camera, const RaycastOptions& options)
      : storage_(storage), lut_(lut), box_(box), camera_(camera), dir_(camera.view_dir()),
        dt_(options.step) {
    const vol::Dims dims = storage.voxels.dims();
    const int extent[3] = {dims.nx, dims.ny, dims.nz};
    for (int a = 0; a < 3; ++a) {
      dir_v_[a] = _mm256_set1_ps(dir_[a]);
      b0_[a] = _mm256_set1_ps(box.b0[a]);
      b1_[a] = _mm256_set1_ps(box.b1[a]);
      face_[a] = _mm256_set1_ps(cell_exit.face[a]);
      inv_dir_[a] = _mm256_set1_ps(cell_exit.inv_dir[a]);
      grid_lo_[a] = _mm256_set1_epi32(grid.lo()[a]);
      grid_bases_[a] = biased(grid.bases()[a]);
      origin_[a] = _mm256_set1_epi32(storage.origin[a]);
      interior_[a] = biased(extent[a] - 1);
    }
    cells_x_ = _mm256_set1_epi32(grid.cells()[0]);
    cells_y_ = _mm256_set1_epi32(grid.cells()[1]);
    flags_ = reinterpret_cast<const int*>(grid.flags());
    const int row = dims.nx;
    const int slice = dims.nx * dims.ny;
    row_ = _mm256_set1_epi32(row);
    slice_ = _mm256_set1_epi32(slice);
    gather_end_ = _mm256_set1_epi32(static_cast<int>(
        static_cast<std::int64_t>(storage.voxels.data().size()) - slice - row - 3));
    voxels_ = reinterpret_cast<const int*>(storage.voxels.data().data());
    step_ = _mm256_set1_ps(dt_);
    min_alpha_ = _mm256_set1_ps(options.min_alpha);
    early_ = _mm256_set1_ps(options.early_termination);
  }

  /// Render the rows of `rect`, 8 pixels at a time.
  SLSPVR_TARGET_AVX2 void march(const img::Rect& rect, img::Image& out,
                                RenderStats* stats) const {
    std::int64_t rays = 0;
    std::int64_t samples = 0;
    for (int py = rect.y0; py < rect.y1; ++py) {
      for (int px = rect.x0; px < rect.x1; px += kLanes) {
        packet(px, py, std::min(kLanes, rect.x1 - px), out, rays, samples);
      }
    }
    if (stats != nullptr) {
      stats->rays += rays;
      stats->samples += samples;
    }
  }

 private:
  /// Pixels px .. px + width - 1 of row py. Lanes from `width` on, and rays
  /// that miss the box, start inactive; a lane stops where its scalar ray
  /// would break.
  SLSPVR_TARGET_AVX2 void packet(int px, int py, int width, img::Image& out, std::int64_t& rays,
                                 std::int64_t& samples) const {
    // Ray set-up per lane, in the scalar loop's code.
    alignas(32) float o_lane[3][kLanes] = {};
    alignas(32) float tmax_lane[kLanes] = {};
    alignas(32) std::int32_t first_lane[kLanes] = {};
    alignas(32) std::int32_t live_lane[kLanes] = {};
    for (int k = 0; k < width; ++k) {
      const Vec3 o = camera_.ray_origin(px + k, py);
      float tmin = 0.0f;
      float tmax = 0.0f;
      if (!box_.clip(o, dir_, camera_.t_max(), tmin, tmax)) continue;
      ++rays;
      o_lane[0][k] = o.x;
      o_lane[1][k] = o.y;
      o_lane[2][k] = o.z;
      tmax_lane[k] = tmax;
      first_lane[k] = static_cast<std::int32_t>(first_sample(tmin, dt_));
      live_lane[k] = -1;
    }
    __m256i active = _mm256_load_si256(reinterpret_cast<const __m256i*>(live_lane));
    if (lanes(active) == 0) return;
    const __m256 o[3] = {_mm256_load_ps(o_lane[0]), _mm256_load_ps(o_lane[1]),
                         _mm256_load_ps(o_lane[2])};
    const __m256 tmax = _mm256_load_ps(tmax_lane);
    const __m256 tmax_dt = _mm256_add_ps(tmax, step_);
    const __m256 half = _mm256_set1_ps(0.5f);
    __m256i i = _mm256_load_si256(reinterpret_cast<const __m256i*>(first_lane));
    __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps()};

    while (lanes(active) != 0) {
      const __m256 t = _mm256_mul_ps(_mm256_add_ps(_mm256_cvtepi32_ps(i), half), step_);
      active = _mm256_andnot_si256(as_int(_mm256_cmp_ps(t, tmax_dt, _CMP_GT_OQ)), active);
      __m256 pos[3];
      __m256 owns = as_float(active);
      for (int a = 0; a < 3; ++a) {
        pos[a] = _mm256_add_ps(o[a], _mm256_mul_ps(dir_v_[a], t));
        owns = _mm256_and_ps(owns, _mm256_and_ps(_mm256_cmp_ps(pos[a], b0_[a], _CMP_GE_OQ),
                                                 _mm256_cmp_ps(pos[a], b1_[a], _CMP_LT_OQ)));
      }
      // Outside the box: stop past tmax, step on before it.
      const __m256 past = _mm256_cmp_ps(t, tmax, _CMP_GT_OQ);
      active = _mm256_andnot_si256(as_int(_mm256_andnot_ps(owns, past)), active);
      const __m256i work = as_int(owns);
      if (lanes(work) != 0) {
        __m256 x[3];
        __m256i base[3];
        for (int a = 0; a < 3; ++a) {
          x[a] = _mm256_sub_ps(pos[a], half);
          base[a] = floor_int(x[a]);
        }
        __m256i cell_lo[3];
        const __m256i jump = transparent(base, work, cell_lo);
        if (lanes(jump) != 0) i = last_in_cell(o, tmax, i, cell_lo, jump);
        const __m256i sample = _mm256_andnot_si256(jump, work);
        if (lanes(sample) != 0) {
          samples += std::popcount(static_cast<unsigned>(lanes(sample)));
          __m256 c[4];
          classify(density(x, base, sample), sample, c);
          // Accumulator::add where !(opacity < min_alpha).
          const __m256 blend =
              _mm256_and_ps(as_float(sample), _mm256_cmp_ps(c[3], min_alpha_, _CMP_NLT_UQ));
          const __m256 contribution =
              _mm256_mul_ps(_mm256_sub_ps(_mm256_set1_ps(1.0f), acc[3]), c[3]);
          for (int k = 0; k < 3; ++k) {
            acc[k] = _mm256_blendv_ps(
                acc[k], _mm256_add_ps(acc[k], _mm256_mul_ps(contribution, c[k])), blend);
          }
          acc[3] = _mm256_blendv_ps(acc[3], _mm256_add_ps(acc[3], contribution), blend);
          const __m256 done = _mm256_and_ps(blend, _mm256_cmp_ps(acc[3], early_, _CMP_GE_OQ));
          active = _mm256_andnot_si256(as_int(done), active);
        }
      }
      i = _mm256_add_epi32(i, _mm256_set1_epi32(1));
    }

    alignas(32) float acc_lane[4][kLanes];
    for (int k = 0; k < 4; ++k) _mm256_store_ps(acc_lane[k], acc[k]);
    for (int k = 0; k < width; ++k) {
      const Accumulator lane{acc_lane[0][k], acc_lane[1][k], acc_lane[2][k], acc_lane[3][k]};
      lane.store(out, px + k, py);
    }
  }

  /// CellGrid::transparent for the lanes of `work`: the lanes whose base
  /// lies in a transparent cell, each cell's first base in `cell_lo`. A
  /// 4-byte gather reads each flag (the grid keeps slack bytes after it).
  SLSPVR_TARGET_AVX2 __m256i transparent(const __m256i base[3], __m256i work,
                                         __m256i cell_lo[3]) const {
    static_assert(kCell == 8, "cell coordinates are rel >> 3");
    __m256i cell_of[3];  // rel / kCell per axis
    __m256i in_grid = work;
    for (int a = 0; a < 3; ++a) {
      const __m256i rel = _mm256_sub_epi32(base[a], grid_lo_[a]);
      in_grid = _mm256_and_si256(in_grid, below(rel, grid_bases_[a]));
      cell_of[a] = _mm256_srli_epi32(rel, 3);
      cell_lo[a] = _mm256_add_epi32(grid_lo_[a], _mm256_slli_epi32(cell_of[a], 3));
    }
    if (lanes(in_grid) == 0) return in_grid;
    const __m256i cell = _mm256_add_epi32(
        _mm256_mullo_epi32(_mm256_add_epi32(_mm256_mullo_epi32(cell_of[2], cells_y_), cell_of[1]),
                           cells_x_),
        cell_of[0]);
    const __m256i flag = _mm256_and_si256(
        _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), flags_, cell, in_grid, 1),
        _mm256_set1_epi32(0xFF));
    return _mm256_andnot_si256(_mm256_cmpeq_epi32(flag, _mm256_setzero_si256()), in_grid);
  }

  /// last_in_cell for the lanes of `jump`: their new sample index, or i
  /// where the candidate is not confirmed; the other lanes keep i. The
  /// confirmations are the scalar march's (see its last_in_cell).
  SLSPVR_TARGET_AVX2 __m256i last_in_cell(const __m256 o[3], __m256 tmax, __m256i i,
                                          const __m256i cell_lo[3], __m256i jump) const {
    const __m256 half = _mm256_set1_ps(0.5f);
    __m256 t_exit = tmax;
    for (int a = 0; a < 3; ++a) {
      if (dir_[a] == 0.0f) continue;
      const __m256 exit_a = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_add_ps(_mm256_cvtepi32_ps(cell_lo[a]), face_[a]), o[a]),
          inv_dir_[a]);
      t_exit = _mm256_min_ps(exit_a, t_exit);  // std::min(t_exit, exit_a)
    }
    const __m256i last = floor_int(_mm256_sub_ps(_mm256_div_ps(t_exit, step_), half));
    __m256i ok = _mm256_and_si256(jump, _mm256_cmpgt_epi32(last, i));
    const __m256 t = _mm256_mul_ps(_mm256_add_ps(_mm256_cvtepi32_ps(last), half), step_);
    ok = _mm256_andnot_si256(as_int(_mm256_cmp_ps(t, tmax, _CMP_GT_OQ)), ok);
    for (int a = 0; a < 3; ++a) {
      const __m256i base =
          floor_int(_mm256_sub_ps(_mm256_add_ps(o[a], _mm256_mul_ps(dir_v_[a], t)), half));
      const __m256i cell_hi = _mm256_add_epi32(cell_lo[a], _mm256_set1_epi32(kCell));
      ok = _mm256_andnot_si256(_mm256_cmpgt_epi32(cell_lo[a], base), ok);
      ok = _mm256_and_si256(ok, _mm256_cmpgt_epi32(cell_hi, base));
    }
    return _mm256_blendv_epi8(i, last, ok);
  }

  /// density() for the lanes of `sample`. An interior stencil whose reads
  /// stay inside the data gathers two voxels per 4-byte read at p, p + row,
  /// p + slice and p + slice + row. The last read ends 3 bytes past its
  /// start, so a lane may gather only where p + slice + row + 3 is inside
  /// the data; every other lane reads through at_clamped, as stencils on
  /// the storage's faces do.
  SLSPVR_TARGET_AVX2 __m256 density(const __m256 x[3], const __m256i base[3],
                                    __m256i sample) const {
    __m256i local[3];
    __m256i fast = sample;
    for (int a = 0; a < 3; ++a) {
      local[a] = _mm256_sub_epi32(base[a], origin_[a]);
      fast = _mm256_and_si256(fast, below(local[a], interior_[a]));
    }
    const __m256i p = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(local[2], slice_), _mm256_mullo_epi32(local[1], row_)),
        local[0]);
    fast = _mm256_and_si256(fast, _mm256_cmpgt_epi32(gather_end_, p));
    const __m256i offset[4] = {p, _mm256_add_epi32(p, row_), _mm256_add_epi32(p, slice_),
                               _mm256_add_epi32(p, _mm256_add_epi32(slice_, row_))};
    const __m256i byte = _mm256_set1_epi32(0xFF);
    __m256i vi[8];
    for (int k = 0; k < 4; ++k) {
      const __m256i pair =
          _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), voxels_, offset[k], fast, 1);
      vi[2 * k] = _mm256_and_si256(pair, byte);
      vi[2 * k + 1] = _mm256_and_si256(_mm256_srli_epi32(pair, 8), byte);
    }
    const int slow = lanes(_mm256_andnot_si256(fast, sample));
    if (slow != 0) {
      alignas(32) std::int32_t l[3][kLanes];
      alignas(32) std::int32_t v[8][kLanes];
      for (int a = 0; a < 3; ++a) _mm256_store_si256(reinterpret_cast<__m256i*>(l[a]), local[a]);
      for (int k = 0; k < 8; ++k) _mm256_store_si256(reinterpret_cast<__m256i*>(v[k]), vi[k]);
      for (int lane = 0; lane < kLanes; ++lane) {
        if ((slow >> lane & 1) == 0) continue;
        for (int k = 0; k < 8; ++k) {
          v[k][lane] = storage_.voxels.at_clamped(l[0][lane] + (k & 1), l[1][lane] + ((k >> 1) & 1),
                                                  l[2][lane] + (k >> 2));
        }
      }
      for (int k = 0; k < 8; ++k) vi[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(v[k]));
    }
    __m256 v[8];
    for (int k = 0; k < 8; ++k) v[k] = _mm256_cvtepi32_ps(vi[k]);
    __m256 f[3], g[3];  // the fraction and 1 - fraction per axis
    for (int a = 0; a < 3; ++a) {
      f[a] = _mm256_sub_ps(x[a], _mm256_cvtepi32_ps(base[a]));
      g[a] = _mm256_sub_ps(_mm256_set1_ps(1.0f), f[a]);
    }
    const __m256 c00 = lerp(v[0], v[1], g[0], f[0]);
    const __m256 c10 = lerp(v[2], v[3], g[0], f[0]);
    const __m256 c01 = lerp(v[4], v[5], g[0], f[0]);
    const __m256 c11 = lerp(v[6], v[7], g[0], f[0]);
    const __m256 c0 = lerp(c00, c10, g[1], f[1]);
    const __m256 c1 = lerp(c01, c11, g[1], f[1]);
    return lerp(c0, c1, g[2], f[2]);
  }

  /// ClassifyLut::classify for the lanes of `sample` into c = {r, g, b,
  /// opacity}, each lane's two entries gathered; other lanes read entry 0.
  SLSPVR_TARGET_AVX2 void classify(__m256 density, __m256i sample, __m256 c[4]) const {
    const __m256 last = _mm256_set1_ps(ClassifyLut::kSize - 1);
    __m256 pos = _mm256_mul_ps(density, _mm256_set1_ps((ClassifyLut::kSize - 1) / 255.0f));
    pos = _mm256_blendv_ps(pos, _mm256_setzero_ps(),
                           _mm256_cmp_ps(pos, _mm256_setzero_ps(), _CMP_LE_OQ));
    pos = _mm256_blendv_ps(pos, last, _mm256_cmp_ps(pos, last, _CMP_GE_OQ));
    const __m256i i = _mm256_and_si256(_mm256_cvttps_epi32(pos), sample);
    const __m256 f = _mm256_sub_ps(pos, _mm256_cvtepi32_ps(i));
    const __m256i j = _mm256_min_epi32(_mm256_add_epi32(i, _mm256_set1_epi32(1)),
                                       _mm256_set1_epi32(ClassifyLut::kSize - 1));
    // Entry k's channel sits 4k floats after entry 0's.
    static_assert(sizeof(vol::Classified) == 4 * sizeof(float));
    const vol::Classified& first = lut_.entries[0];
    const float* channel[4] = {&first.r, &first.g, &first.b, &first.opacity};
    const __m256i i4 = _mm256_slli_epi32(i, 2);
    const __m256i j4 = _mm256_slli_epi32(j, 2);
    for (int n = 0; n < 4; ++n) {
      const __m256 a = _mm256_i32gather_ps(channel[n], i4, 4);
      const __m256 b = _mm256_i32gather_ps(channel[n], j4, 4);
      c[n] = _mm256_add_ps(a, _mm256_mul_ps(f, _mm256_sub_ps(b, a)));
    }
  }

  const Storage& storage_;
  const ClassifyLut& lut_;
  const Box& box_;
  const OrthoCamera& camera_;
  Vec3 dir_;
  float dt_;
  __m256 step_, min_alpha_, early_;
  __m256 dir_v_[3], b0_[3], b1_[3], face_[3], inv_dir_[3];
  __m256i grid_lo_[3], grid_bases_[3], cells_x_, cells_y_;
  __m256i origin_[3], interior_[3], row_, slice_, gather_end_;
  const int* flags_;   ///< CellGrid flags, read 4 bytes at a time
  const int* voxels_;  ///< the storage's voxels, read 4 bytes at a time
};

#endif  // SLSPVR_KERNELS_X86

/// A ghost brick's voxels: its wire header carries the storage's global
/// origin.
Storage storage_of(const vol::GhostBrick& ghost) {
  const vol::GhostBrick::WireHeader header = ghost.wire_header();
  return Storage{ghost.data(), {header.ox, header.oy, header.oz}};
}

/// `storage`, once check_render accepts it.
const Storage& checked(const Storage& storage, const vol::Brick& brick,
                       const RaycastOptions& options) {
  check_render(storage.voxels, brick, options);
  return storage;
}

}  // namespace

/// What a brick's renders share: everything but the camera.
struct BrickRenderer::Prepared {
  Prepared(const Storage& voxels, const vol::TransferFunction& tf, const vol::Brick& owned,
           const RaycastOptions& marching)
      : storage(checked(voxels, owned, marching)),
        brick(owned),
        options(marching),
        lut(tf, marching.step),
        grid(storage, owned, lut, marching.min_alpha),
        box(owned) {}

  Storage storage;
  vol::Brick brick;
  RaycastOptions options;
  ClassifyLut lut;
  CellGrid grid;
  Box box;
};

BrickRenderer::BrickRenderer(const vol::Volume& volume, const vol::TransferFunction& tf,
                             const vol::Brick& brick, const RaycastOptions& options)
    : prepared_(std::make_unique<const Prepared>(Storage{volume, {0, 0, 0}}, tf, brick, options)) {
}

BrickRenderer::BrickRenderer(const vol::GhostBrick& ghost, const vol::TransferFunction& tf,
                             const RaycastOptions& options)
    : prepared_(std::make_unique<const Prepared>(storage_of(ghost), tf, ghost.brick(), options)) {
}

BrickRenderer::~BrickRenderer() = default;
BrickRenderer::BrickRenderer(BrickRenderer&&) noexcept = default;
BrickRenderer& BrickRenderer::operator=(BrickRenderer&&) noexcept = default;

bool BrickRenderer::prepared_for(const vol::Volume& volume, const vol::Brick& brick,
                                 const RaycastOptions& options) const noexcept {
  return &prepared_->storage.voxels == &volume && prepared_->brick == brick &&
         prepared_->options == options;
}

/// The ray march. It takes the samples render_brick_reference takes, minus
/// two kinds that cannot change a pixel: those of rays outside the brick's
/// projected rectangle (the rays miss the brick) and those in transparent
/// cells (they classify below min_alpha, which the reference discards).
/// Everything it does sample uses the reference's arithmetic, so images
/// are byte-identical.
void BrickRenderer::render(const OrthoCamera& camera, img::Image& out,
                           RenderStats* stats) const {
  const Storage& storage = prepared_->storage;
  const vol::Brick& brick = prepared_->brick;
  const RaycastOptions& options = prepared_->options;
  const ClassifyLut& lut = prepared_->lut;
  const CellGrid& grid = prepared_->grid;
  const Box& box = prepared_->box;
  const Vec3 dir = camera.view_dir();
  const float dt = options.step;

  const vol::Dims dims = storage.voxels.dims();
  const std::uint8_t* voxels = storage.voxels.data().data();
  const std::ptrdiff_t row = dims.nx;
  const std::ptrdiff_t slice = static_cast<std::ptrdiff_t>(dims.nx) * dims.ny;
  const unsigned interior[3] = {static_cast<unsigned>(dims.nx - 1),
                                static_cast<unsigned>(dims.ny - 1),
                                static_cast<unsigned>(dims.nz - 1)};
  // A sample's continuous voxel position and stencil base, in global
  // coordinates as Volume::sample takes them on the full volume: a ghost
  // brick then yields the shared volume's bits, since only its reads shift
  // by the storage origin.
  const auto locate = [&](const Vec3& pos, float x[3], int base[3]) {
    x[0] = pos.x - 0.5f;
    x[1] = pos.y - 0.5f;
    x[2] = pos.z - 0.5f;
    for (int a = 0; a < 3; ++a) base[a] = static_cast<int>(std::floor(x[a]));
  };

  // Volume::sample's trilinear blend, in its lerp order. Stencils wholly
  // inside the storage read their eight voxels by offset; the rest clamp.
  const auto density = [&](const float x[3], const int base[3]) {
    const int lx = base[0] - storage.origin[0];
    const int ly = base[1] - storage.origin[1];
    const int lz = base[2] - storage.origin[2];
    float v[8];
    if (static_cast<unsigned>(lx) < interior[0] && static_cast<unsigned>(ly) < interior[1] &&
        static_cast<unsigned>(lz) < interior[2]) {
      const std::uint8_t* p = voxels + lz * slice + ly * row + lx;
      v[0] = p[0];
      v[1] = p[1];
      v[2] = p[row];
      v[3] = p[row + 1];
      v[4] = p[slice];
      v[5] = p[slice + 1];
      v[6] = p[slice + row];
      v[7] = p[slice + row + 1];
    } else {
      for (int k = 0; k < 8; ++k) {
        v[k] = storage.voxels.at_clamped(lx + (k & 1), ly + ((k >> 1) & 1), lz + (k >> 2));
      }
    }
    const float fx = x[0] - static_cast<float>(base[0]);
    const float fy = x[1] - static_cast<float>(base[1]);
    const float fz = x[2] - static_cast<float>(base[2]);
    const float c00 = v[0] * (1 - fx) + v[1] * fx;
    const float c10 = v[2] * (1 - fx) + v[3] * fx;
    const float c01 = v[4] * (1 - fx) + v[5] * fx;
    const float c11 = v[6] * (1 - fx) + v[7] * fx;
    const float c0 = c00 * (1 - fy) + c10 * fy;
    const float c1 = c01 * (1 - fy) + c11 * fy;
    return c0 * (1 - fz) + c1 * fz;
  };

  const CellExit cell_exit(dir);

  // The last sample index a jump from sample i across the transparent cell
  // at `cell_lo` may pass over, or i when there is none. The candidate, the
  // last grid sample before the exit, is confirmed with the marcher's own
  // arithmetic: t within tmax (so the reference would not have stopped
  // among the skipped samples) and its stencil base still in the cell.
  // Per axis, positions and bases are monotone in i, so every sample in
  // between lies in the cell as well.
  //
  // Far along a ray (t ~ 10^4) rounding can put the candidate's base just
  // past the cell, in a visible cell that owns the sample:
  // RaycastIdentity.JumpsFarAlongTheRayAreConfirmed fails without either
  // half of the base check. No case can make the t check change an image,
  // a ray or a sample count. Where a march stepping one sample at a time
  // would stop among the skipped samples (past tmax + dt, or past tmax and
  // out of the box, which it entered before i), it would stop at the
  // sample after the candidate too, since t and the position per axis are
  // monotone in i; and it samples none of them, as they lie in the cell.
  // The t check keeps jumps within the ray's extent.
  const auto last_in_cell = [&](const Vec3& o, float tmax, std::int64_t i,
                                const int cell_lo[3]) -> std::int64_t {
    float t_exit = tmax;
    for (int a = 0; a < 3; ++a) {
      if (dir[a] == 0.0f) continue;
      t_exit = std::min(t_exit, (static_cast<float>(cell_lo[a]) + cell_exit.face[a] - o[a]) *
                                    cell_exit.inv_dir[a]);
    }
    const auto last = static_cast<std::int64_t>(std::floor(t_exit / dt - 0.5f));
    if (last <= i) return i;
    const float t = (static_cast<float>(last) + 0.5f) * dt;
    if (t > tmax) return i;
    float x[3];
    int base[3];
    locate(o + dir * t, x, base);
    for (int a = 0; a < 3; ++a) {
      if (base[a] < cell_lo[a] || base[a] >= cell_lo[a] + kCell) return i;
    }
    return last;
  };

  const img::Rect rect = projected_rect(camera, brick);
#if defined(SLSPVR_KERNELS_X86)
  if (packets_fit(storage, camera, dt)) {
    Packets(storage, lut, grid, box, cell_exit, camera, options).march(rect, out, stats);
    return;
  }
#endif
  for (int py = rect.y0; py < rect.y1; ++py) {
    for (int px = rect.x0; px < rect.x1; ++px) {
      const Vec3 o = camera.ray_origin(px, py);
      float tmin = 0.0f;
      float tmax = 0.0f;
      if (!box.clip(o, dir, camera.t_max(), tmin, tmax)) continue;
      if (stats != nullptr) ++stats->rays;

      Accumulator acc;
      for (std::int64_t i = first_sample(tmin, dt);; ++i) {
        const float t = (static_cast<float>(i) + 0.5f) * dt;
        if (t > tmax + dt) break;
        const Vec3 pos = o + dir * t;
        if (!box.owns(pos)) {
          if (t > tmax) break;
          continue;
        }
        float x[3];
        int base[3];
        locate(pos, x, base);
        int cell_lo[3];
        if (grid.transparent(base, cell_lo)) {
          i = last_in_cell(o, tmax, i, cell_lo);
          continue;
        }
        if (stats != nullptr) ++stats->samples;
        const vol::Classified c = lut.classify(density(x, base));
        if (c.opacity < options.min_alpha) continue;
        if (acc.add(c, options.early_termination)) break;
      }
      acc.store(out, px, py);
    }
  }
}

void KeptRenderers::reserve(std::size_t slots) {
  if (slots > slots_.size()) slots_.resize(slots);
}

void KeptRenderers::render(std::size_t slot, const vol::Volume& volume,
                           const vol::TransferFunction& tf, const vol::Brick& brick,
                           const OrthoCamera& camera, img::Image& out,
                           const RaycastOptions& options, RenderStats* stats) {
  reserve(slot + 1);
  std::optional<BrickRenderer>& kept = slots_[slot];
  if (!kept || !kept->prepared_for(volume, brick, options)) {
    kept.emplace(volume, tf, brick, options);
    ++prepares_;
  }
  kept->render(camera, out, stats);
}

void render_brick(const vol::Volume& volume, const vol::TransferFunction& tf,
                  const OrthoCamera& camera, const vol::Brick& brick, img::Image& out,
                  const RaycastOptions& options, RenderStats* stats) {
  BrickRenderer(volume, tf, brick, options).render(camera, out, stats);
}

void render_ghost_brick(const vol::GhostBrick& ghost, const vol::TransferFunction& tf,
                        const OrthoCamera& camera, img::Image& out,
                        const RaycastOptions& options, RenderStats* stats) {
  BrickRenderer(ghost, tf, options).render(camera, out, stats);
}

void render_brick_reference(const vol::Volume& volume, const vol::TransferFunction& tf,
                            const OrthoCamera& camera, const vol::Brick& brick,
                            img::Image& out, const RaycastOptions& options,
                            RenderStats* stats) {
  check_render(volume, brick, options);
  const ClassifyLut lut(tf, options.step);
  const Box box(brick);
  const Vec3 dir = camera.view_dir();
  const float dt = options.step;

  for (int py = 0; py < camera.height(); ++py) {
    for (int px = 0; px < camera.width(); ++px) {
      const Vec3 o = camera.ray_origin(px, py);
      float tmin = 0.0f;
      float tmax = 0.0f;
      if (!box.clip(o, dir, camera.t_max(), tmin, tmax)) continue;
      if (stats != nullptr) ++stats->rays;

      // March the GLOBAL sample grid t_i = (i + 0.5) * dt; the half-open
      // ownership test guarantees each sample is taken by exactly one
      // brick, so brick images composite exactly.
      Accumulator acc;
      for (std::int64_t i = first_sample(tmin, dt);; ++i) {
        const float t = (static_cast<float>(i) + 0.5f) * dt;
        if (t > tmax + dt) break;
        const Vec3 pos = o + dir * t;
        if (!box.owns(pos)) {
          if (t > tmax) break;
          continue;
        }
        if (stats != nullptr) ++stats->samples;
        const vol::Classified c =
            lut.classify(volume.sample(pos.x - 0.5f, pos.y - 0.5f, pos.z - 0.5f));
        if (c.opacity < options.min_alpha) continue;
        if (acc.add(c, options.early_termination)) break;
      }
      acc.store(out, px, py);
    }
  }
}

}  // namespace slspvr::render
