#include "render/raycast.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "image/rect.hpp"

namespace slspvr::render {

namespace {

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
    transparent_.assign(static_cast<std::size_t>(cells_[0]) * cells_[1] * cells_[2], 0);
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

/// The ray-march kernel behind render_brick and render_ghost_brick. It takes
/// the samples render_brick_reference takes, minus two kinds that cannot
/// change a pixel: those of rays outside the brick's projected rectangle
/// (the rays miss the brick) and those in transparent cells (they classify
/// below min_alpha, which the reference discards). Everything it does sample
/// uses the reference's arithmetic, so images are byte-identical.
void march(const Storage& storage, const vol::TransferFunction& tf, const OrthoCamera& camera,
           const vol::Brick& brick, img::Image& out, const RaycastOptions& options,
           RenderStats* stats) {
  const ClassifyLut lut(tf, options.step);
  const CellGrid grid(storage, brick, lut, options.min_alpha);
  const Box box(brick);
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

  // A cell's sample-position box is [c + 0.5, c + K + 0.5) per axis for
  // first base c. A ray leaves it through the far face of each
  // axis it moves along; an axis it runs exactly parallel to never bounds
  // the exit. The faces are pulled 1e-3 voxel inwards against rounding.
  constexpr float kMargin = 1e-3f;
  float face[3] = {};
  float inv_dir[3] = {};
  for (int a = 0; a < 3; ++a) {
    face[a] = 0.5f + (dir[a] > 0.0f ? kCell - kMargin : kMargin);
    inv_dir[a] = dir[a] != 0.0f ? 1.0f / dir[a] : 0.0f;
  }

  // The last sample index a jump from sample i across the transparent cell
  // at `cell_lo` may pass over, or i when there is none. The candidate, the
  // last grid sample before the exit, is confirmed with the marcher's own
  // arithmetic: t within tmax (so the reference would not have stopped
  // among the skipped samples) and its stencil base still in the cell.
  // Per axis, positions and bases are monotone in i, so every sample in
  // between lies in the cell as well.
  const auto last_in_cell = [&](const Vec3& o, float tmax, std::int64_t i,
                                const int cell_lo[3]) -> std::int64_t {
    float t_exit = tmax;
    for (int a = 0; a < 3; ++a) {
      if (dir[a] == 0.0f) continue;
      t_exit = std::min(t_exit, (static_cast<float>(cell_lo[a]) + face[a] - o[a]) * inv_dir[a]);
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

}  // namespace

void render_brick(const vol::Volume& volume, const vol::TransferFunction& tf,
                  const OrthoCamera& camera, const vol::Brick& brick, img::Image& out,
                  const RaycastOptions& options, RenderStats* stats) {
  march(Storage{volume, {0, 0, 0}}, tf, camera, brick, out, options, stats);
}

void render_ghost_brick(const vol::GhostBrick& ghost, const vol::TransferFunction& tf,
                        const OrthoCamera& camera, img::Image& out,
                        const RaycastOptions& options, RenderStats* stats) {
  // The wire header carries the storage's global origin.
  const vol::GhostBrick::WireHeader header = ghost.wire_header();
  march(Storage{ghost.data(), {header.ox, header.oy, header.oz}}, tf, camera, ghost.brick(),
        out, options, stats);
}

void render_brick_reference(const vol::Volume& volume, const vol::TransferFunction& tf,
                            const OrthoCamera& camera, const vol::Brick& brick,
                            img::Image& out, const RaycastOptions& options,
                            RenderStats* stats) {
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
