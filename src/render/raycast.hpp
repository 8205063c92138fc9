// Front-to-back ray-casting volume renderer (Levoy-style), the rendering
// phase of the sort-last pipeline. Each PE renders only its brick; sample
// positions lie on a global grid, so brick images composite exactly.
#pragma once

#include <cstdint>

#include "image/image.hpp"
#include "render/camera.hpp"
#include "volume/ghost.hpp"
#include "volume/transfer_function.hpp"
#include "volume/volume.hpp"

namespace slspvr::render {

struct RaycastOptions {
  /// Sample spacing in voxel units. Must be finite and > 0: the renderers
  /// throw std::invalid_argument otherwise.
  float step = 1.0f;
  float early_termination = 0.995f;     ///< stop once accumulated opacity passes this
  float min_alpha = 1.0f / 512.0f;      ///< samples below this opacity are skipped
};

struct RenderStats {
  std::int64_t rays = 0;     ///< rays that intersected the brick
  /// Density samples actually taken. render_brick and render_ghost_brick
  /// jump over transparent cells without sampling them, so they count fewer
  /// samples than render_brick_reference for the same image.
  std::int64_t samples = 0;
};

/// Render the portion of `volume` inside `brick` into `out` (which must be
/// camera-sized; pixels not covered stay blank). Accumulation is
/// front-to-back premultiplied `over`, producing gray (r==g==b) pixels.
///
/// Empty-space skipping: rays walk only the brick's projected screen
/// rectangle and jump across 8^3-voxel cells in which every sample would
/// classify below `min_alpha`. Only samples render_brick_reference takes and
/// then discards are skipped, so images are byte-identical to it. Where
/// img::kern::active_isa() is AVX2, eight adjacent rays of a row march at
/// once, one per SIMD lane, each with the scalar march's arithmetic: images,
/// `rays` and `samples` do not depend on the ISA.
void render_brick(const vol::Volume& volume, const vol::TransferFunction& tf,
                  const OrthoCamera& camera, const vol::Brick& brick, img::Image& out,
                  const RaycastOptions& options = {}, RenderStats* stats = nullptr);

/// Render from a PE-local ghost brick (the distributed-memory path: the PE
/// holds only its subvolume + one-voxel ghost layer). Bit-identical to
/// render_brick over the same brick of the full volume.
void render_ghost_brick(const vol::GhostBrick& ghost, const vol::TransferFunction& tf,
                        const OrthoCamera& camera, img::Image& out,
                        const RaycastOptions& options = {}, RenderStats* stats = nullptr);

/// The plain marcher: every pixel, every owned sample of the global grid
/// sampled and classified. The oracle render_brick and render_ghost_brick are
/// tested against (byte-identical images, equal `rays`), as
/// core::composite_reference is for the compositors.
void render_brick_reference(const vol::Volume& volume, const vol::TransferFunction& tf,
                            const OrthoCamera& camera, const vol::Brick& brick,
                            img::Image& out, const RaycastOptions& options = {},
                            RenderStats* stats = nullptr);

/// Convenience: render the whole volume (the sequential reference renderer).
inline void render_full(const vol::Volume& volume, const vol::TransferFunction& tf,
                        const OrthoCamera& camera, img::Image& out,
                        const RaycastOptions& options = {}, RenderStats* stats = nullptr) {
  render_brick(volume, tf, camera, vol::Brick::whole(volume.dims()), out, options, stats);
}

}  // namespace slspvr::render
