// Front-to-back ray-casting volume renderer (Levoy-style), the rendering
// phase of the sort-last pipeline. Each PE renders only its brick; sample
// positions lie on a global grid, so brick images composite exactly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

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

  friend bool operator==(const RaycastOptions&, const RaycastOptions&) = default;
};

struct RenderStats {
  std::int64_t rays = 0;     ///< rays that intersected the brick
  /// Density samples actually taken. BrickRenderer, and so render_brick and
  /// render_ghost_brick, jumps over transparent cells without sampling them,
  /// so it counts fewer samples than render_brick_reference for the same
  /// image.
  std::int64_t samples = 0;
};

/// One brick prepared for rendering from any view. The constructor builds
/// what does not depend on the camera: the classification table and the
/// grid of transparent 8^3-voxel cells. render() marches one view. An owner
/// that renders the same brick view after view keeps one (KeptRenderers).
///
/// Accumulation is front-to-back premultiplied `over`, producing gray
/// (r==g==b) pixels. Empty-space skipping: rays walk only the brick's
/// projected screen rectangle and jump across cells in which every sample
/// would classify below `min_alpha`. Only samples render_brick_reference
/// takes and then discards are skipped, so images are byte-identical to it.
/// Where img::kern::active_isa() is AVX2 at the render() call, eight
/// adjacent rays of a row march at once, one per SIMD lane, each with the
/// scalar march's arithmetic: images, `rays` and `samples` do not depend on
/// the ISA.
///
/// The renderer reads its voxels from the volume (or ghost brick) it was
/// built from, which must outlive it and stay unchanged. It is immutable,
/// so concurrent render() calls are safe.
class BrickRenderer {
 public:
  /// Prepare `brick` of `volume`. Throws std::invalid_argument when
  /// `options.step` is not finite and > 0, or when the brick is not empty
  /// and the volume has no voxels.
  BrickRenderer(const vol::Volume& volume, const vol::TransferFunction& tf,
                const vol::Brick& brick, const RaycastOptions& options = {});
  /// Prepare a PE-local ghost brick (the distributed-memory path: the PE
  /// holds only its subvolume + one-voxel ghost layer). Renders
  /// bit-identically to the same brick of the full volume.
  BrickRenderer(const vol::GhostBrick& ghost, const vol::TransferFunction& tf,
                const RaycastOptions& options = {});
  ~BrickRenderer();
  BrickRenderer(BrickRenderer&&) noexcept;
  BrickRenderer& operator=(BrickRenderer&&) noexcept;

  /// Render the brick as seen by `camera` into `out` (which must be
  /// camera-sized; pixels not covered stay blank).
  void render(const OrthoCamera& camera, img::Image& out, RenderStats* stats = nullptr) const;

  /// Whether this renderer renders `brick` of `volume` with `options`.
  [[nodiscard]] bool prepared_for(const vol::Volume& volume, const vol::Brick& brick,
                                  const RaycastOptions& options) const noexcept;

 private:
  struct Prepared;
  std::unique_ptr<const Prepared> prepared_;
};

/// The renderers an owner keeps for bricks it renders view after view, one
/// per slot: a resident sequence worker keeps one for its rank's brick, a
/// FrameService session one per brick of its volume. A slot's renderer is
/// prepared on the slot's first render and again only when the volume, the
/// brick or the options change. The volume and transfer function must
/// outlive the renderers and stay unchanged.
///
/// One render per slot at a time: render() calls on distinct slots may run
/// concurrently once reserve() has made those slots exist. A render() on a
/// slot past the reserved ones grows the slots, so it must run alone.
class KeptRenderers {
 public:
  /// Make slots 0..`slots`-1 exist (it never removes one). Not concurrent
  /// with render().
  void reserve(std::size_t slots);

  void render(std::size_t slot, const vol::Volume& volume, const vol::TransferFunction& tf,
              const vol::Brick& brick, const OrthoCamera& camera, img::Image& out,
              const RaycastOptions& options = {}, RenderStats* stats = nullptr);

  /// Renderers prepared so far, by every slot.
  [[nodiscard]] std::int64_t prepares() const noexcept { return prepares_.load(); }

 private:
  std::vector<std::optional<BrickRenderer>> slots_;
  std::atomic<std::int64_t> prepares_{0};
};

/// Render the portion of `volume` inside `brick` into `out`, preparing the
/// brick for this one call: BrickRenderer(volume, tf, brick, options)
/// .render(camera, out, stats).
void render_brick(const vol::Volume& volume, const vol::TransferFunction& tf,
                  const OrthoCamera& camera, const vol::Brick& brick, img::Image& out,
                  const RaycastOptions& options = {}, RenderStats* stats = nullptr);

/// Render from a PE-local ghost brick, preparing it for this one call:
/// BrickRenderer(ghost, tf, options).render(camera, out, stats).
void render_ghost_brick(const vol::GhostBrick& ghost, const vol::TransferFunction& tf,
                        const OrthoCamera& camera, img::Image& out,
                        const RaycastOptions& options = {}, RenderStats* stats = nullptr);

/// The plain marcher: every pixel, every owned sample of the global grid
/// sampled and classified. The oracle render_brick and render_ghost_brick are
/// tested against (byte-identical images, equal `rays`), as
/// core::composite_reference is for the compositors. Throws
/// std::invalid_argument as the BrickRenderer constructors do.
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
