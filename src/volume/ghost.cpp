#include "volume/ghost.hpp"

#include <stdexcept>

namespace slspvr::vol {

GhostBrick GhostBrick::extract(const Volume& volume, const Brick& brick, int ghost) {
  if (ghost < 0) throw std::invalid_argument("GhostBrick: negative ghost width");
  GhostBrick out;
  out.brick_ = brick;
  out.ghost_ = ghost;
  out.ox_ = brick.x0 - ghost;
  out.oy_ = brick.y0 - ghost;
  out.oz_ = brick.z0 - ghost;
  const Dims dims{brick.x1 - brick.x0 + 2 * ghost, brick.y1 - brick.y0 + 2 * ghost,
                  brick.z1 - brick.z0 + 2 * ghost};
  // Voxels to read: with none, Volume::at_clamped clamps to index -1.
  if (dims.nx > 0 && dims.ny > 0 && dims.nz > 0 && volume.data().empty()) {
    throw std::invalid_argument("GhostBrick: cannot extract a non-empty brick from a volume "
                                "with no voxels");
  }
  out.data_ = Volume(dims);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        // Edge replication at the volume boundary == Volume::at_clamped, so
        // samples near the outer faces agree with the full-volume renderer.
        out.data_.at(x, y, z) =
            volume.at_clamped(out.ox_ + x, out.oy_ + y, out.oz_ + z);
      }
    }
  }
  return out;
}

GhostBrick::WireHeader GhostBrick::wire_header() const noexcept {
  return WireHeader{brick_.x0, brick_.y0, brick_.z0, brick_.x1, brick_.y1, brick_.z1,
                    ghost_,    ox_,       oy_,       oz_,
                    data_.dims().nx, data_.dims().ny, data_.dims().nz};
}

GhostBrick GhostBrick::from_wire(const WireHeader& header, std::vector<std::uint8_t> voxels) {
  GhostBrick out;
  out.brick_ = Brick{header.bx0, header.by0, header.bz0, header.bx1, header.by1, header.bz1};
  out.ghost_ = header.ghost;
  out.ox_ = header.ox;
  out.oy_ = header.oy;
  out.oz_ = header.oz;
  const Dims dims{header.nx, header.ny, header.nz};
  if (static_cast<std::int64_t>(voxels.size()) != dims.voxel_count()) {
    throw std::invalid_argument("GhostBrick::from_wire: voxel payload size mismatch");
  }
  out.data_ = Volume(dims);
  out.data_.data() = std::move(voxels);
  return out;
}

}  // namespace slspvr::vol
