#ifndef OVERLAP_TENSOR_MESH_H_
#define OVERLAP_TENSOR_MESH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace overlap {

/**
 * The device groups of a collective in iota form (XLA's iota
 * replica-group list): the devices split into groups of `size`, and
 * the group of device d is base + k*stride for k < size, in ring order
 * (base is the member at position 0). `size` x `stride` must divide the
 * device count, so groups are never ragged, never repeat a device and
 * always cover the mesh. A mesh axis is one such descriptor
 * (Mesh::AxisGroups).
 *
 * A CollectivePermute adds a ring `shift`: ring position j sends to
 * position (j - shift) mod size, i.e. data moves `shift` positions down
 * every ring (negative moves it up).
 */
struct DeviceGroups {
    /// Devices per group; 0 on instructions that are not collectives.
    int64_t size = 0;
    /// Device-id distance between ring neighbours.
    int64_t stride = 1;
    /// Permutes only: ring positions the data moves down.
    int64_t shift = 0;

    /** Ring position of `device` within its group. */
    int64_t Position(int64_t device) const
    {
        return (device / stride) % size;
    }

    /** The device at ring position `k` of `device`'s group. */
    int64_t Member(int64_t device, int64_t k) const
    {
        return device + (k - Position(device)) * stride;
    }

    /** Where `device` sends under the ring shift. */
    int64_t Target(int64_t device) const
    {
        return Member(device,
                      (Position(device) - shift % size + size) % size);
    }

    /**
     * OK iff the descriptor is well formed on a `num_devices` mesh
     * (<= 0: no mesh known, the tiling is not checked). A permute
     * needs a shift that is not a multiple of `size`; any other
     * collective needs shift 0. O(1).
     */
    Status Validate(int64_t num_devices, bool permute) const;

    /** Text form: "{size=4,stride=2}", plus ",shift=1" when nonzero. */
    std::string ToString() const;

    bool operator==(const DeviceGroups& other) const = default;
};

/**
 * A logical device mesh (1-D ring or 2-D torus) onto which tensors are
 * partitioned, mirroring the paper's [M, N] mesh of TPU chips.
 *
 * Axis 0 is "x" (size M) and axis 1 is "y" (size N), matching Figure 3:
 * a tensor dimension divided by M is partitioned along x, by N along y.
 * Device IDs are row-major over mesh coordinates.
 */
class Mesh {
  public:
    /** 1-D mesh (ring) of `n` devices. */
    explicit Mesh(int64_t n) : dims_{n} {}

    /** 2-D mesh (torus) of shape [m, n]. */
    Mesh(int64_t m, int64_t n) : dims_{m, n} {}

    /** Mesh of any rank, axis sizes in `dims` (each >= 1). */
    explicit Mesh(std::vector<int64_t> dims);

    int64_t num_axes() const { return static_cast<int64_t>(dims_.size()); }
    int64_t axis_size(int64_t axis) const { return dims_.at(axis); }
    int64_t num_devices() const;

    /** Mesh coordinates of a device ID (row-major). */
    std::vector<int64_t> Coords(int64_t device) const;

    /** Device ID for mesh coordinates. */
    int64_t DeviceAt(const std::vector<int64_t>& coords) const;

    /**
     * The groups along `axis` as a descriptor: the axis size, strided
     * by the product of the later axes (device IDs are row-major).
     */
    DeviceGroups AxisGroups(int64_t axis) const;

    /**
     * AxisGroups(axis) with ring shift `step` (a CollectivePermute that
     * moves data `step` positions down every ring of `axis`); `step`
     * must not be a multiple of the axis size.
     */
    DeviceGroups RingShift(int64_t axis, int64_t step) const;

    /**
     * The mesh axis `groups` run along, or -1 when none does (e.g.
     * whole-mesh groups on a 2-D mesh). O(axes).
     */
    int64_t AxisOf(const DeviceGroups& groups) const;

    /**
     * The position of `device` within its subgroup along `axis`
     * (its coordinate on that axis).
     */
    int64_t PositionInGroup(int64_t device, int64_t axis) const;

    /**
     * The device `step` positions further along the ring on `axis`
     * (wrapping), holding other coordinates fixed.
     */
    int64_t RingNeighbor(int64_t device, int64_t axis, int64_t step) const;

    std::string ToString() const;

    bool operator==(const Mesh& other) const { return dims_ == other.dims_; }

  private:
    std::vector<int64_t> dims_;
};

}  // namespace overlap

#endif  // OVERLAP_TENSOR_MESH_H_
