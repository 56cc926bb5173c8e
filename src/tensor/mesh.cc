#include "tensor/mesh.h"

#include "support/status.h"
#include "support/strings.h"

namespace overlap {

Mesh::Mesh(std::vector<int64_t> dims) : dims_(std::move(dims))
{
    OVERLAP_CHECK(!dims_.empty());
    for (int64_t d : dims_) OVERLAP_CHECK(d >= 1);
}

int64_t
Mesh::num_devices() const
{
    int64_t n = 1;
    for (int64_t d : dims_) n *= d;
    return n;
}

std::vector<int64_t>
Mesh::Coords(int64_t device) const
{
    OVERLAP_CHECK(device >= 0 && device < num_devices());
    std::vector<int64_t> coords(dims_.size());
    for (int64_t a = static_cast<int64_t>(dims_.size()) - 1; a >= 0; --a) {
        coords[static_cast<size_t>(a)] = device % dims_[static_cast<size_t>(a)];
        device /= dims_[static_cast<size_t>(a)];
    }
    return coords;
}

int64_t
Mesh::DeviceAt(const std::vector<int64_t>& coords) const
{
    OVERLAP_CHECK(coords.size() == dims_.size());
    int64_t device = 0;
    for (size_t a = 0; a < dims_.size(); ++a) {
        OVERLAP_CHECK(coords[a] >= 0 && coords[a] < dims_[a]);
        device = device * dims_[a] + coords[a];
    }
    return device;
}

int64_t
Mesh::PositionInGroup(int64_t device, int64_t axis) const
{
    return Coords(device)[static_cast<size_t>(axis)];
}

int64_t
Mesh::RingNeighbor(int64_t device, int64_t axis, int64_t step) const
{
    OVERLAP_CHECK(device >= 0 && device < num_devices());
    DeviceGroups groups = AxisGroups(axis);
    int64_t size = groups.size;
    return groups.Member(
        device, ((groups.Position(device) + step) % size + size) % size);
}

std::string
Mesh::ToString() const
{
    return StrCat("mesh[", StrJoin(dims_, ","), "]");
}

DeviceGroups
Mesh::AxisGroups(int64_t axis) const
{
    OVERLAP_CHECK(axis >= 0 && axis < num_axes());
    DeviceGroups groups;
    groups.size = dims_[static_cast<size_t>(axis)];
    for (size_t a = static_cast<size_t>(axis) + 1; a < dims_.size(); ++a) {
        groups.stride *= dims_[a];
    }
    return groups;
}

DeviceGroups
Mesh::RingShift(int64_t axis, int64_t step) const
{
    DeviceGroups groups = AxisGroups(axis);
    groups.shift = (step % groups.size + groups.size) % groups.size;
    OVERLAP_CHECK(groups.shift != 0);
    return groups;
}

int64_t
Mesh::AxisOf(const DeviceGroups& groups) const
{
    for (int64_t axis = 0; axis < num_axes(); ++axis) {
        DeviceGroups along = AxisGroups(axis);
        // Singleton groups are the same device lists at any stride.
        if (groups.size == along.size &&
            (groups.size == 1 || groups.stride == along.stride)) {
            return axis;
        }
    }
    return -1;
}

Status
DeviceGroups::Validate(int64_t num_devices, bool permute) const
{
    if (size < 1 || stride < 1) {
        return InvalidArgument(
            StrCat("collective groups ", ToString(),
                   " need size >= 1 and stride >= 1"));
    }
    if (num_devices > 0 &&
        (size > num_devices || stride > num_devices ||
         num_devices % (size * stride) != 0)) {
        return InvalidArgument(StrCat("collective groups ", ToString(),
                                      " do not tile the ", num_devices,
                                      "-device mesh"));
    }
    if (permute && shift % size == 0) {
        return InvalidArgument(StrCat("collective-permute groups ",
                                      ToString(), " shift nothing"));
    }
    if (!permute && shift != 0) {
        return InvalidArgument(StrCat("ring shift on a non-permute ",
                                      "collective: ", ToString()));
    }
    return Status::Ok();
}

std::string
DeviceGroups::ToString() const
{
    std::string out = StrCat("{size=", size, ",stride=", stride);
    if (shift != 0) out += StrCat(",shift=", shift);
    return out + "}";
}

}  // namespace overlap
