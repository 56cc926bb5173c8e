#include <gtest/gtest.h>

#include <limits>

#include "tensor/einsum.h"
#include "tensor/mesh.h"
#include "tensor/shape.h"
#include "tensor/sharding.h"
#include "tensor/tensor.h"

namespace overlap {
namespace {

TEST(ShapeTest, Basics)
{
    Shape s(DType::kF32, {2, 3, 4});
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.num_elements(), 24);
    EXPECT_EQ(s.byte_size(), 96);
    EXPECT_EQ(s.ToString(), "f32[2,3,4]");
}

TEST(ShapeTest, ScalarAndDTypes)
{
    Shape scalar(DType::kBF16, {});
    EXPECT_EQ(scalar.rank(), 0);
    EXPECT_EQ(scalar.num_elements(), 1);
    EXPECT_EQ(scalar.byte_size(), 2);
    EXPECT_EQ(DTypeSize(DType::kF32), 4);
    EXPECT_EQ(DTypeSize(DType::kPred), 1);
}

TEST(ShapeTest, EqualityIgnoresNothing)
{
    Shape a(DType::kF32, {2, 2});
    Shape b(DType::kBF16, {2, 2});
    EXPECT_NE(a, b);
    EXPECT_TRUE(a.SameDims(b));
}

TEST(TensorTest, IotaAndIndexing)
{
    Tensor t = Tensor::Iota(Shape({2, 3}));
    EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
    EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0f);
    t.set({1, 0}, 42.0f);
    EXPECT_FLOAT_EQ(t.at({1, 0}), 42.0f);
}

TEST(TensorTest, SliceAndUpdateSlice)
{
    Tensor t = Tensor::Iota(Shape({4, 4}));
    Tensor s = t.Slice({1, 2}, {2, 2});
    EXPECT_FLOAT_EQ(s.at({0, 0}), 6.0f);
    EXPECT_FLOAT_EQ(s.at({1, 1}), 11.0f);

    Tensor updated = t.UpdateSlice(Tensor::Full(Shape({2, 2}), -1.0f),
                                   {0, 0});
    EXPECT_FLOAT_EQ(updated.at({0, 0}), -1.0f);
    EXPECT_FLOAT_EQ(updated.at({1, 1}), -1.0f);
    EXPECT_FLOAT_EQ(updated.at({2, 2}), 10.0f);
}

TEST(TensorTest, SliceClampsLikeXla)
{
    // XLA DynamicSlice clamps start indices so the slice stays in bounds.
    Tensor t = Tensor::Iota(Shape({4}));
    Tensor s = t.Slice({3}, {2});
    EXPECT_FLOAT_EQ(s.at({0}), 2.0f);
    EXPECT_FLOAT_EQ(s.at({1}), 3.0f);
}

TEST(TensorTest, ConcatenatePadTranspose)
{
    Tensor a = Tensor::Full(Shape({1, 2}), 1.0f);
    Tensor b = Tensor::Full(Shape({1, 2}), 2.0f);
    Tensor c = Tensor::Concatenate({a, b}, 0);
    EXPECT_EQ(c.shape().dims(), (std::vector<int64_t>{2, 2}));
    EXPECT_FLOAT_EQ(c.at({1, 0}), 2.0f);

    Tensor padded = a.Pad({0, 1}, {0, 1}, 9.0f);
    EXPECT_EQ(padded.shape().dims(), (std::vector<int64_t>{1, 4}));
    EXPECT_FLOAT_EQ(padded.at({0, 0}), 9.0f);
    EXPECT_FLOAT_EQ(padded.at({0, 1}), 1.0f);

    Tensor t = Tensor::Iota(Shape({2, 3}));
    Tensor tt = t.Transpose({1, 0});
    EXPECT_EQ(tt.shape().dims(), (std::vector<int64_t>{3, 2}));
    EXPECT_FLOAT_EQ(tt.at({2, 1}), t.at({1, 2}));
}

TEST(TensorTest, AllCloseAndMaxAbsDiff)
{
    Tensor a = Tensor::Iota(Shape({4}));
    Tensor b = a;
    b.set({2}, 2.5f);
    EXPECT_FLOAT_EQ(Tensor::MaxAbsDiff(a, b), 0.5f);
    EXPECT_TRUE(a.AllClose(b, 0.6f));
    EXPECT_FALSE(a.AllClose(b, 0.4f));

    // A NaN anywhere is a mismatch at any tolerance: in the candidate,
    // in the reference, or at the same position in both.
    const float kNaN = std::numeric_limits<float>::quiet_NaN();
    const float kInf = std::numeric_limits<float>::infinity();
    Tensor nan_candidate = a;
    nan_candidate.set({1}, kNaN);
    EXPECT_EQ(Tensor::MaxAbsDiff(a, nan_candidate), kInf);
    EXPECT_FALSE(a.AllClose(nan_candidate, 1e9f));
    EXPECT_EQ(Tensor::MaxAbsDiff(nan_candidate, a), kInf);
    EXPECT_FALSE(nan_candidate.AllClose(a, 1e9f));
    Tensor nan_both = nan_candidate;
    EXPECT_EQ(Tensor::MaxAbsDiff(nan_candidate, nan_both), kInf);
    EXPECT_FALSE(nan_candidate.AllClose(nan_both, 1e9f));
}

TEST(TensorTest, RandomIsDeterministic)
{
    Tensor a = Tensor::Random(Shape({8}), 7);
    Tensor b = Tensor::Random(Shape({8}), 7);
    Tensor c = Tensor::Random(Shape({8}), 8);
    EXPECT_TRUE(a.AllClose(b, 0.0f));
    EXPECT_FALSE(a.AllClose(c, 1e-6f));
}

TEST(EinsumTest, ParseClassifiesDims)
{
    auto spec = EinsumSpec::Parse("bf,fh->bh");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->KindOf('b'), EinsumDimKind::kLhsFree);
    EXPECT_EQ(spec->KindOf('f'), EinsumDimKind::kContracting);
    EXPECT_EQ(spec->KindOf('h'), EinsumDimKind::kRhsFree);
    EXPECT_EQ(spec->ToString(), "bf,fh->bh");
}

TEST(EinsumTest, BatchDims)
{
    auto spec = EinsumSpec::Parse("bmf,bfh->bmh");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->KindOf('b'), EinsumDimKind::kBatch);
    EXPECT_EQ(spec->KindOf('m'), EinsumDimKind::kLhsFree);
    EXPECT_EQ(spec->KindOf('f'), EinsumDimKind::kContracting);
}

TEST(EinsumTest, RejectsMalformedSpecs)
{
    EXPECT_FALSE(EinsumSpec::Parse("bf,fh").ok());
    EXPECT_FALSE(EinsumSpec::Parse("bffh->bh").ok());
    EXPECT_FALSE(EinsumSpec::Parse("bb,bh->bh").ok());
    EXPECT_FALSE(EinsumSpec::Parse("bf,fh->bx").ok());
    // A label present in one input only and absent from the output is a
    // reduction this engine does not support.
    EXPECT_FALSE(EinsumSpec::Parse("bf,fh->h").ok());
}

TEST(EinsumTest, MatmulMatchesManual)
{
    auto spec = EinsumSpec::Parse("mk,kn->mn");
    ASSERT_TRUE(spec.ok());
    Tensor a = Tensor::Iota(Shape({2, 3}));
    Tensor b = Tensor::Iota(Shape({3, 2}));
    auto c = spec->Evaluate(a, b);
    ASSERT_TRUE(c.ok());
    // Row 0 of a = [0,1,2]; column 0 of b = [0,2,4] -> 10.
    EXPECT_FLOAT_EQ(c->at({0, 0}), 10.0f);
    EXPECT_FLOAT_EQ(c->at({0, 1}), 13.0f);
    EXPECT_FLOAT_EQ(c->at({1, 0}), 28.0f);
    EXPECT_FLOAT_EQ(c->at({1, 1}), 40.0f);
}

TEST(EinsumTest, BatchedMatmul)
{
    auto spec = EinsumSpec::Parse("bmk,bkn->bmn");
    ASSERT_TRUE(spec.ok());
    Tensor a = Tensor::Random(Shape({2, 3, 4}), 1);
    Tensor b = Tensor::Random(Shape({2, 4, 5}), 2);
    auto c = spec->Evaluate(a, b);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->shape().dims(), (std::vector<int64_t>{2, 3, 5}));
    // Check one element against a manual contraction.
    float expect = 0.0f;
    for (int64_t k = 0; k < 4; ++k) {
        expect += a.at({1, 2, k}) * b.at({1, k, 3});
    }
    EXPECT_NEAR(c->at({1, 2, 3}), expect, 1e-5f);
}

TEST(EinsumTest, FlopCount)
{
    auto spec = EinsumSpec::Parse("mk,kn->mn");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->FlopCount(Shape({8, 16}), Shape({16, 32})),
              2 * 8 * 16 * 32);
}

TEST(EinsumTest, ShapeMismatchReported)
{
    auto spec = EinsumSpec::Parse("mk,kn->mn");
    ASSERT_TRUE(spec.ok());
    auto bad = spec->InferOutputShape(Shape({2, 3}), Shape({4, 5}));
    EXPECT_FALSE(bad.ok());
}

TEST(MeshTest, CoordsRoundTrip)
{
    Mesh mesh(2, 4);
    EXPECT_EQ(mesh.num_devices(), 8);
    for (int64_t d = 0; d < 8; ++d) {
        EXPECT_EQ(mesh.DeviceAt(mesh.Coords(d)), d);
    }
    EXPECT_EQ(mesh.Coords(5), (std::vector<int64_t>{1, 1}));
}

TEST(MeshTest, GroupsAlongAxes)
{
    Mesh mesh(2, 3);
    // y groups {0,1,2},{3,4,5}; x groups {0,3},{1,4},{2,5}.
    DeviceGroups y = mesh.AxisGroups(1);
    EXPECT_EQ(y, (DeviceGroups{.size = 3, .stride = 1}));
    EXPECT_EQ(y.Member(4, 0), 3);
    EXPECT_EQ(y.Member(4, 2), 5);
    EXPECT_EQ(y.Position(5), 2);
    DeviceGroups x = mesh.AxisGroups(0);
    EXPECT_EQ(x, (DeviceGroups{.size = 2, .stride = 3}));
    EXPECT_EQ(x.Member(0, 1), 3);
    EXPECT_EQ(x.Member(5, 0), 2);
    EXPECT_EQ(x.Position(4), 1);
    for (int64_t axis = 0; axis < 2; ++axis) {
        for (int64_t d = 0; d < 6; ++d) {
            EXPECT_EQ(mesh.AxisGroups(axis).Position(d),
                      mesh.PositionInGroup(d, axis));
        }
    }
}

TEST(MeshTest, RingNeighborWraps)
{
    Mesh mesh(4);
    EXPECT_EQ(mesh.RingNeighbor(3, 0, 1), 0);
    EXPECT_EQ(mesh.RingNeighbor(0, 0, -1), 3);
    Mesh torus(2, 4);
    EXPECT_EQ(torus.RingNeighbor(4, 1, 1), 5);
    EXPECT_EQ(torus.RingNeighbor(7, 1, 1), 4);
    EXPECT_EQ(torus.RingNeighbor(1, 0, 1), 5);
}

TEST(MeshTest, RingNeighborMatchesCoordinateArithmetic)
{
    // Stride arithmetic must agree with decoding the coordinates,
    // stepping one of them around its ring and re-encoding, on every
    // axis (the size-1 axis maps each device to itself) and for steps
    // beyond one lap in both directions.
    Mesh mesh(std::vector<int64_t>{3, 1, 4});
    for (int64_t axis = 0; axis < mesh.num_axes(); ++axis) {
        int64_t size = mesh.axis_size(axis);
        for (int64_t d = 0; d < mesh.num_devices(); ++d) {
            for (int64_t step : {-5, -1, 0, 1, 2, 7}) {
                std::vector<int64_t> coords = mesh.Coords(d);
                int64_t& c = coords[static_cast<size_t>(axis)];
                c = ((c + step) % size + size) % size;
                EXPECT_EQ(mesh.RingNeighbor(d, axis, step),
                          mesh.DeviceAt(coords))
                    << "device " << d << " axis " << axis << " step "
                    << step;
            }
        }
    }
}

TEST(MeshTest, AxisOf)
{
    Mesh mesh(2, 4);
    EXPECT_EQ(mesh.AxisOf(mesh.AxisGroups(0)), 0);
    EXPECT_EQ(mesh.AxisOf(mesh.AxisGroups(1)), 1);
    EXPECT_EQ(mesh.AxisOf(mesh.RingShift(1, 1)), 1);
    // Whole-mesh groups match no single axis of a 2-D mesh...
    EXPECT_EQ(mesh.AxisOf(DeviceGroups{.size = 8, .stride = 1}), -1);
    // ...nor does a right-sized group with the wrong stride.
    EXPECT_EQ(mesh.AxisOf(DeviceGroups{.size = 2, .stride = 1}), -1);
    EXPECT_EQ(mesh.AxisOf(DeviceGroups{.size = 4, .stride = 2}), -1);
    // On a 1-D mesh the whole mesh is axis 0.
    EXPECT_EQ(Mesh(8).AxisOf(DeviceGroups{.size = 8, .stride = 1}), 0);
    // Singleton groups are the same device lists at any stride.
    EXPECT_EQ(Mesh(1, 4).AxisOf(DeviceGroups{.size = 1, .stride = 1}), 0);
}

TEST(MeshTest, DeviceGroupsValidateTilingAndShift)
{
    const int64_t n = 8;
    EXPECT_TRUE(Mesh(2, 4).AxisGroups(0).Validate(n, false).ok());
    EXPECT_TRUE(Mesh(2, 4).RingShift(0, 1).Validate(n, true).ok());
    EXPECT_FALSE((DeviceGroups{.size = 0, .stride = 1}).Validate(n, false)
                     .ok());
    EXPECT_FALSE((DeviceGroups{.size = 2, .stride = 0}).Validate(n, false)
                     .ok());
    // 3 x 1 and 2 x 3 do not divide 8 devices.
    EXPECT_FALSE((DeviceGroups{.size = 3, .stride = 1}).Validate(n, false)
                     .ok());
    EXPECT_FALSE((DeviceGroups{.size = 2, .stride = 3}).Validate(n, false)
                     .ok());
    // Without a mesh only the shape of the descriptor is checked.
    EXPECT_TRUE((DeviceGroups{.size = 3, .stride = 1}).Validate(-1, false)
                    .ok());
    // A permute needs a non-identity shift; nothing else may shift.
    EXPECT_FALSE((DeviceGroups{.size = 4, .stride = 1, .shift = 4})
                     .Validate(n, true)
                     .ok());
    EXPECT_FALSE((DeviceGroups{.size = 4, .stride = 1, .shift = 0})
                     .Validate(n, true)
                     .ok());
    EXPECT_FALSE((DeviceGroups{.size = 4, .stride = 1, .shift = 1})
                     .Validate(n, false)
                     .ok());
}

TEST(ShardingTest, ShardShapeAndOffsets)
{
    Mesh mesh(2, 4);
    Shape global(DType::kF32, {8, 12});
    TensorSharding sharding = TensorSharding::OnDims(2, 0, 0, 1, 1);
    ASSERT_TRUE(sharding.Validate(global, mesh).ok());
    EXPECT_EQ(sharding.ShardShape(global, mesh).dims(),
              (std::vector<int64_t>{4, 3}));
    EXPECT_EQ(sharding.ShardOffsets(global, mesh, 0),
              (std::vector<int64_t>{0, 0}));
    EXPECT_EQ(sharding.ShardOffsets(global, mesh, 6),
              (std::vector<int64_t>{4, 6}));
}

TEST(ShardingTest, ValidationCatchesBadConfigs)
{
    Mesh mesh(2, 4);
    Shape global(DType::kF32, {7, 12});
    // 7 not divisible by 2.
    EXPECT_FALSE(
        TensorSharding::OnDim(2, 0, 0).Validate(global, mesh).ok());
    // Axis out of range.
    EXPECT_FALSE(
        TensorSharding::OnDim(2, 1, 5).Validate(global, mesh).ok());
    // Same mesh axis on two dims.
    EXPECT_FALSE(TensorSharding::OnDims(2, 0, 1, 1, 1)
                     .Validate(Shape(DType::kF32, {8, 12}), mesh)
                     .ok());
    EXPECT_TRUE(TensorSharding::Replicated(2).Validate(global, mesh).ok());
}

}  // namespace
}  // namespace overlap
