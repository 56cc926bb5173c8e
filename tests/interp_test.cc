#include <gtest/gtest.h>

#include <limits>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "interp/comparison.h"
#include "interp/evaluator.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::ShardTensor;

TEST(EvaluatorTest, GlobalEinsum)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* lhs = b.Parameter(0, Shape({2, 3}));
    auto* rhs = b.Parameter(1, Shape({3, 2}));
    comp->set_root(b.Einsum(lhs, rhs, "mk,kn->mn"));
    auto result = EvaluateGlobal(*comp, {Tensor::Iota(Shape({2, 3})),
                                         Tensor::Iota(Shape({3, 2}))});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ(result->at({0, 0}), 10.0f);
}

TEST(EvaluatorTest, PartitionIdAndAxisIndex)
{
    Mesh mesh(2, 3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    comp->set_root(b.AxisIndex(1));
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(*comp, {});
    ASSERT_TRUE(result.ok());
    for (int64_t d = 0; d < 6; ++d) {
        EXPECT_FLOAT_EQ((*result)[static_cast<size_t>(d)].ScalarValue(),
                        static_cast<float>(d % 3));
    }
}

TEST(EvaluatorTest, AllGatherConcatenatesInGroupOrder)
{
    Mesh mesh(4);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1, 2}));
    comp->set_root(b.AllGather(p, 0, mesh.AxisGroups(0)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> shards;
    for (int64_t d = 0; d < 4; ++d) {
        shards.push_back(Tensor::Full(Shape({1, 2}),
                                      static_cast<float>(d)));
    }
    auto result = eval.Evaluate(*comp, {shards});
    ASSERT_TRUE(result.ok());
    for (int64_t d = 0; d < 4; ++d) {
        const Tensor& t = (*result)[static_cast<size_t>(d)];
        EXPECT_EQ(t.shape().dims(), (std::vector<int64_t>{4, 2}));
        for (int64_t row = 0; row < 4; ++row) {
            EXPECT_FLOAT_EQ(t.at({row, 0}), static_cast<float>(row));
        }
    }
}

TEST(EvaluatorTest, ReduceScatterSumsAndSlices)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({4}));
    comp->set_root(b.ReduceScatter(p, 0, mesh.AxisGroups(0)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {
        Tensor(Shape({4}), {1, 2, 3, 4}),
        Tensor(Shape({4}), {10, 20, 30, 40}),
    };
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 11.0f);
    EXPECT_FLOAT_EQ((*result)[0].at({1}), 22.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 33.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({1}), 44.0f);
}

TEST(EvaluatorTest, AllReduceSubgroups)
{
    Mesh mesh(2, 2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    comp->set_root(b.AllReduce(p, mesh.AxisGroups(1)));  // rows {0,1},{2,3}
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs;
    for (int64_t d = 0; d < 4; ++d) {
        inputs.push_back(Tensor(Shape({1}), {static_cast<float>(1 << d)}));
    }
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 3.0f);   // 1 + 2
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 3.0f);
    EXPECT_FLOAT_EQ((*result)[2].at({0}), 12.0f);  // 4 + 8
    EXPECT_FLOAT_EQ((*result)[3].at({0}), 12.0f);
}

TEST(EvaluatorTest, AllToAllTransposesShards)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    comp->set_root(b.AllToAll(p, 0, mesh.AxisGroups(0)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({2}), {1, 2}),
                                  Tensor(Shape({2}), {3, 4})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 1.0f);
    EXPECT_FLOAT_EQ((*result)[0].at({1}), 3.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 2.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({1}), 4.0f);
}

TEST(EvaluatorTest, CollectivePermuteShiftsAroundTheRing)
{
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    // Data moves one position up: 0 -> 1, 1 -> 2, 2 -> 0.
    comp->set_root(b.CollectivePermute(p, mesh.RingShift(0, -1)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({1}), {5}),
                                  Tensor(Shape({1}), {6}),
                                  Tensor(Shape({1}), {7})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 7.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 5.0f);
    EXPECT_FLOAT_EQ((*result)[2].at({0}), 6.0f);
}

TEST(EvaluatorTest, CollectivePermuteStaysInStridedRings)
{
    // Axis 0 of a [2,2] torus: rings {0,2} and {1,3}.
    Mesh mesh(2, 2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    comp->set_root(b.CollectivePermute(p, mesh.RingShift(0, 1)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {
        Tensor(Shape({1}), {10}), Tensor(Shape({1}), {11}),
        Tensor(Shape({1}), {12}), Tensor(Shape({1}), {13})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 12.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 13.0f);
    EXPECT_FLOAT_EQ((*result)[2].at({0}), 10.0f);
    EXPECT_FLOAT_EQ((*result)[3].at({0}), 11.0f);
}

TEST(EvaluatorTest, AsyncPermutePairBehavesLikeSync)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    auto* start = b.CollectivePermuteStart(p, mesh.RingShift(0, 1));
    comp->set_root(b.CollectivePermuteDone(start));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({1}), {5}),
                                  Tensor(Shape({1}), {6})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 6.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 5.0f);
}

/** A three-device module whose only op permutes over `ring`. */
StatusOr<std::vector<Tensor>>
EvaluatePermute(DeviceGroups ring, bool async)
{
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    comp->set_root(async ? b.CollectivePermuteDone(
                               b.CollectivePermuteStart(p, ring))
                         : b.CollectivePermute(p, ring));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs(3, Tensor(Shape({1}), {1}));
    return eval.Evaluate(*comp, {inputs});
}

TEST(EvaluatorTest, CollectivePermuteRejectsIdentityShift)
{
    // Every device its own target: the descriptor's form of a permute
    // whose sources and targets collide.
    auto result =
        EvaluatePermute(DeviceGroups{.size = 3, .stride = 1, .shift = 3},
                        /*async=*/false);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("shift nothing"),
              std::string::npos)
        << result.status().ToString();
}

TEST(EvaluatorTest, CollectivePermuteRejectsZeroStride)
{
    auto result =
        EvaluatePermute(DeviceGroups{.size = 3, .stride = 0, .shift = 1},
                        /*async=*/false);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("stride >= 1"),
              std::string::npos)
        << result.status().ToString();
}

TEST(EvaluatorTest, CollectivePermuteRejectsGroupsBeyondMesh)
{
    auto result =
        EvaluatePermute(DeviceGroups{.size = 3, .stride = 2, .shift = 1},
                        /*async=*/false);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("do not tile"),
              std::string::npos)
        << result.status().ToString();
}

TEST(EvaluatorTest, AsyncStartValidatesGroupsLikeSyncOp)
{
    // Start/Done must behave identically to the sync op, including the
    // rejection of an identity shift.
    EXPECT_FALSE(
        EvaluatePermute(DeviceGroups{.size = 3, .stride = 1, .shift = 6},
                        /*async=*/true)
            .ok());
    EXPECT_TRUE(EvaluatePermute(Mesh(3).RingShift(0, 1), /*async=*/true)
                    .ok());
}

TEST(EvaluatorTest, EvaluateBatchSharesParams)
{
    Mesh mesh(2);
    HloModule add_module("add");
    HloComputation* add_comp = add_module.AddEntryComputation("main");
    {
        HloBuilder b(add_comp);
        auto* p = b.Parameter(0, Shape({1}));
        add_comp->set_root(b.Add(p, p));
    }
    HloModule neg_module("neg");
    HloComputation* neg_comp = neg_module.AddEntryComputation("main");
    {
        HloBuilder b(neg_comp);
        neg_comp->set_root(b.Negate(b.Parameter(0, Shape({1}))));
    }
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({1}), {3}),
                                  Tensor(Shape({1}), {4})};
    auto outputs = eval.EvaluateBatch({add_comp, neg_comp}, {inputs});
    ASSERT_TRUE(outputs.ok());
    ASSERT_EQ(outputs->size(), 2u);
    EXPECT_FLOAT_EQ((*outputs)[0][0].at({0}), 6.0f);
    EXPECT_FLOAT_EQ((*outputs)[0][1].at({0}), 8.0f);
    EXPECT_FLOAT_EQ((*outputs)[1][0].at({0}), -3.0f);
    EXPECT_FLOAT_EQ((*outputs)[1][1].at({0}), -4.0f);
}

TEST(ComparisonTest, ToleranceScalesWithDtypeAndReduction)
{
    EXPECT_LT(EquivalenceTolerance(DType::kF32, 16),
              EquivalenceTolerance(DType::kBF16, 16));
    EXPECT_LT(EquivalenceTolerance(DType::kF32, 4),
              EquivalenceTolerance(DType::kF32, 4096));
    EXPECT_EQ(EquivalenceTolerance(DType::kS32, 100), 0.0);
}

TEST(ComparisonTest, CompareOutputsFindsFirstMismatch)
{
    std::vector<Tensor> ref = {Tensor(Shape({2}), {1, 2}),
                               Tensor(Shape({2}), {3, 4})};
    std::vector<Tensor> same = ref;
    OutputComparison ok = CompareOutputs(ref, same, 1e-6);
    EXPECT_TRUE(ok.equal);
    EXPECT_EQ(ok.mismatched_devices, 0);
    EXPECT_EQ(ok.first_mismatch_device, -1);

    std::vector<Tensor> bad = {Tensor(Shape({2}), {1, 2}),
                               Tensor(Shape({2}), {3, 9})};
    OutputComparison cmp = CompareOutputs(ref, bad, 1e-6);
    EXPECT_FALSE(cmp.equal);
    EXPECT_EQ(cmp.mismatched_devices, 1);
    EXPECT_EQ(cmp.first_mismatch_device, 1);
    EXPECT_NEAR(cmp.max_abs_diff, 5.0, 1e-9);
    EXPECT_NE(cmp.ToString().find("MISMATCH"), std::string::npos);
}

TEST(ComparisonTest, NaNOutputIsAMismatch)
{
    std::vector<Tensor> ref = {Tensor(Shape({2}), {1, 2}),
                               Tensor(Shape({2}), {3, 4})};
    std::vector<Tensor> nan = {
        Tensor(Shape({2}), {1, 2}),
        Tensor(Shape({2}), {3, std::numeric_limits<float>::quiet_NaN()})};
    OutputComparison cmp = CompareOutputs(ref, nan, 1e9);
    EXPECT_FALSE(cmp.equal);
    EXPECT_EQ(cmp.mismatched_devices, 1);
    EXPECT_EQ(cmp.first_mismatch_device, 1);
    EXPECT_EQ(cmp.max_abs_diff, std::numeric_limits<double>::infinity());
    EXPECT_NE(cmp.ToString().find("max|d|=inf"), std::string::npos)
        << cmp.ToString();
}

TEST(ComparisonTest, ShapeDisagreementIsAMismatch)
{
    std::vector<Tensor> ref = {Tensor(Shape({2}), {1, 2})};
    std::vector<Tensor> other = {Tensor(Shape({3}), {1, 2, 3})};
    OutputComparison cmp = CompareOutputs(ref, other, 1e9);
    EXPECT_FALSE(cmp.equal);
}

TEST(EvaluatorTest, DynamicSliceUsesPerDeviceIndices)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({4}));
    auto* idx = b.Multiply(b.AxisIndex(0), b.ConstantIndex(2));
    comp->set_root(b.DynamicSliceOnDim(p, 0, idx, 2));
    SpmdEvaluator eval(mesh);
    Tensor data(Shape({4}), {1, 2, 3, 4});
    auto result = eval.Evaluate(*comp, {{data}});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 1.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 3.0f);
}

TEST(EvaluatorTest, MissingParameterReported)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    comp->set_root(b.Parameter(0, Shape({1})));
    SpmdEvaluator eval((Mesh(1)));
    auto result = eval.Evaluate(*comp, {});
    EXPECT_FALSE(result.ok());

    // A value of the wrong shape on one device fails the whole
    // evaluation with a message naming both shapes.
    Mesh mesh(3);
    HloModule reduce_module("r");
    HloComputation* reduce = reduce_module.AddEntryComputation("main");
    HloBuilder rb(reduce);
    auto* p = rb.Parameter(0, Shape({4}));
    reduce->set_root(rb.AllReduce(p, mesh.AxisGroups(0)));
    std::vector<std::vector<Tensor>> params(1);
    params[0] = {Tensor(Shape({4}), {1, 2, 3, 4}),
                 Tensor(Shape({4}), {5, 6, 7, 8}),
                 Tensor(Shape({5}), {9, 10, 11, 12, 13})};
    auto bad = SpmdEvaluator(mesh).Evaluate(*reduce, params);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bad.status().message(),
              "parameter 0 shape " + Shape({5}).ToString() +
                  " != declared " + Shape({4}).ToString());
}

TEST(EvaluatorTest, ShardRoundTripHelper)
{
    Mesh mesh(2, 2);
    Tensor global = Tensor::Iota(Shape({4, 4}));
    TensorSharding sharding = TensorSharding::OnDims(2, 0, 0, 1, 1);
    auto shards = ShardTensor(global, sharding, mesh);
    ASSERT_EQ(shards.size(), 4u);
    Tensor back = testing_util::UnshardTensor(shards, global.shape(),
                                              sharding, mesh);
    EXPECT_TRUE(back.AllClose(global, 0.0f));
}

}  // namespace
}  // namespace overlap
