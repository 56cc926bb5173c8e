/**
 * @file
 * Targeted tests for the less-travelled branches: the SpmdBuilder's
 * output-resharding fixups, the §5.5 candidate-preference rule, and
 * assorted edge cases of the passes.
 */
#include <gtest/gtest.h>

#include "hlo/builder.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "passes/decompose.h"
#include "spmd/spmd_builder.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::ShardTensor;
using testing_util::UnshardTensor;

int64_t
CountOps(const HloComputation& comp, HloOpcode opcode)
{
    int64_t count = 0;
    for (const HloInstruction* instr : comp.instructions()) {
        if (instr->opcode() == opcode) ++count;
    }
    return count;
}

TEST(SpmdPhase4Test, OutputAllGatherWhenDesiredReplicated)
{
    // Operand free dim is sharded but the caller wants the output
    // replicated on it: the builder gathers the operand up front, so no
    // output fixup and no residual sharding.
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    auto x = spmd.Parameter(0, Shape({4, 8}), TensorSharding::Replicated(2),
                            "x");
    auto w = spmd.Parameter(1, Shape({8, 8}),
                            TensorSharding::OnDim(2, 1, 0), "w");
    auto y = spmd.Einsum(*x, *w, "bf,fh->bh",
                         TensorSharding::Replicated(2));
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    comp->set_root(y->local);
    EXPECT_TRUE(y->sharding.IsReplicated());
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 1);

    Tensor gx = Tensor::Random(Shape({4, 8}), 1);
    Tensor gw = Tensor::Random(Shape({8, 8}), 2);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(
        *comp, {{gx}, ShardTensor(gw, TensorSharding::OnDim(2, 1, 0),
                                  mesh)});
    ASSERT_TRUE(result.ok());
    Tensor expect =
        EinsumSpec::Parse("bf,fh->bh")->Evaluate(gx, gw).value();
    EXPECT_TRUE((*result)[0].AllClose(expect, 1e-3f));
    EXPECT_TRUE((*result)[3].AllClose(expect, 1e-3f));
}

TEST(SpmdPhase4Test, LocalSliceWhenDesiredShardedButComputedFull)
{
    // Neither operand is sharded on the output's batch dim, but the
    // caller wants it sharded: the builder slices locally (no
    // communication at all).
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    auto x = spmd.Parameter(0, Shape({8, 8}), TensorSharding::Replicated(2),
                            "x");
    auto w = spmd.Parameter(1, Shape({8, 4}),
                            TensorSharding::Replicated(2), "w");
    auto y =
        spmd.Einsum(*x, *w, "bf,fh->bh", TensorSharding::OnDim(2, 0, 0));
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    comp->set_root(y->local);
    EXPECT_EQ(y->sharding.axis_for_dim(0), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllReduce), 0);
    EXPECT_GE(CountOps(*comp, HloOpcode::kDynamicSlice), 1);

    Tensor gx = Tensor::Random(Shape({8, 8}), 3);
    Tensor gw = Tensor::Random(Shape({8, 4}), 4);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(*comp, {{gx}, {gw}});
    ASSERT_TRUE(result.ok());
    Tensor expect =
        EinsumSpec::Parse("bf,fh->bh")->Evaluate(gx, gw).value();
    Tensor assembled = UnshardTensor(*result, expect.shape(),
                                     TensorSharding::OnDim(2, 0, 0), mesh);
    EXPECT_TRUE(assembled.AllClose(expect, 1e-3f));
}

TEST(SpmdPhase4Test, FreeLabelAxisChangeBecomesGatherThenSlice)
{
    // Operand free dim sharded on x, output wanted on y: the builder
    // gathers the operand and slices the result locally — a legitimate
    // (if communication-heavy) reshard.
    Mesh mesh(2, 2);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    auto x = spmd.Parameter(0, Shape({4, 8}),
                            TensorSharding::OnDim(2, 0, 0), "x");
    auto w = spmd.Parameter(1, Shape({8, 4}),
                            TensorSharding::Replicated(2), "w");
    auto y =
        spmd.Einsum(*x, *w, "bf,fh->bh", TensorSharding::OnDim(2, 0, 1));
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    comp->set_root(y->local);
    EXPECT_EQ(y->sharding.axis_for_dim(0), 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 1);
    EXPECT_GE(CountOps(*comp, HloOpcode::kDynamicSlice), 1);
}

TEST(SpmdPhase4Test, BatchAxisChangeIsUnimplemented)
{
    // Both operands batch-sharded on x, output wanted on y: a true
    // axis-to-axis reshard of an already-sharded output dim, declined.
    Mesh mesh(2, 2);
    HloModule module("m");
    module.set_mesh(mesh);
    SpmdBuilder spmd(module.AddEntryComputation("main"), mesh);
    auto x = spmd.Parameter(0, Shape({4, 8}),
                            TensorSharding::OnDim(2, 0, 0), "x");
    auto w = spmd.Parameter(1, Shape({4, 6}),
                            TensorSharding::OnDim(2, 0, 0), "w");
    auto y = spmd.Einsum(*x, *w, "bf,bh->bfh",
                         TensorSharding::OnDim(3, 0, 1));
    ASSERT_FALSE(y.ok());
    EXPECT_EQ(y.status().code(), StatusCode::kUnimplemented);
}

TEST(CandidateSelectionTest, PrefersTheMoreExpensiveCollective)
{
    // §5.5: an einsum with an activation AllGather (large transfer) and
    // a weight AllGather (small transfer) decomposes the activation one.
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    // Activation shard: large. Weight shard: small.
    auto* act = b.Parameter(0, Shape(DType::kBF16, {2048, 8192}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {2048, 1024}));
    auto* big_ag = b.AllGather(act, 0, mesh.AxisGroups(0));   // 8192 rows
    auto* small_ag = b.AllGather(w, 0, mesh.AxisGroups(0));   // contracting
    comp->set_root(b.Einsum(big_ag, small_ag, "bf,fh->bh"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->allgather_sites, 1);
    // The surviving blocking AllGather must be the small (weight) one.
    for (const HloInstruction* instr : comp->instructions()) {
        if (instr->opcode() == HloOpcode::kAllGather) {
            EXPECT_EQ(instr->operand(0)->shape().dim(1), 1024);
        }
    }
}

TEST(DecomposeEdgeTest, SingleDeviceAxisLeftAlone)
{
    Mesh mesh(1, 4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    // Groups along the size-1 x axis: nothing to decompose.
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_decomposed(), 0);
}

TEST(DecomposeEdgeTest, OddShardExtentAtTwoPartitionsFallsBackToUni)
{
    // N == 2 two-way exchange needs an even shard extent; odd extents
    // use the unidirectional loop and stay correct.
    Mesh mesh(2);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({3, 4}));  // odd shard extent
    auto* w = b.Parameter(1, Shape({4, 5}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = true;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(comp).ok());
    EXPECT_EQ(CountOps(*comp, HloOpcode::kCollectivePermute), 1);

    Tensor ga = Tensor::Random(Shape({6, 4}), 9);
    Tensor gw = Tensor::Random(Shape({4, 5}), 10);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(
        *comp,
        {ShardTensor(ga, TensorSharding::OnDim(2, 0, 0), mesh), {gw}});
    ASSERT_TRUE(result.ok());
    Tensor expect =
        EinsumSpec::Parse("bf,fh->bh")->Evaluate(ga, gw).value();
    EXPECT_TRUE((*result)[0].AllClose(expect, 1e-3f));
    EXPECT_TRUE((*result)[1].AllClose(expect, 1e-3f));
}

}  // namespace
}  // namespace overlap
