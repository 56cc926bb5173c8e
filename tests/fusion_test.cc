#include <gtest/gtest.h>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "passes/fusion.h"
#include "sim/sched_graph.h"

namespace overlap {
namespace {

/**
 * Builds the Figure 11 pattern: Add(einsum_0, einsum_1) where einsum_1
 * consumes a CollectivePermuteDone and einsum_0 is independent.
 */
struct Figure11 {
    std::unique_ptr<HloModule> module;
    HloInstruction* independent_einsum;
    HloInstruction* dependent_einsum;
    HloInstruction* addition;
};

Figure11
BuildFigure11()
{
    Figure11 f;
    f.module = std::make_unique<HloModule>("fig11");
    f.module->set_mesh(Mesh(2));
    HloComputation* comp = f.module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {64, 64}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {64, 64}));
    auto* start = b.CollectivePermuteStart(a, Mesh(2).RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    f.independent_einsum = b.Einsum(a, w, "mk,kn->mn");
    f.dependent_einsum = b.Einsum(done, w, "mk,kn->mn");
    f.addition = b.Add(f.independent_einsum, f.dependent_einsum);
    comp->set_root(f.addition);
    return f;
}

TEST(FusionTest, DefaultHeuristicCreatesBadDependence)
{
    Figure11 f = BuildFigure11();
    auto groups =
        RunFusionPass(f.module->entry(), FusionHeuristic::kDefault);
    ASSERT_TRUE(groups.ok());
    // Figure 11 (a): the Addition fuses with the first (independent)
    // einsum, chaining it behind the in-flight permute.
    EXPECT_GE(f.addition->fusion_group(), 0);
    EXPECT_EQ(f.addition->fusion_group(),
              f.independent_einsum->fusion_group());
    EXPECT_EQ(f.dependent_einsum->fusion_group(), -1);

    // The fused unit now (transitively) depends on the Done.
    CostModel cost{HardwareSpec{}};
    SchedGraph graph(*f.module->entry(), cost);
    SchedUnit* fused = graph.unit_of(f.addition);
    bool depends_on_done = false;
    for (const SchedUnit* op : fused->operands) {
        if (op->IsPermuteDone()) depends_on_done = true;
        for (const SchedUnit* op2 : op->operands) {
            if (op2->IsPermuteDone()) depends_on_done = true;
        }
    }
    EXPECT_TRUE(depends_on_done);
}

TEST(FusionTest, OverlapAwareFusesWithTheDependentEinsum)
{
    Figure11 f = BuildFigure11();
    auto groups =
        RunFusionPass(f.module->entry(), FusionHeuristic::kOverlapAware);
    ASSERT_TRUE(groups.ok());
    // Figure 11 (b): the Addition fuses with the einsum that already
    // consumes the Done, leaving the other free to overlap the transfer.
    EXPECT_EQ(f.addition->fusion_group(),
              f.dependent_einsum->fusion_group());
    EXPECT_EQ(f.independent_einsum->fusion_group(), -1);
}

TEST(FusionTest, OverlapAwareLeavesDoneReadingCombinersUnfused)
{
    // The single-chain ReduceScatter pattern: acc = Add(done, partial).
    // Fusing would serialize the einsum behind the transfer; the
    // overlap-aware heuristic declines (§5.4.1 discussion).
    HloModule module("rs_chain");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* acc = b.Parameter(0, Shape(DType::kBF16, {64, 64}));
    auto* a = b.Parameter(1, Shape(DType::kBF16, {64, 64}));
    auto* w = b.Parameter(2, Shape(DType::kBF16, {64, 64}));
    auto* start = b.CollectivePermuteStart(acc, Mesh(2).RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    auto* partial = b.Einsum(a, w, "mk,kn->mn");
    auto* add = b.Add(done, partial);
    comp->set_root(add);
    auto groups = RunFusionPass(comp, FusionHeuristic::kOverlapAware);
    ASSERT_TRUE(groups.ok());
    EXPECT_EQ(add->fusion_group(), -1);
    EXPECT_EQ(partial->fusion_group(), -1);

    // The default heuristic fuses and pays the serialization.
    auto default_groups = RunFusionPass(comp, FusionHeuristic::kDefault);
    ASSERT_TRUE(default_groups.ok());
    EXPECT_GE(add->fusion_group(), 0);
    EXPECT_EQ(add->fusion_group(), partial->fusion_group());
}

TEST(FusionTest, PreservesDecomposerGroups)
{
    // A combiner joins an existing (bidirectional-pair) group.
    HloModule module("pair");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {32, 32}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {32, 32}));
    auto* e1 = b.Einsum(a, w, "mk,kn->mn");
    auto* e2 = b.Einsum(a, w, "mk,kn->mn");
    int64_t pair = comp->NextFusionGroupId();
    e1->set_fusion_group(pair);
    e2->set_fusion_group(pair);
    auto* add = b.Add(e1, e2);
    comp->set_root(add);
    ASSERT_TRUE(RunFusionPass(comp, FusionHeuristic::kDefault).ok());
    EXPECT_EQ(add->fusion_group(), pair);
}

TEST(FusionTest, FusedElementwiseIsDiscountedInUnitLatency)
{
    HloModule module("disc");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {256, 256}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {256, 256}));
    auto* e = b.Einsum(a, w, "mk,kn->mn");
    auto* add = b.Add(e, a);
    comp->set_root(add);
    CostModel cost{HardwareSpec{}};
    double unfused = cost.InstructionSeconds(e) +
                     cost.InstructionSeconds(add);
    ASSERT_TRUE(RunFusionPass(comp, FusionHeuristic::kDefault).ok());
    SchedGraph graph(*comp, cost);
    double fused = graph.unit_of(e)->latency;
    EXPECT_LT(fused, unfused);
    EXPECT_GT(fused, cost.InstructionSeconds(e));
}

}  // namespace
}  // namespace overlap
