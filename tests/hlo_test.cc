#include <gtest/gtest.h>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "passes/fusion.h"

namespace overlap {
namespace {

TEST(BuilderTest, EinsumShapeInference)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape({4, 8}));
    auto* rhs = b.Parameter(1, Shape({8, 16}));
    auto* out = b.Einsum(lhs, rhs, "mk,kn->mn");
    EXPECT_EQ(out->shape().dims(), (std::vector<int64_t>{4, 16}));
    module.entry()->set_root(out);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(BuilderTest, CollectiveShapes)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape({2, 8}));
    Mesh mesh(4);
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    EXPECT_EQ(ag->shape().dims(), (std::vector<int64_t>{8, 8}));
    auto* rs = b.ReduceScatter(ag, 1, mesh.AxisGroups(0));
    EXPECT_EQ(rs->shape().dims(), (std::vector<int64_t>{8, 2}));
    auto* ar = b.AllReduce(rs, mesh.AxisGroups(0));
    EXPECT_EQ(ar->shape().dims(), rs->shape().dims());
    module.entry()->set_root(ar);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(BuilderTest, DynamicSliceHelpers)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape({4, 8}));
    auto* idx = b.ConstantIndex(2);
    auto* slice = b.DynamicSliceOnDim(p, 1, idx, 4);
    EXPECT_EQ(slice->shape().dims(), (std::vector<int64_t>{4, 4}));
    auto* updated = b.DynamicUpdateSliceOnDim(p, slice, 1, idx);
    EXPECT_EQ(updated->shape().dims(), p->shape().dims());
    module.entry()->set_root(updated);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(ComputationTest, UsersTracked)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape({2}));
    auto* neg = b.Negate(p);
    auto* add = b.Add(neg, neg);
    EXPECT_EQ(p->users().size(), 1u);
    EXPECT_EQ(neg->users().size(), 1u);  // duplicate operand counted once
    EXPECT_TRUE(neg->HasUser(add));
}

TEST(ComputationTest, ReplaceAllUsesWith)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* old_value = b.Negate(p);
    auto* user = b.Add(old_value, old_value);
    comp->set_root(user);
    auto* replacement = b.Copy(p);
    comp->ReplaceAllUsesWith(old_value, replacement);
    EXPECT_EQ(user->operand(0), replacement);
    EXPECT_EQ(user->operand(1), replacement);
    EXPECT_TRUE(old_value->users().empty());
    comp->SortTopologically();
    EXPECT_TRUE(VerifyComputation(*comp).ok());
}

TEST(ComputationTest, DeadCodeElimination)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* live = b.Negate(p);
    auto* dead = b.Add(p, p);
    b.Add(dead, dead);  // dead chain
    comp->set_root(live);
    EXPECT_EQ(comp->RemoveDeadInstructions(), 2);
    EXPECT_EQ(comp->instruction_count(), 2);
    EXPECT_TRUE(p->users().size() == 1);
}

TEST(ComputationTest, TopologicalSortIsStable)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* a = b.Negate(p);
    auto* c = b.Add(a, p);
    comp->set_root(c);
    // Replace a's use with a later-defined value -> order broken.
    auto* late = b.Copy(p);
    comp->ReplaceAllUsesWith(a, late);
    comp->RemoveDeadInstructions();
    comp->SortTopologically();
    EXPECT_TRUE(VerifyComputation(*comp).ok());
    // Stability: p stays first.
    EXPECT_EQ(comp->instructions().front(), p);
}

TEST(VerifierTest, CatchesBadSchedule)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* n = b.Negate(p);
    comp->set_root(n);
    comp->set_schedule({n, p});
    EXPECT_FALSE(VerifyComputation(*comp).ok());
    comp->set_schedule({p, n});
    EXPECT_TRUE(VerifyComputation(*comp).ok());
}

TEST(VerifierTest, CatchesScheduleSplittingAFusionGroup)
{
    // The Figure 11 module (fusion_test): the default heuristic fuses
    // the independent einsum e0 with the Add that also reads e1.
    HloModule module("fig11");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {64, 64}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {64, 64}));
    auto* start = b.CollectivePermuteStart(a, Mesh(2).RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    auto* e0 = b.Einsum(a, w, "mk,kn->mn");
    auto* e1 = b.Einsum(done, w, "mk,kn->mn");
    auto* add = b.Add(e0, e1);
    comp->set_root(add);
    ASSERT_TRUE(RunFusionPass(comp, FusionHeuristic::kDefault).ok());
    ASSERT_GE(add->fusion_group(), 0);
    ASSERT_EQ(e0->fusion_group(), add->fusion_group());

    // e0 ... e1 ... add: the fused kernel would have to run before and
    // after e1 at once.
    comp->set_schedule({a, w, start, e0, done, e1, add});
    Status split = VerifyModule(module);
    EXPECT_EQ(split.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(split.message().find("splits fusion group"),
              std::string::npos)
        << split.message();
    EXPECT_NE(split.message().find(add->name()), std::string::npos);

    comp->set_schedule({a, w, start, done, e1, e0, add});
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(VerifierTest, CatchesScheduleNamingAForeignInstruction)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    comp->set_root(b.Negate(p));
    HloComputation other("other");
    HloBuilder ob(&other);
    auto* q = ob.Parameter(0, Shape({2}));
    comp->set_schedule({p, q});
    Status foreign = VerifyComputation(*comp);
    EXPECT_EQ(foreign.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(foreign.message().find("not in the computation"),
              std::string::npos)
        << foreign.message();
}

TEST(VerifierTest, CatchesGroupsThatDoNotTileTheMesh)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    InstrAttrs attrs;
    attrs.groups = DeviceGroups{.size = 3, .stride = 1};
    HloInstruction* ar = comp->AddInstruction(
        HloOpcode::kAllReduce, p->shape(), {p}, std::move(attrs));
    comp->set_root(ar);
    Status status = VerifyModule(module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("do not tile"), std::string::npos)
        << status.ToString();
    ar->UpdateAttrs([&](InstrAttrs& a) { a.groups = Mesh(4).AxisGroups(0); });
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(VerifierTest, CatchesIdentityPermuteShift)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    InstrAttrs attrs;
    attrs.groups = DeviceGroups{.size = 4, .stride = 1, .shift = -4};
    HloInstruction* permute = comp->AddInstruction(
        HloOpcode::kCollectivePermute, p->shape(), {p}, std::move(attrs));
    comp->set_root(permute);
    Status status = VerifyModule(module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("shift nothing"), std::string::npos)
        << status.ToString();
    permute->UpdateAttrs([&](InstrAttrs& a) { a.groups.shift = -3; });
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(VerifierTest, CatchesAxisIndexOutOfMeshRange)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    HloInstruction* index = b.AxisIndex(7);
    comp->set_root(index);
    Status status = VerifyModule(module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("axis-index axis 7 out of range"),
              std::string::npos)
        << status.ToString();
    index->UpdateAttrs([&](InstrAttrs& a) { a.mesh_axis = 0; });
    EXPECT_TRUE(VerifyModule(module).ok());
    // Without a mesh only a negative axis is known to be wrong.
    index->UpdateAttrs([&](InstrAttrs& a) { a.mesh_axis = 7; });
    EXPECT_TRUE(VerifyComputation(*comp).ok());
    index->UpdateAttrs([&](InstrAttrs& a) { a.mesh_axis = -1; });
    EXPECT_FALSE(VerifyComputation(*comp).ok());
}

TEST(VerifierTest, CatchesGroupsOnNonCollective)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    HloInstruction* neg = b.Negate(p);
    comp->set_root(neg);
    EXPECT_TRUE(VerifyModule(module).ok());
    neg->UpdateAttrs([&](InstrAttrs& a) { a.groups = Mesh(2).AxisGroups(0); });
    EXPECT_FALSE(VerifyModule(module).ok());
}

TEST(VerifierTest, StartNeedsExactlyOneDone)
{
    HloModule module("m");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* start = b.CollectivePermuteStart(p, Mesh(2).RingShift(0, 1));
    comp->set_root(start);
    EXPECT_FALSE(VerifyModule(module).ok());
    auto* done = b.CollectivePermuteDone(start);
    comp->set_root(done);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(VerifierTest, ShapeMismatchDetected)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 3}));
    // Deliberately wrong declared shape.
    comp->AddInstruction(HloOpcode::kNegate, Shape({3, 2}), {p}, {});
    EXPECT_FALSE(VerifyComputation(*comp).ok());
}

TEST(PrinterTest, DumpsReadableText)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape({4, 8}), "activations");
    auto* rhs = b.Parameter(1, Shape({8, 16}));
    auto* out = b.Einsum(lhs, rhs, "mk,kn->mn");
    module.entry()->set_root(out);
    std::string text = module.ToString();
    EXPECT_NE(text.find("activations"), std::string::npos);
    EXPECT_NE(text.find("spec=mk,kn->mn"), std::string::npos);
    EXPECT_NE(text.find("ROOT"), std::string::npos);
}

}  // namespace
}  // namespace overlap
