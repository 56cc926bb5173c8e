#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/overlap_report.h"
#include "difftest/calibration.h"
#include "difftest/difftest.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "sim/cost_model.h"

namespace overlap {
namespace {

class CostModelTest : public ::testing::Test {
  protected:
    CostModelTest() : cost_(spec_) {}

    HardwareSpec spec_;
    CostModel cost_;
    HloModule module_{"m"};
};

TEST_F(CostModelTest, EinsumScalesWithFlops)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape(DType::kBF16, {512, 1024}));
    auto* rhs = b.Parameter(1, Shape(DType::kBF16, {1024, 2048}));
    auto* e = b.Einsum(lhs, rhs, "mk,kn->mn");
    double flops = 2.0 * 512 * 1024 * 2048;
    double expect =
        flops / (spec_.peak_flops * spec_.einsum_efficiency) +
        spec_.op_overhead;
    EXPECT_NEAR(cost_.EinsumSeconds(e), expect, expect * 1e-9);
}

TEST_F(CostModelTest, AllGatherUsesBidirectionalRing)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh(8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {128, 256}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    double out_bytes = 8.0 * 128 * 256 * 2;
    double expect = 7.0 * out_bytes / (8.0 * 2.0 * spec_.link_bandwidth) +
                    7.0 * spec_.link_latency;
    EXPECT_NEAR(cost_.BlockingCollectiveSeconds(ag), expect,
                expect * 1e-9);
}

TEST_F(CostModelTest, AllReduceIsTwiceReduceScatter)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh(8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {128, 256}));
    auto* rs = b.ReduceScatter(p, 0, mesh.AxisGroups(0));
    auto* ar = b.AllReduce(p, mesh.AxisGroups(0));
    double rs_t = cost_.BlockingCollectiveSeconds(rs);
    double ar_t = cost_.BlockingCollectiveSeconds(ar);
    EXPECT_NEAR(ar_t, 2.0 * rs_t, rs_t * 1e-6);
}

TEST_F(CostModelTest, DecomposedRingUsesHalfTheBandwidth)
{
    // §5.5: the unidirectional CollectivePermute sequence of N-1 steps
    // takes about twice the bidirectional-ring AllGather time.
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh(8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    double ag_t = cost_.BlockingCollectiveSeconds(ag);
    double ring_t =
        cost_.RingSequenceSeconds(p->shape().byte_size(), /*steps=*/7);
    EXPECT_NEAR(ring_t / ag_t, 2.0, 0.05);
}

TEST_F(CostModelTest, PermuteStartIsFreeDoneCostsTransfer)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape(DType::kBF16, {1024}));
    auto* start = b.CollectivePermuteStart(p, Mesh(2).RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    EXPECT_DOUBLE_EQ(cost_.InstructionSeconds(start), 0.0);
    EXPECT_GT(cost_.InstructionSeconds(done), 0.0);
}

TEST_F(CostModelTest, ScalarIndexArithmeticIsFree)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* i = b.AxisIndex(0);
    auto* j = b.Remainder(b.Add(i, b.ConstantIndex(1)),
                          b.ConstantIndex(4));
    EXPECT_DOUBLE_EQ(cost_.InstructionSeconds(j), 0.0);
}

TEST_F(CostModelTest, ElementwiseIsMemoryBound)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape(DType::kBF16, {1024, 1024}));
    auto* add = b.Add(p, p);
    double bytes = 3.0 * 1024 * 1024 * 2;  // two reads + one write
    EXPECT_NEAR(cost_.InstructionSeconds(add),
                bytes / spec_.mem_bandwidth + spec_.op_overhead, 1e-9);
}

TEST_F(CostModelTest, AllToAllScalesWithSqrtGroup)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh4(4);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 64}));
    auto* a4 = b.AllToAll(p, 0, mesh4.AxisGroups(0));
    auto* a64 = b.AllToAll(p, 0, DeviceGroups{.size = 64, .stride = 1});
    double t4 = cost_.BlockingCollectiveSeconds(a4);
    double t64 = cost_.BlockingCollectiveSeconds(a64);
    // sqrt(64)/sqrt(4) = 4x for the same payload.
    EXPECT_NEAR(t64 / t4, 4.0, 0.2);
}

// ---------------------------------------------------------------------
// Calibrated-replay accuracy on real sites (DESIGN.md §15): the span,
// hidden-fraction and speedup predictions the §5.5 gate acts on must
// track what the traced engine simulation measures, per decomposition
// case. Runs under `ctest -L calibration`.
// ---------------------------------------------------------------------

/** The forced-decomposed compile of `spec`, graded against its own
 * traced simulation: the decomposed verdict plus the overlap-report
 * site row carrying predicted vs. simulated hidden fraction. */
struct ForcedSite {
    SiteDecision decision;
    SiteOverlapReport report_site;
};

ForcedSite
ForcedDecision(const difftest::SiteSpec& spec, const char* variant_name)
{
    ForcedSite result;
    auto variant = difftest::FindVariant(variant_name);
    EXPECT_TRUE(variant.ok());
    auto module = difftest::BuildSiteModule(spec);
    EXPECT_TRUE(module.ok()) << module.status().ToString();
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    options.decompose.unroll = variant->unroll;
    options.decompose.bidirectional = variant->bidirectional;
    options.decompose.force_unidirectional = variant->force_unidirectional;
    auto compile = OverlapCompiler(options).Compile(module->get());
    EXPECT_TRUE(compile.ok()) << compile.status().ToString();
    PodSimulator simulator(spec.mesh(), options.hardware);
    auto sim = simulator.Run(**module, /*collect_trace=*/true);
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    auto report = BuildOverlapReport(compile.value(), sim.value());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    for (const SiteDecision& d : compile->decompose.decisions) {
        if (d.decomposed) result.decision = d;
    }
    for (const SiteOverlapReport& site : report->sites) {
        if (site.decomposed) result.report_site = site;
    }
    EXPECT_TRUE(result.decision.decomposed)
        << spec.ToString() << ": no decomposed site";
    return result;
}

TEST(CostModelSiteTest, PredictionsMatchSimulationPerCase)
{
    // The default lowering the gate judges: on every §5.1 case of the
    // shared site space the predicted span is within 3% of the traced
    // simulation, the hidden fraction within 0.05, and the predicted
    // speedup within 0.05 of the simulated end-to-end speedup. For the
    // AG/RS cases that is bidirectional + unrolled; the A2A ring has
    // no bidirectional split (every chunk already takes its short way
    // around), so its default lowering is the uni_unroll sample — the
    // bidi variants dedup onto it in CollectCalibrationSamples.
    for (const difftest::SiteSpec& spec :
         difftest::OverlapReportSiteSpace()) {
        const char* default_variant =
            spec.site_case == difftest::SiteCase::kAllToAll
                ? "uni_unroll"
                : "bidi_unroll";
        auto samples =
            difftest::CollectCalibrationSamples({spec}, HardwareSpec());
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        bool saw_default = false;
        for (const difftest::CalibrationSample& sample : *samples) {
            if (sample.variant != default_variant) continue;
            saw_default = true;
            double err = difftest::RelativeSpanError(
                sample, CalibrationFit::Fitted());
            EXPECT_LE(std::fabs(err), 0.03)
                << spec.ToString() << ": span error " << err;

            ForcedSite forced = ForcedDecision(spec, default_variant);
            const SiteDecision& decision = forced.decision;
            double predicted_speedup =
                (decision.comp_t + decision.comm_t) /
                (std::max(decision.comp_t, decision.comm_t_ring) +
                 decision.extra_t);
            EXPECT_NEAR(predicted_speedup, sample.SimulatedSpeedup(),
                        0.05)
                << spec.ToString();

            ASSERT_TRUE(forced.report_site.has_prediction_error)
                << spec.ToString();
            EXPECT_LE(
                std::fabs(forced.report_site.hidden_fraction_error),
                0.05)
                << spec.ToString() << ": predicted hidden "
                << forced.report_site.predicted_hidden_fraction
                << " vs simulated "
                << forced.report_site.sim_hidden_fraction;
        }
        EXPECT_TRUE(saw_default) << spec.ToString();
    }
}

TEST(CostModelSiteTest, OddExtentSitesLowerToUnidirectionalAndPredict)
{
    // Odd shard extents cannot split into two bidirectional
    // half-streams; the pass falls back to the unidirectional loop and
    // the replay must still predict that structure. Odd-extent
    // versions of the big report sites, unrolled lowering. The A2A
    // sites stay ring-eligible at any shard extent (the exchanged dim
    // is always N blocks of it) and their dispatch/combine loops are
    // themselves the odd-extent-capable structure, so they grade here
    // too rather than being skipped.
    for (difftest::SiteSpec spec : difftest::OverlapReportSiteSpace()) {
        spec.shard_extent += 1;  // 64→65, 2048→2049, 8→9, 256→257
        auto samples =
            difftest::CollectCalibrationSamples({spec}, HardwareSpec());
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        bool saw_uni = false;
        for (const difftest::CalibrationSample& sample : *samples) {
            if (sample.shape.structure !=
                    LoopStructure::kAllGatherUnidirectional &&
                sample.shape.structure !=
                    LoopStructure::kReduceScatterSingleChain &&
                sample.shape.structure !=
                    LoopStructure::kReduceScatterTwoChain &&
                sample.shape.structure !=
                    LoopStructure::kAllToAllDispatch &&
                sample.shape.structure !=
                    LoopStructure::kAllToAllCombine) {
                continue;
            }
            if (sample.variant != "uni_unroll") continue;
            saw_uni = true;
            double err = difftest::RelativeSpanError(
                sample, CalibrationFit::Fitted());
            EXPECT_LE(std::fabs(err), 0.05)
                << spec.ToString() << " (" << sample.variant
                << "): span error " << err;
        }
        EXPECT_TRUE(saw_uni) << spec.ToString();

        // The bidirectional request itself must come back as a
        // unidirectional structure: an odd shard extent cannot split
        // into two half-streams.
        auto module = difftest::BuildSiteModule(spec);
        ASSERT_TRUE(module.ok());
        CompilerOptions options;
        options.decompose.use_cost_model = false;
        auto compile = OverlapCompiler(options).Compile(module->get());
        ASSERT_TRUE(compile.ok());
        for (const SiteDecision& d : compile->decompose.decisions) {
            if (!d.decomposed) continue;
            LoopStructure structure = d.loop_shape.structure;
            EXPECT_TRUE(structure !=
                            LoopStructure::kAllGatherBidirectional &&
                        structure != LoopStructure::kAllGatherTwoWay &&
                        structure !=
                            LoopStructure::kReduceScatterBidirectional)
                << spec.ToString() << ": odd extent emitted "
                << LoopStructureName(structure);
        }
    }
}

}  // namespace
}  // namespace overlap
