/**
 * @file
 * Guarded pass pipeline: a pass that emits invalid HLO or returns an
 * error Status is rolled back to its pre-pass state (the input snapshot
 * plus a replay of the earlier passes), disabled, and reported as a
 * structured PassDiagnostic -- compilation proceeds and the final
 * module is exactly what the healthy pipeline produces.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "models/fault_presets.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "sim/engine.h"
#include "sim/fault_model.h"
#include "support/tracing.h"

namespace overlap {
namespace {

std::unique_ptr<HloModule>
BuildModule()
{
    auto module = std::make_unique<HloModule>("m");
    Mesh mesh(8);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2048, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    return module;
}

/** A pass that corrupts the graph: declares a wrong result shape. */
InjectedPass
CorruptingPass()
{
    return {"corrupt-shapes", [](HloModule* module) -> Status {
                HloComputation* comp = module->entry();
                comp->set_root(comp->AddInstruction(
                    HloOpcode::kNegate, Shape({3, 3}), {comp->root()}));
                return Status::Ok();  // the verifier must catch it
            }};
}

/**
 * A pass that corrupts an instruction the guard already verified: it
 * moves the first all-gather's or reduce-scatter's `dim` out of range
 * (every Table 1/2 step keeps one of them blocking). The guard catches
 * it only if UpdateAttrs cleared the shape verdict.
 */
InjectedPass
AttributeCorruptingPass()
{
    return {"corrupt-attrs", [](HloModule* module) -> Status {
                for (HloInstruction* instr :
                     module->entry()->instructions()) {
                    if (instr->opcode() == HloOpcode::kAllGather ||
                        instr->opcode() == HloOpcode::kReduceScatter) {
                        instr->UpdateAttrs([&](InstrAttrs& a) {
                            a.dim = instr->shape().rank();
                        });
                        return Status::Ok();
                    }
                }
                return Internal("no all-gather or reduce-scatter");
            }};
}

/**
 * A pass that rewires an einsum the guard already verified: the first
 * einsum's lhs becomes a parameter of another shape defined before it.
 * The guard catches it only if ReplaceOperand cleared the verdict.
 */
InjectedPass
OperandRewiringPass()
{
    return {"rewire-einsum", [](HloModule* module) -> Status {
                HloComputation* comp = module->entry();
                std::vector<HloInstruction*> params;
                for (HloInstruction* instr : comp->instructions()) {
                    if (instr->opcode() == HloOpcode::kParameter) {
                        params.push_back(instr);
                    }
                    if (instr->opcode() != HloOpcode::kEinsum) continue;
                    for (HloInstruction* param : params) {
                        if (!(param->shape() == instr->operand(0)->shape())) {
                            instr->ReplaceOperand(0, param);
                            return Status::Ok();
                        }
                    }
                }
                return Internal("no einsum to rewire");
            }};
}

/** A pass that mutates the graph and then reports failure itself. */
InjectedPass
SelfReportingBrokenPass()
{
    return {"self-reporting", [](HloModule* module) -> Status {
                HloComputation* comp = module->entry();
                HloBuilder b(comp);
                comp->set_root(b.Negate(comp->root()));
                return Internal("pass gave up halfway through");
            }};
}

TEST(CompilerGuardTest, CleanCompileHasNoDiagnostics)
{
    auto module = BuildModule();
    auto report = OverlapCompiler(CompilerOptions{}).Compile(module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->pass_diagnostics.empty());
    EXPECT_TRUE(VerifyModule(*module).ok());
}

TEST(CompilerGuardTest, GuardTimeIsChargedAndFitsInTheCompile)
{
    // Pass time plus guard time (verify, and restore + replay on a
    // rollback) is disjoint wall time inside Compile, on clean compiles
    // and through a rollback.
    for (bool corrupt : {false, true}) {
        auto module = BuildModule();
        CompilerOptions options;
        if (corrupt) options.extra_passes.push_back(CorruptingPass());
        const double begin = NowSeconds();
        auto report = OverlapCompiler(options).Compile(module.get());
        const double wall = NowSeconds() - begin;
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        double charged = 0.0;
        for (const PassTiming& timing : report->pass_timings) {
            EXPECT_GE(timing.seconds(), 0.0) << timing.pass_name;
            EXPECT_GT(timing.guard_seconds, 0.0) << timing.pass_name;
            charged += timing.seconds() + timing.guard_seconds;
        }
        EXPECT_LE(charged, wall) << "corrupt=" << corrupt;
    }
}

TEST(CompilerGuardTest, InvalidHloIsCaughtRolledBackAndReported)
{
    auto reference = BuildModule();
    auto guarded = BuildModule();

    CompilerOptions clean;
    ASSERT_TRUE(OverlapCompiler(clean).Compile(reference.get()).ok());

    CompilerOptions broken;
    broken.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(broken).Compile(guarded.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
    const PassDiagnostic& diagnostic = report->pass_diagnostics[0];
    EXPECT_EQ(diagnostic.pass_name, "corrupt-shapes");
    EXPECT_EQ(diagnostic.code, StatusCode::kInvalidArgument);
    EXPECT_TRUE(diagnostic.rolled_back);
    EXPECT_NE(diagnostic.error.find("shape mismatch"), std::string::npos)
        << diagnostic.error;
    EXPECT_NE(diagnostic.ToString().find("corrupt-shapes"),
              std::string::npos);
    EXPECT_NE(diagnostic.ToString().find("INVALID_ARGUMENT"),
              std::string::npos);

    // The rollback is exact: the guarded module ends up instruction-for-
    // instruction identical to a compile without the broken pass.
    EXPECT_TRUE(VerifyModule(*guarded).ok());
    EXPECT_EQ(guarded->entry()->ToString(), reference->entry()->ToString());

    // And it still simulates.
    auto run = PodSimulator(Mesh(8), HardwareSpec()).Run(*guarded);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->step_seconds, 0.0);
}

TEST(CompilerGuardTest, ErrorStatusRollsBackTheMutation)
{
    auto reference = BuildModule();
    auto guarded = BuildModule();

    ASSERT_TRUE(
        OverlapCompiler(CompilerOptions{}).Compile(reference.get()).ok());

    CompilerOptions broken;
    broken.extra_passes.push_back(SelfReportingBrokenPass());
    auto report = OverlapCompiler(broken).Compile(guarded.get());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
    EXPECT_EQ(report->pass_diagnostics[0].pass_name, "self-reporting");
    EXPECT_EQ(report->pass_diagnostics[0].code, StatusCode::kInternal);
    // The Negate the pass added before failing must be gone.
    EXPECT_EQ(guarded->entry()->ToString(), reference->entry()->ToString());
}

TEST(CompilerGuardTest, UnguardedPipelinePropagatesTheFailure)
{
    auto module = BuildModule();
    CompilerOptions options;
    options.guard_passes = false;
    options.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerGuardTest, EachBrokenPassGetsItsOwnDiagnostic)
{
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(CorruptingPass());
    options.extra_passes.push_back(SelfReportingBrokenPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->pass_diagnostics.size(), 2u);
    EXPECT_EQ(report->pass_diagnostics[0].pass_name, "corrupt-shapes");
    EXPECT_EQ(report->pass_diagnostics[1].pass_name, "self-reporting");
    EXPECT_TRUE(VerifyModule(*module).ok());
}

TEST(CompilerGuardTest, ValidInjectedPassRunsThroughTheGuard)
{
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(
        {"extra-negate", [](HloModule* m) -> Status {
             HloBuilder b(m->entry());
             m->entry()->set_root(b.Negate(m->entry()->root()));
             return Status::Ok();
         }});
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->pass_diagnostics.empty());
    EXPECT_EQ(module->entry()->root()->opcode(), HloOpcode::kNegate);
}

TEST(CompilerGuardTest, RollbackPreservesEarlierPassResults)
{
    // The decompose stats gathered before the broken pass must survive
    // its rollback (the replay of decompose rewrites them).
    auto module = BuildModule();
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    options.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->decompose.total_decomposed(), 1);
    EXPECT_GT(report->async_permutes, 0);
    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
}

/** Instruction names of the attached schedule, in order. */
std::vector<std::string>
ScheduleNames(const HloComputation& comp)
{
    std::vector<std::string> names;
    for (const HloInstruction* instr : comp.sequence()) {
        names.push_back(instr->name());
    }
    return names;
}

/** Every distinct Table 1 + Table 2 model. */
std::vector<ModelConfig>
PaperModels()
{
    std::vector<ModelConfig> models;
    for (const auto& table : {Table1Models(), Table2GptModels()}) {
        for (const ModelConfig& config : table) {
            bool seen = false;
            for (const ModelConfig& m : models) seen |= m.name == config.name;
            if (!seen) models.push_back(config);
        }
    }
    return models;
}

/**
 * Compiles `config` clean and with `broken` injected after the overlap
 * rewrites: the guard must roll `broken` back with one diagnostic whose
 * error names `want_error`, by restoring the input snapshot and
 * replaying decompose, async-permute creation and the concat rewrites
 * on the unrolled paper-scale loops, and must land on the clean compile
 * exactly.
 */
void
ExpectExactRollback(const ModelConfig& config, const InjectedPass& broken,
                    const std::string& want_error)
{
    SCOPED_TRACE(config.name);
    CompilerOptions options;
    options.extra_passes.push_back(broken);
    auto clean_module = BuildLayerStepModule(config);
    auto guarded_module = BuildLayerStepModule(config);
    ASSERT_TRUE(clean_module.ok() && guarded_module.ok());
    HloModule& clean = **clean_module;
    HloModule& guarded = **guarded_module;
    auto clean_report = OverlapCompiler(CompilerOptions{}).Compile(&clean);
    auto guarded_report = OverlapCompiler(options).Compile(&guarded);
    ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();
    ASSERT_TRUE(guarded_report.ok()) << guarded_report.status().ToString();

    ASSERT_EQ(guarded_report->pass_diagnostics.size(), 1u);
    const PassDiagnostic& diagnostic = guarded_report->pass_diagnostics[0];
    EXPECT_EQ(diagnostic.pass_name, broken.name);
    EXPECT_EQ(diagnostic.code, StatusCode::kInvalidArgument);
    EXPECT_NE(diagnostic.error.find(want_error), std::string::npos)
        << diagnostic.error;
    EXPECT_TRUE(clean_report->pass_diagnostics.empty());

    EXPECT_EQ(guarded.entry()->ToString(), clean.entry()->ToString());
    EXPECT_EQ(ScheduleNames(*guarded.entry()), ScheduleNames(*clean.entry()));

    const DecomposeStats& want = clean_report->decompose;
    const DecomposeStats& got = guarded_report->decompose;
    EXPECT_GT(want.total_decomposed(), 0);
    EXPECT_EQ(got.allgather_sites, want.allgather_sites);
    EXPECT_EQ(got.reduce_scatter_sites, want.reduce_scatter_sites);
    EXPECT_EQ(got.all_to_all_sites, want.all_to_all_sites);
    EXPECT_EQ(got.rejected_by_cost_model, want.rejected_by_cost_model);
    EXPECT_EQ(got.skipped_unsupported, want.skipped_unsupported);
    EXPECT_EQ(got.fault_fallbacks, want.fault_fallbacks);
    EXPECT_EQ(got.fault_lowered, want.fault_lowered);
    ASSERT_EQ(got.decisions.size(), want.decisions.size());
    for (size_t i = 0; i < want.decisions.size(); ++i) {
        const SiteDecision& w = want.decisions[i];
        const SiteDecision& g = got.decisions[i];
        EXPECT_EQ(g.collective, w.collective);
        EXPECT_EQ(g.einsum, w.einsum);
        EXPECT_EQ(g.decomposed, w.decomposed);
        EXPECT_EQ(g.lowered_to_unidirectional, w.lowered_to_unidirectional);
        EXPECT_EQ(g.reason, w.reason);
    }
    EXPECT_EQ(guarded_report->async_permutes, clean_report->async_permutes);
    EXPECT_EQ(guarded_report->concat_rewrites, clean_report->concat_rewrites);
    EXPECT_EQ(guarded_report->fusion_groups, clean_report->fusion_groups);

    PodSimulator simulator(config.mesh(), HardwareSpec());
    auto clean_run = simulator.Run(clean);
    auto guarded_run = simulator.Run(guarded);
    ASSERT_TRUE(clean_run.ok() && guarded_run.ok());
    EXPECT_EQ(guarded_run->step_seconds, clean_run->step_seconds);
}

TEST(CompilerGuardTest, RollbackIsExactAtPaperScale)
{
    // A corrupting pass that appends a wrong-shaped instruction.
    std::vector<ModelConfig> models = PaperModels();
    ASSERT_EQ(models.size(), 11u);
    for (const ModelConfig& config : models) {
        ExpectExactRollback(config, CorruptingPass(), "shape mismatch");
    }
}

// The shape verdict's wall at paper scale: each pass below corrupts an
// instruction that the guard verified after the previous pass, so a
// verdict that the mutating API failed to clear would let the compile
// through without a diagnostic.

TEST(CompilerGuardTest, AttributeCorruptionOfAVerifiedInstructionRollsBack)
{
    for (const ModelConfig& config : PaperModels()) {
        ExpectExactRollback(config, AttributeCorruptingPass(),
                            "dim out of range");
    }
}

TEST(CompilerGuardTest, OperandRewireOfAVerifiedEinsumRollsBack)
{
    for (const ModelConfig& config : PaperModels()) {
        ExpectExactRollback(config, OperandRewiringPass(),
                            "shape inference failed");
    }
}

TEST(CompilerGuardTest, ReplayDivergenceIsAnInternalError)
{
    // A pass that succeeds on its first run and fails when the guard
    // replays it (a stateful pass, which InjectedPass forbids): the
    // rollback of the corrupting pass after it cannot rebuild the
    // pre-pass state, so Compile must say so rather than hand back a
    // module that differs from the pipeline's.
    int runs = 0;
    InjectedPass flaky = {"succeeds-once", [&runs](HloModule*) -> Status {
                              return ++runs == 1
                                         ? Status::Ok()
                                         : Internal("replayed run differs");
                          }};
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(flaky);
    options.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInternal);
    const std::string message = report.status().message();
    EXPECT_NE(message.find("'succeeds-once'"), std::string::npos) << message;
    EXPECT_NE(message.find("'corrupt-shapes'"), std::string::npos)
        << message;
    EXPECT_EQ(runs, 2);
}

// ---------------------------------------------------------------------------
// Bucket-partition invariant: every decompose decision lands in exactly
// one of {decomposed, rejected_by_cost_model, fault_fallbacks}, with
// fault_lowered a refinement of the decomposed bucket. A site that was
// lowered to unidirectional must never also count as a fallback (the
// historical double-count), and a site the bidirectional emitter could
// never have used must not count as fault_lowered at all.
// ---------------------------------------------------------------------------

/**
 * Two sites: one large enough to decompose, one the gate rejects.
 * The rejected site is a contracting-dimension weight gather whose
 * full-output accumulation every iteration makes the decomposed loop
 * measurably slower than the blocking collective in traced simulation
 * (blocking ~99 us vs decomposed ~102 us on the default HardwareSpec)
 * — so the rejection is the verdict the simulator confirms, not just
 * the one the analytic formula prefers. (A latency-dominated tiny
 * free-dim site would no longer do: at eight partitions the blocking
 * collective pays seven serial hop latencies while the bidirectional
 * loop chains only three per direction, so the simulator shows a real
 * speedup and the calibrated gate rightly accepts it.)
 */
std::unique_ptr<HloModule>
BuildMixedSitesModule(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("mixed");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* big_p = b.Parameter(0, Shape(DType::kBF16, {2048, 4096}));
    auto* big_w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* big = b.Einsum(b.AllGather(big_p, 0, mesh.AxisGroups(0)), big_w,
                         "bf,fh->bh");
    auto* slow_p = b.Parameter(2, Shape({1024, 4096}));
    auto* slow_w = b.Parameter(3, Shape({512, 512}));
    auto* slow = b.Einsum(slow_p, b.AllGather(slow_w, 0, mesh.AxisGroups(0)),
                          "bf,fh->bh");
    comp->set_root(b.Tuple({big, slow}));
    return module;
}

TEST(CompilerGuardTest, DecisionBucketsPartitionMixedOutcomes)
{
    Mesh mesh(8);
    auto module = BuildMixedSitesModule(mesh);
    auto report = OverlapCompiler(CompilerOptions{}).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 2u);
    EXPECT_EQ(stats.total_decomposed(), 1);
    EXPECT_EQ(stats.rejected_by_cost_model, 1);
    EXPECT_EQ(stats.fault_fallbacks, 0);
    EXPECT_EQ(stats.fault_lowered, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
}

TEST(CompilerGuardTest, FaultFallbackLandsInExactlyOneBucket)
{
    Mesh mesh(8);
    auto module = BuildModule();
    CompilerOptions options;
    options.fault = SingleDegradedLink(mesh, 0, 0.02).spec;
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 1u);
    EXPECT_EQ(stats.fault_fallbacks, 1);
    EXPECT_EQ(stats.total_decomposed(), 0);
    EXPECT_EQ(stats.rejected_by_cost_model, 0);
    // The fallback must not *also* register as a lowering: that was the
    // double-count — a fault_lowered tick with no decomposed site.
    EXPECT_EQ(stats.fault_lowered, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
}

TEST(CompilerGuardTest, FaultLoweredStaysInsideDecomposedBucket)
{
    Mesh mesh(8);
    auto module = BuildModule();
    CompilerOptions options;
    LinkFault fault;
    fault.src = 0;
    fault.dst = mesh.RingNeighbor(0, 0, 1);
    fault.bandwidth_factor = 0.05;
    fault.latency_factor = 20.0;
    options.fault.link_faults.push_back(fault);
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 1u);
    EXPECT_EQ(stats.total_decomposed(), 1);
    EXPECT_EQ(stats.fault_lowered, 1);
    EXPECT_EQ(stats.fault_fallbacks, 0);
    EXPECT_EQ(stats.rejected_by_cost_model, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
    EXPECT_LE(stats.fault_lowered, stats.total_decomposed());
}

TEST(CompilerGuardTest, IneligibleSiteIsNeverCountedFaultLowered)
{
    // Odd shard extent: the bidirectional emitter would refuse this
    // site, so a one-direction fault has nothing to lower — the site
    // must stay a plain decomposed (unidirectional) entry, not leak a
    // fault_lowered tick for a lowering that never happened.
    Mesh mesh(8);
    auto module = std::make_unique<HloModule>("odd");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2047, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));

    CompilerOptions options;
    LinkFault fault;
    fault.src = 0;
    fault.dst = mesh.RingNeighbor(0, 0, 1);
    fault.bandwidth_factor = 0.05;
    fault.latency_factor = 20.0;
    options.fault.link_faults.push_back(fault);
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 1u);
    EXPECT_EQ(stats.fault_lowered, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
}

}  // namespace
}  // namespace overlap
