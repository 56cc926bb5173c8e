#include "core/overlap_compiler.h"

#include <utility>

#include "hlo/verifier.h"
#include "passes/async.h"
#include "passes/fusion_rewrites.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** A named pipeline stage operating on the module's current entry. */
struct PipelinePass {
    std::string name;
    std::function<Status()> run;
};

}  // namespace

std::string
PassDiagnostic::ToString() const
{
    return StrCat("pass '", pass_name, "' ",
                  rolled_back ? "rolled back" : "failed", ": ",
                  StatusCodeName(code), ": ", error);
}

StatusOr<CompileReport>
OverlapCompiler::Compile(HloModule* module) const
{
    if (module->entry() == nullptr || !module->mesh().has_value()) {
        return InvalidArgument(
            "compile needs a per-device module with a mesh");
    }
    OVERLAP_RETURN_IF_ERROR(VerifyModule(*module));
    // The guard's one snapshot, taken before decompose unrolls any
    // loop into the entry. Clone keeps ids and group counters and the
    // passes are deterministic, so replaying the clean passes on a
    // clone of it rebuilds any later pre-pass state exactly.
    std::unique_ptr<HloComputation> input;
    if (options_.guard_passes) input = module->entry()->Clone();
    CostModel cost(options_.hardware);
    FaultModel fault(options_.fault);
    CompileReport report;

    // The pipeline: each pass re-fetches module->entry() when it runs,
    // because a rollback replaces the entry computation wholesale.
    std::vector<PipelinePass> pipeline;
    if (options_.enable_overlap) {
        pipeline.push_back(
            {"decompose", [&]() -> Status {
                 CollectiveEinsumDecomposer decomposer(
                     *module->mesh(), &cost, options_.decompose);
                 decomposer.set_fault_model(&fault);
                 auto stats = decomposer.Run(module->entry());
                 if (!stats.ok()) return stats.status();
                 report.decompose = std::move(stats).value();
                 return Status::Ok();
             }});
        pipeline.push_back(
            {"async-permute-creation", [&]() -> Status {
                 auto async =
                     CreateAsyncCollectivePermutes(module->entry());
                 if (!async.ok()) return async.status();
                 report.async_permutes = async.value();
                 return Status::Ok();
             }});
        if (options_.async_all_to_all) {
            pipeline.push_back(
                {"async-a2a-creation", [&]() -> Status {
                     auto async = CreateAsyncAllToAlls(module->entry());
                     if (!async.ok()) return async.status();
                     report.async_all_to_alls = async.value();
                     return Status::Ok();
                 }});
        }
        // §5.4.3 local rewrites that make operand pre-processing
        // fusable with the consumer einsums.
        pipeline.push_back(
            {"concat-fusion-rewrites", [&]() -> Status {
                 auto rewrites =
                     MakeConcatenatesFusionFriendly(module->entry());
                 if (!rewrites.ok()) return rewrites.status();
                 report.concat_rewrites = rewrites.value();
                 return Status::Ok();
             }});
    }
    for (const InjectedPass& injected : options_.extra_passes) {
        pipeline.push_back(
            {injected.name,
             [&injected, module]() { return injected.run(module); }});
    }
    pipeline.push_back({"fusion", [&]() -> Status {
                            auto fused = RunFusionPass(module->entry(),
                                                       options_.fusion);
                            if (!fused.ok()) return fused.status();
                            report.fusion_groups = fused.value();
                            return Status::Ok();
                        }});
    pipeline.push_back({"schedule", [&]() -> Status {
                            return ScheduleComputation(module->entry(),
                                                       cost,
                                                       options_.scheduler);
                        }});

    const double compile_start = NowSeconds();
    Counter* passes_run =
        MetricsRegistry::Global().counter("compiler.passes_run");
    Histogram* pass_seconds =
        MetricsRegistry::Global().histogram("compiler.pass_seconds");
    // Passes that ran clean, in pipeline order: replaying them on a
    // clone of `input` rebuilds the state before any later pass.
    std::vector<const PipelinePass*> applied;
    for (const PipelinePass& pass : pipeline) {
        PassTiming timing;
        timing.pass_name = pass.name;
        const double pass_start = NowSeconds();
        timing.start_seconds = pass_start - compile_start;
        timing.instructions_before = module->entry()->instruction_count();
        Status status = pass.run();
        const double pass_end = NowSeconds();
        timing.end_seconds = pass_end - compile_start;
        timing.instructions_after = module->entry()->instruction_count();
        passes_run->Add();
        if (MetricsEnabled()) pass_seconds->Record(timing.seconds());
        if (status.ok()) status = VerifyModule(*module);
        if (status.ok()) {
            applied.push_back(&pass);
            timing.guard_seconds = NowSeconds() - pass_end;
            report.pass_timings.push_back(std::move(timing));
            continue;
        }
        if (!options_.guard_passes) return status;
        // The pass errored or emitted invalid HLO: rebuild the pre-pass
        // state (module and report) from the input snapshot, disable the
        // pass for this module, and surface a structured diagnostic
        // instead of a broken module. The report keeps its timings and
        // diagnostics; the replayed passes rewrite everything else.
        module->ReplaceEntry(input->Clone());
        CompileReport replayed;
        replayed.pass_timings = std::move(report.pass_timings);
        replayed.pass_diagnostics = std::move(report.pass_diagnostics);
        report = std::move(replayed);
        for (const PipelinePass* earlier : applied) {
            Status replay = earlier->run();
            if (replay.ok()) replay = VerifyModule(*module);
            if (!replay.ok()) {
                return Internal(StrCat(
                    "guarded pipeline: pass '", earlier->name,
                    "' diverged on replay after rolling back '", pass.name,
                    "': ", replay.ToString()));
            }
        }
        timing.guard_seconds = NowSeconds() - pass_end;
        report.pass_timings.push_back(std::move(timing));
        PassDiagnostic diagnostic;
        diagnostic.pass_name = pass.name;
        diagnostic.code = status.code();
        diagnostic.error = status.message();
        diagnostic.rolled_back = true;
        OVERLAP_LOG(kWarning)
            << "guarded pipeline: " << diagnostic.ToString();
        report.pass_diagnostics.push_back(std::move(diagnostic));
    }

    return report;
}

}  // namespace overlap
