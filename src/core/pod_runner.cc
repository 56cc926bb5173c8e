#include "core/pod_runner.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/recovery/checkpoint.h"
#include "models/step_builder.h"
#include "sim/trace_export.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** SimulateModelStep with an optional simulator trace (kept in
 * StepReport::layer::trace). */
StatusOr<StepReport>
SimulateStepImpl(const ModelConfig& config, const CompilerOptions& options,
                 bool collect_trace)
{
    auto module = BuildLayerStepModule(config);
    if (!module.ok()) return module.status();

    OverlapCompiler compiler(options);
    auto compile_report = compiler.Compile(module->get());
    if (!compile_report.ok()) return compile_report.status();

    PodSimulator simulator(config.mesh(), options.hardware,
                           FaultModel(options.fault));
    auto sim = simulator.Run(**module, collect_trace);
    if (!sim.ok()) return sim.status();

    StepReport report;
    report.config = config;
    report.compile = compile_report.value();
    report.layer = sim.value();
    double layers = static_cast<double>(config.num_layers);
    report.step_seconds = sim->step_seconds * layers;
    report.mfu = sim->Mfu(options.hardware);
    report.comm_fraction =
        sim->step_seconds > 0.0
            ? sim->exposed_comm_seconds / sim->step_seconds
            : 0.0;
    report.energy_joules =
        sim->EnergyJoules(options.hardware, config.num_chips) * layers;
    return report;
}

}  // namespace

std::string
StepReport::ToString() const
{
    return StrCat(config.name, ": step=", HumanTime(step_seconds),
                  " mfu=", mfu * 100.0,
                  "% comm=", comm_fraction * 100.0,
                  "% energy=", energy_joules / 1e6, " MJ");
}

StatusOr<StepReport>
SimulateModelStep(const ModelConfig& config, const CompilerOptions& options)
{
    return SimulateStepImpl(config, options, /*collect_trace=*/false);
}

std::string
ModelOverlapAnalysis::ToJson() const
{
    return StrCat(
        "{\"model\":\"", overlap.config.name,
        "\",\"overlap_step_seconds\":", overlap.step_seconds,
        ",\"baseline_step_seconds\":", baseline.step_seconds,
        ",\"overlap_mfu\":", overlap.mfu,
        ",\"baseline_mfu\":", baseline.mfu,
        ",\"report\":", report.ToJson(), "}");
}

StatusOr<ModelOverlapAnalysis>
AnalyzeModelOverlap(const ModelConfig& config,
                    const CompilerOptions& options)
{
    ModelOverlapAnalysis analysis;
    auto overlapped =
        SimulateStepImpl(config, options, /*collect_trace=*/true);
    if (!overlapped.ok()) return overlapped.status();
    analysis.overlap = std::move(overlapped).value();

    CompilerOptions baseline_options = CompilerOptions::Baseline();
    baseline_options.hardware = options.hardware;
    baseline_options.fault = options.fault;
    auto baseline =
        SimulateStepImpl(config, baseline_options, /*collect_trace=*/false);
    if (!baseline.ok()) return baseline.status();
    analysis.baseline = std::move(baseline).value();

    auto report =
        BuildOverlapReport(analysis.overlap.compile, analysis.overlap.layer);
    if (!report.ok()) return report.status();
    analysis.report = std::move(report).value();
    analysis.report.baseline_step_seconds =
        analysis.baseline.layer.step_seconds;
    analysis.report.actual_speedup =
        analysis.overlap.layer.step_seconds > 0.0
            ? analysis.baseline.layer.step_seconds /
                  analysis.overlap.layer.step_seconds
            : 1.0;

    UnifiedTrace trace;
    trace.passes = analysis.overlap.compile.pass_timings;
    trace.sim = &analysis.overlap.layer;
    analysis.trace_json = UnifiedTraceToChromeJson(trace);
    return analysis;
}

std::string
RecoveryStats::ToString() const
{
    if (!failed) return "no failure";
    return StrCat(recovered ? "recovered" : "unrecovered",
                  ": detection=", HumanTime(detection_seconds),
                  " restore=", HumanTime(restore_seconds),
                  " replan=", HumanTime(replan_seconds),
                  " replay=", HumanTime(replay_seconds), " (",
                  replayed_steps, " steps from checkpoint ",
                  checkpoint_step, ") total=",
                  HumanTime(RecoveryLatencySeconds()));
}

std::string
SdcStats::ToString() const
{
    if (detected == 0 && escaped == 0) return "no corruption";
    std::string out = StrCat(
        "sdc: detected=", detected, " escaped=", escaped,
        " rollbacks=", rollbacks, " replayed=", replayed_steps,
        " rollback_time=", HumanTime(rollback_seconds));
    if (quarantined) {
        out += StrCat(" quarantined_chip=", quarantined_chip);
    }
    return out;
}

std::string
StepTrialReport::ToString() const
{
    std::string out =
        StrCat(config.name, ": p50=", HumanTime(p50_step_seconds),
               " p99=", HumanTime(p99_step_seconds),
               " retries=", trials.total_retries, " over ",
               trials.num_trials, " trials");
    if (recovery.failed) {
        out += StrCat("; recovery: ", recovery.ToString());
    }
    return out;
}

StatusOr<StepTrialReport>
SimulateModelStepTrials(const ModelConfig& config,
                        const CompilerOptions& options, int64_t num_trials)
{
    auto module = BuildLayerStepModule(config);
    if (!module.ok()) return module.status();

    OverlapCompiler compiler(options);
    auto compile_report = compiler.Compile(module->get());
    if (!compile_report.ok()) return compile_report.status();

    PodSimulator simulator(config.mesh(), options.hardware,
                           FaultModel(options.fault));
    auto trials = simulator.RunTrials(**module, num_trials);
    if (!trials.ok()) return trials.status();

    StepTrialReport report;
    report.config = config;
    report.compile = compile_report.value();
    report.trials = std::move(trials).value();
    double layers = static_cast<double>(config.num_layers);
    report.p50_step_seconds = report.trials.p50_step_seconds * layers;
    report.p99_step_seconds = report.trials.p99_step_seconds * layers;
    return report;
}

StepTrialReport
ElasticRunReport::AsStepTrialReport() const
{
    StepTrialReport report;
    report.config.name = "elastic_step";
    report.config.num_layers = 1;
    report.compile = initial_compile;
    report.trials = steps;
    report.p50_step_seconds = steps.p50_step_seconds;
    report.p99_step_seconds = steps.p99_step_seconds;
    report.recovery = recovery;
    return report;
}

std::string
ElasticRunReport::ToString() const
{
    std::string out =
        StrCat("elastic run: ", num_steps, " steps on ",
               final_mesh.ToString(), " total=",
               HumanTime(total_seconds),
               " p50_step=", HumanTime(steps.p50_step_seconds), "; ",
               recovery.ToString());
    if (sdc.detected > 0 || sdc.escaped > 0) {
        out += StrCat("; ", sdc.ToString());
    }
    return out;
}

StatusOr<ElasticRunReport>
RunElasticTraining(const Mesh& mesh, const ElasticRunOptions& options)
{
    if (options.num_steps < 1) {
        return InvalidArgument("elastic run needs at least one step");
    }
    if (options.checkpoint_interval < 1) {
        return InvalidArgument("checkpoint interval must be >= 1");
    }
    if (options.restore_bandwidth_bytes_per_second <= 0.0) {
        return InvalidArgument("restore bandwidth must be positive");
    }

    ElasticRunReport report;
    report.num_steps = options.num_steps;
    report.checkpoint_interval = options.checkpoint_interval;

    auto program = BuildElasticProgram(options.program, mesh,
                                       options.compiler,
                                       InitialElasticState(options.program));
    if (!program.ok()) return program.status();
    report.initial_compile = program->compile;

    CheckpointStore store(options.checkpoint_interval);
    {
        auto state = LogicalElasticState(*program);
        if (!state.ok()) return state.status();
        store.Save(0, state.value());
    }

    Mesh current_mesh = mesh;
    FaultSpec current_fault = options.compiler.fault;
    PodSimulator simulator(current_mesh, options.compiler.hardware,
                           FaultModel(current_fault));

    std::vector<double> committed_step_times;
    int64_t step = 0;
    // Steps below this index were already committed before the failure;
    // re-running them on the survivor mesh is replay, not progress.
    int64_t replay_until = 0;
    // Same marker for steps re-run after an SDC rollback.
    int64_t sdc_replay_until = 0;
    // Detections localized per chip (current-mesh ids); hitting the
    // strike limit quarantines the chip via a survivor-mesh replan.
    std::unordered_map<int64_t, int64_t> sdc_strikes;
    // The program's step prepared on the current simulator; both are
    // replaced together (survivor replan, SDC rebuild), which resets it.
    std::optional<PreparedStep> prepared;
    while (step < options.num_steps) {
        if (!prepared.has_value()) {
            auto prepare = simulator.Prepare(*program->module);
            if (!prepare.ok()) return prepare.status();
            prepared = std::move(prepare).value();
        }
        auto outcome = simulator.RunStep(*prepared, step);
        if (!outcome.ok()) return outcome.status();
        if (outcome->failed) {
            const FailureReport& failure = outcome->failure;
            if (report.recovery.failed) {
                return FailedPrecondition(StrCat(
                    "second permanent failure on the survivor mesh: ",
                    failure.ToString()));
            }
            report.recovery.failed = true;
            report.recovery.failure_summary = failure.ToString();
            report.recovery.failed_step = step;
            report.recovery.detection_seconds =
                failure.detected_at_seconds;
            report.total_seconds += failure.detected_at_seconds;

            auto plan = RecoveryPlanner::PlanSurvivorMesh(
                current_mesh, current_fault, failure);
            if (!plan.ok()) return plan.status();
            report.recovery.survivor_plan = plan->ToString();

            auto restored = store.Restore();
            if (!restored.ok()) return restored.status();
            report.recovery.checkpoint_step = store.latest_step();
            report.recovery.checkpoint_bytes = store.stored_bytes();
            report.recovery.restore_seconds =
                static_cast<double>(store.stored_bytes()) /
                options.restore_bandwidth_bytes_per_second;
            report.total_seconds += report.recovery.restore_seconds;

            CompilerOptions survivor_options = options.compiler;
            survivor_options.fault = plan->fault;
            auto survivor = BuildElasticProgram(
                options.program, plan->mesh, survivor_options,
                restored.value());
            if (!survivor.ok()) return survivor.status();
            report.survivor_compile = survivor->compile;
            report.recovery.replan_seconds =
                options.replan_latency_seconds;
            report.total_seconds += options.replan_latency_seconds;

            program = std::move(survivor);
            current_mesh = plan->mesh;
            current_fault = plan->fault;
            simulator = PodSimulator(current_mesh,
                                     options.compiler.hardware,
                                     FaultModel(current_fault));
            prepared.reset();
            report.recovery.replayed_steps = step - store.latest_step();
            replay_until = step;
            step = store.latest_step();
            report.recovery.recovered = true;
            continue;
        }

        // ---- Data-model advance, with SDC containment (§16) ---------
        //
        // The evaluator injects the live corruptions into real tensor
        // data and runs the detectors in line. A detection aborts the
        // advance (state stays clean), rolls back to the newest
        // checkpoint at or before the injection step, consumes the
        // detected injection from the fault spec, and replays; the
        // culprit chip collects a strike and is quarantined — evicted
        // like a dead chip, §5.5 gate re-run on the survivor mesh — at
        // the strike limit. Corrupted state is never committed.
        const bool sdc_active =
            !current_fault.silent_corruptions.empty() ||
            current_fault.sdc.active();
        if (sdc_active) {
            SdcEvalConfig eval_sdc;
            eval_sdc.corruptions = current_fault.silent_corruptions;
            eval_sdc.detectors = current_fault.sdc;
            eval_sdc.step = step;
            SdcEvalSink sink;
            EvalOptions eval_options;
            eval_options.sdc = &eval_sdc;
            eval_options.sdc_sink = &sink;
            Status advanced =
                AdvanceElasticState(&program.value(), eval_options);
            if (!advanced.ok() && sink.detected()) {
                const CorruptionReport primary = *sink.Primary();
                ++report.sdc.detected;
                ++report.sdc.rollbacks;
                report.sdc.last_report = primary.ToString();
                ++sdc_strikes[primary.chip];
                // Charge the aborted step up to the (modeled) moment the
                // detector fired.
                if (outcome->corrupted) {
                    report.sdc.detection_latency_seconds +=
                        outcome->corruption_detected_at_seconds;
                    report.total_seconds +=
                        outcome->corruption_detected_at_seconds;
                } else {
                    report.total_seconds += outcome->result.step_seconds;
                }

                // Consume the detected injection so the replay is clean.
                auto& injections = current_fault.silent_corruptions;
                injections.erase(
                    std::remove_if(
                        injections.begin(), injections.end(),
                        [&primary](const SilentCorruption& c) {
                            return c.step == primary.injected_step &&
                                   c.chip == primary.chip;
                        }),
                    injections.end());

                const int64_t clean_step =
                    store.StepAtOrBefore(primary.injected_step);
                if (clean_step < 0) {
                    return FailedPrecondition(StrCat(
                        "no clean checkpoint at or before corrupted "
                        "step ",
                        primary.injected_step, ": ", primary.ToString()));
                }
                auto restored =
                    store.RestoreAtOrBefore(primary.injected_step);
                if (!restored.ok()) return restored.status();
                const double restore_time =
                    static_cast<double>(store.stored_bytes()) /
                    options.restore_bandwidth_bytes_per_second;
                report.sdc.rollback_seconds += restore_time;
                report.total_seconds += restore_time;

                Mesh next_mesh = current_mesh;
                FaultSpec next_fault = current_fault;
                const bool quarantine =
                    sdc_strikes[primary.chip] >= options.sdc_strike_limit;
                if (quarantine) {
                    FailureReport quarantine_report;
                    quarantine_report.cause =
                        FailureCause::kSilentCorruption;
                    quarantine_report.dead_chip = primary.chip;
                    quarantine_report.failed_step = step;
                    quarantine_report.last_completed_step = step - 1;
                    auto plan = RecoveryPlanner::PlanSurvivorMesh(
                        current_mesh, current_fault, quarantine_report);
                    if (!plan.ok()) return plan.status();
                    report.sdc.quarantined = true;
                    report.sdc.quarantined_chip = primary.chip;
                    report.recovery.survivor_plan = plan->ToString();
                    next_mesh = plan->mesh;
                    next_fault = plan->fault;
                    // Strike ledger is keyed by device id; ids remap on
                    // the survivor mesh.
                    sdc_strikes.clear();
                    report.sdc.rollback_seconds +=
                        options.replan_latency_seconds;
                    report.total_seconds += options.replan_latency_seconds;
                }

                CompilerOptions rebuild_options = options.compiler;
                rebuild_options.fault = next_fault;
                auto rebuilt = BuildElasticProgram(
                    options.program, next_mesh, rebuild_options,
                    restored.value());
                if (!rebuilt.ok()) return rebuilt.status();
                if (quarantine) {
                    report.survivor_compile = rebuilt->compile;
                }
                program = std::move(rebuilt);
                current_mesh = next_mesh;
                current_fault = next_fault;
                simulator = PodSimulator(current_mesh,
                                         options.compiler.hardware,
                                         FaultModel(current_fault));
                prepared.reset();
                report.sdc.replayed_steps += step - clean_step;
                sdc_replay_until = std::max(sdc_replay_until, step);
                step = clean_step;
                continue;
            }
            if (!advanced.ok()) return advanced;
            // Fresh injections nothing caught this step: the poisoned
            // state has just been committed into the X shards.
            for (const SilentCorruption& c :
                 current_fault.silent_corruptions) {
                if (c.step == step) ++report.sdc.escaped;
            }
        } else {
            auto status = AdvanceElasticState(&program.value());
            if (!status.ok()) return status;
        }
        double step_time = outcome->result.step_seconds;
        report.total_seconds += step_time;
        if (step < sdc_replay_until) {
            report.sdc.rollback_seconds += step_time;
        } else if (step < replay_until) {
            report.recovery.replay_seconds += step_time;
        } else {
            committed_step_times.push_back(step_time);
        }
        ++step;
        auto state = LogicalElasticState(*program);
        if (!state.ok()) return state.status();
        store.MaybeSave(step, state.value());
    }

    report.final_mesh = current_mesh;
    report.steps = TrialStats::FromSamples(std::move(committed_step_times));
    auto final_state = LogicalElasticState(*program);
    if (!final_state.ok()) return final_state.status();
    report.final_state = std::move(final_state).value();
    return report;
}

}  // namespace overlap
