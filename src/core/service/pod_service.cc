#include "core/service/pod_service.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery/checkpoint.h"
#include "core/recovery/recovery_planner.h"
#include "sim/engine.h"
#include "support/metrics.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** Flips metrics on for the run and restores the caller's setting. */
class ScopedMetricsEnable {
  public:
    ScopedMetricsEnable() : was_enabled_(MetricsEnabled())
    {
        SetMetricsEnabled(true);
    }
    ~ScopedMetricsEnable() { SetMetricsEnabled(was_enabled_); }
    ScopedMetricsEnable(const ScopedMetricsEnable&) = delete;
    ScopedMetricsEnable& operator=(const ScopedMetricsEnable&) = delete;

  private:
    bool was_enabled_;
};

/** The compiled §7.1 serving program on one mesh. */
struct CompiledTower {
    std::unique_ptr<HloModule> module;
    CompileReport compile;
};

StatusOr<CompiledTower>
CompileTower(const Mesh& mesh, const InferenceTowerSpec& spec,
             const CompilerOptions& options)
{
    auto module = BuildInferenceTowerModule(mesh, spec);
    if (!module.ok()) return module.status();
    OverlapCompiler compiler(options);
    auto compile = compiler.Compile(module->get());
    if (!compile.ok()) return compile.status();
    CompiledTower tower;
    tower.module = std::move(module).value();
    tower.compile = std::move(compile).value();
    return tower;
}

/**
 * The §5.5 gate verdict on a survivor recompile: any guarded-pipeline
 * rollback, or a compile where every decomposition candidate was
 * rejected, means the replanned mesh gets no overlap — the service then
 * degrades to the blocking baseline instead of trusting a compile that
 * the gate already distrusts.
 */
bool
GateFailed(const CompileReport& report)
{
    if (!report.pass_diagnostics.empty()) return true;
    const DecomposeStats& d = report.decompose;
    return !d.decisions.empty() && d.total_decomposed() == 0;
}

/**
 * Trial salt for a request's fault-model draw. Re-queued requests get a
 * fresh stream per attempt: a transfer whose transient draws exhausted
 * the retry budget re-draws on the retry instead of deterministically
 * exhausting again forever.
 */
int64_t
RequestTrial(const ServiceRequest& request)
{
    return request.id + 1000003 * request.attempts;
}

/** Mirrors the final per-class tallies into the registry. */
void
MirrorStats(MetricsRegistry* registry, const std::string& prefix,
            const ClassStats& stats)
{
    registry->counter(prefix + ".arrivals_total")->Add(stats.arrivals);
    registry->counter(prefix + ".completed_total")->Add(stats.completed);
    registry->counter(prefix + ".shed_total")
        ->Add(stats.shed_at_admission + stats.shed_under_backlog +
              stats.shed_expired);
    registry->counter(prefix + ".slo_violations_total")
        ->Add(stats.slo_violations);
    registry->counter(prefix + ".goodput_total")->Add(stats.goodput);
    registry->counter(prefix + ".corrupted_rejected_total")
        ->Add(stats.corrupted_rejected);
}

}  // namespace

std::string
ClassStats::ToJson() const
{
    return StrCat("{\"arrivals\": ", arrivals,
                  ", \"admitted\": ", admitted,
                  ", \"shed_at_admission\": ", shed_at_admission,
                  ", \"completed\": ", completed,
                  ", \"shed_under_backlog\": ", shed_under_backlog,
                  ", \"shed_expired\": ", shed_expired,
                  ", \"corrupted_rejected\": ", corrupted_rejected,
                  ", \"slo_violations\": ", slo_violations,
                  ", \"goodput\": ", goodput,
                  ", \"p50_latency_s\": ", p50_latency_seconds,
                  ", \"p99_latency_s\": ", p99_latency_seconds,
                  ", \"p999_latency_s\": ", p999_latency_seconds,
                  ", \"max_latency_s\": ", max_latency_seconds, "}");
}

std::string
ServiceRecovery::ToJson() const
{
    return StrCat("{\"at_s\": ", at_seconds,
                  ", \"detection_s\": ", detection_seconds,
                  ", \"restore_s\": ", restore_seconds,
                  ", \"replan_s\": ", replan_seconds,
                  ", \"replay_s\": ", replay_seconds,
                  ", \"recovery_latency_s\": ", LatencySeconds(),
                  ", \"replayed_steps\": ", replayed_steps,
                  ", \"degraded_blocking\": ",
                  degraded_blocking ? "true" : "false", "}");
}

std::string
ServiceReport::ToJson() const
{
    std::vector<std::string> recovery_json;
    recovery_json.reserve(recoveries.size());
    for (const ServiceRecovery& r : recoveries) {
        recovery_json.push_back(r.ToJson());
    }
    return StrCat(
        "{\"inference\": ", inference.ToJson(),
        ",\n \"training\": ", training.ToJson(),
        ",\n \"pod_steps\": ", pod_steps,
        ", \"end_s\": ", end_seconds,
        ", \"peak_queue_depth\": ", peak_queue_depth,
        ", \"overloaded\": ", overloaded ? "true" : "false",
        ", \"degraded_blocking\": ", degraded_blocking ? "true" : "false",
        ", \"corruption_detections\": ", corruption_detections,
        ", \"sdc_quarantined\": ", sdc_quarantined ? "true" : "false",
        ", \"sdc_quarantined_chip\": ", sdc_quarantined_chip,
        ", \"final_mesh\": \"", final_mesh.ToString(),
        "\",\n \"recoveries\": [", StrJoin(recovery_json, ", "),
        "],\n \"metrics\": ", metrics_json.empty() ? "{}" : metrics_json,
        "}");
}

std::string
ServiceReport::ToString() const
{
    return StrCat(
        "pod service on ", final_mesh.ToString(), ": inference ",
        inference.goodput, "/", inference.arrivals, " in-SLO (p99=",
        HumanTime(inference.p99_latency_seconds), "), training ",
        training.goodput, "/", training.arrivals, " in-SLO, ",
        recoveries.size(), " recoveries",
        corruption_detections > 0
            ? StrCat(", ", corruption_detections, " corruptions rejected")
            : "",
        sdc_quarantined ? StrCat(" (chip ", sdc_quarantined_chip,
                                 " quarantined)")
                        : "",
        degraded_blocking ? " (degraded to blocking)" : "",
        overloaded ? " OVERLOADED" : "",
        ", peak depth ", peak_queue_depth,
        ", end=", HumanTime(end_seconds));
}

PodService::PodService(Mesh mesh, ServiceOptions options)
    : mesh_(std::move(mesh)), options_(std::move(options))
{
}

StatusOr<ServiceReport>
PodService::Run()
{
    if (options_.max_queue_depth < 1) {
        return InvalidArgument("service queue depth must be >= 1");
    }
    if (options_.shed_watermark < 0.0 || options_.shed_watermark > 1.0) {
        return InvalidArgument("shed watermark must be in [0, 1]");
    }
    if (options_.checkpoint_interval < 1) {
        return InvalidArgument("checkpoint interval must be >= 1");
    }
    if (options_.restore_bandwidth_bytes_per_second <= 0.0) {
        return InvalidArgument("restore bandwidth must be positive");
    }
    if (options_.arrivals.duration_seconds <= 0.0) {
        return InvalidArgument("service duration must be positive");
    }
    if (options_.max_runtime_factor < 1.0) {
        return InvalidArgument("max runtime factor must be >= 1");
    }
    if (options_.sdc_strike_limit < 1) {
        return InvalidArgument("sdc strike limit must be >= 1");
    }

    ScopedMetricsEnable metrics_on;
    MetricsRegistry registry;
    Histogram* inference_latency =
        registry.histogram("service.inference.latency_seconds");
    Histogram* training_latency =
        registry.histogram("service.training.latency_seconds");
    Histogram* recovery_latency =
        registry.histogram("service.recovery.latency_seconds");
    Gauge* peak_depth_gauge = registry.gauge("service.queue.peak_depth");

    ServiceReport report;
    const std::vector<ServiceRequest> arrivals =
        GenerateArrivals(options_.arrivals);
    AdmissionQueue queue(options_.max_queue_depth);
    const int64_t watermark_depth = static_cast<int64_t>(
        options_.shed_watermark *
        static_cast<double>(options_.max_queue_depth));

    // The two compiled workloads on the current (possibly survivor) mesh.
    auto program =
        BuildElasticProgram(options_.training, mesh_, options_.compiler,
                            InitialElasticState(options_.training));
    if (!program.ok()) return program.status();
    auto tower =
        CompileTower(mesh_, options_.inference, options_.compiler);
    if (!tower.ok()) return tower.status();

    CheckpointStore store(options_.checkpoint_interval);
    {
        auto state = LogicalElasticState(*program);
        if (!state.ok()) return state.status();
        store.Save(0, state.value());
    }

    Mesh current_mesh = mesh_;
    FaultSpec current_fault = options_.compiler.fault;
    PodSimulator simulator(current_mesh, options_.compiler.hardware,
                           FaultModel(current_fault));
    // Each workload's step prepared on the current simulator, by
    // JobClass: built on first use, reset whenever the simulator or the
    // compiled workloads are replaced.
    std::optional<PreparedStep> prepared[2];
    auto prepared_step =
        [&](JobClass job) -> StatusOr<const PreparedStep*> {
        std::optional<PreparedStep>& slot = prepared[static_cast<int>(job)];
        if (!slot.has_value()) {
            auto prepare = simulator.Prepare(job == JobClass::kTraining
                                                 ? *program->module
                                                 : *tower->module);
            if (!prepare.ok()) return prepare.status();
            slot = std::move(prepare).value();
        }
        return &*slot;
    };
    auto replace_simulator = [&]() {
        simulator = PodSimulator(current_mesh, options_.compiler.hardware,
                                 FaultModel(current_fault));
        for (std::optional<PreparedStep>& slot : prepared) slot.reset();
    };

    ClassStats* stats[2] = {nullptr, nullptr};
    stats[static_cast<int>(JobClass::kTraining)] = &report.training;
    stats[static_cast<int>(JobClass::kInference)] = &report.inference;
    auto stats_of = [&stats](JobClass job) -> ClassStats& {
        return *stats[static_cast<int>(job)];
    };

    double now = 0.0;
    const double hard_stop =
        options_.arrivals.duration_seconds * options_.max_runtime_factor;
    size_t next_arrival = 0;
    // Training-state step the current shards correspond to, and the
    // highest step the service ever committed — after a restore the gap
    // between them is the replay debt.
    int64_t committed = 0;
    int64_t max_committed = 0;
    int64_t replay_pending = 0;
    // Replay steps draw from their own trial stream, far away from any
    // request id (bit 40 set), so a replayed step never re-runs the
    // exact transient draws that just failed.
    int64_t replay_trial = int64_t{1} << 40;
    bool has_failure = false;
    FailureReport failure;
    bool has_inflight = false;
    ServiceRequest inflight;

    // SDC containment state (§16): detections localized per chip
    // (current-mesh ids). Consuming a detected injection keeps the
    // retry clean; hitting the strike limit quarantines the chip
    // through the regular recovery path with a synthesized
    // kSilentCorruption report (restore + survivor replan).
    std::unordered_map<int64_t, int64_t> sdc_strikes;
    auto consume_injection = [&](const CorruptionReport& rep) {
        auto& injections = current_fault.silent_corruptions;
        injections.erase(
            std::remove_if(injections.begin(), injections.end(),
                           [&rep](const SilentCorruption& c) {
                               return c.step == rep.injected_step &&
                                      c.chip == rep.chip;
                           }),
            injections.end());
        replace_simulator();
    };
    auto strike = [&](int64_t chip, int64_t at_step) {
        if (++sdc_strikes[chip] < options_.sdc_strike_limit) return;
        failure = FailureReport();
        failure.cause = FailureCause::kSilentCorruption;
        failure.dead_chip = chip;
        failure.failed_step = at_step;
        failure.last_completed_step = at_step - 1;
        // Detection time was already charged when the detector fired.
        failure.detected_at_seconds = 0.0;
        has_failure = true;
        report.sdc_quarantined = true;
        report.sdc_quarantined_chip = chip;
        sdc_strikes.clear();
    };

    auto admit_up_to = [&](double time) {
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival].arrival_seconds <= time) {
            ServiceRequest request = arrivals[next_arrival++];
            ClassStats& s = stats_of(request.job);
            ++s.arrivals;
            if (queue.Admit(request)) {
                ++s.admitted;
            } else {
                // Queue full: shed queued low-priority work down to the
                // watermark to make room, so a high-priority arrival
                // displaces backlog instead of being turned away by it.
                for (const ServiceRequest& shed :
                     queue.ShedTo(watermark_depth)) {
                    ++stats_of(shed.job).shed_under_backlog;
                }
                if (queue.Admit(request)) {
                    ++s.admitted;
                } else {
                    ++s.shed_at_admission;
                }
            }
            report.peak_queue_depth =
                std::max(report.peak_queue_depth, queue.depth());
        }
    };

    while (true) {
        admit_up_to(now);

        if (has_failure) {
            // Elastic recovery under load: detect, restore, replan onto
            // the survivor mesh, re-queue the in-flight request, and
            // take on the replay debt. Re-entrant — a failure during
            // replay lands back here and shrinks the mesh again.
            ServiceRecovery recovery;
            recovery.failure_summary = failure.ToString();
            recovery.detection_seconds = failure.detected_at_seconds;
            now += failure.detected_at_seconds;
            recovery.at_seconds = now;

            auto plan = RecoveryPlanner::PlanSurvivorMesh(
                current_mesh, current_fault, failure);
            if (!plan.ok()) return plan.status();
            recovery.survivor_plan = plan->ToString();

            auto restored = store.Restore();
            if (!restored.ok()) return restored.status();
            recovery.restore_seconds =
                static_cast<double>(store.stored_bytes()) /
                options_.restore_bandwidth_bytes_per_second;
            now += recovery.restore_seconds;

            CompilerOptions survivor_options = options_.compiler;
            survivor_options.fault = plan->fault;
            auto survivor =
                BuildElasticProgram(options_.training, plan->mesh,
                                    survivor_options, restored.value());
            if (!survivor.ok()) return survivor.status();
            auto survivor_tower = CompileTower(
                plan->mesh, options_.inference, survivor_options);
            if (!survivor_tower.ok()) return survivor_tower.status();

            if (GateFailed(survivor->compile) ||
                GateFailed(survivor_tower->compile)) {
                // Graceful degradation: the gate distrusts the
                // replanned overlap, so serve on blocking lowering —
                // slower steps, but the queue keeps draining.
                CompilerOptions blocking = CompilerOptions::Baseline();
                blocking.hardware = options_.compiler.hardware;
                blocking.fault = plan->fault;
                survivor =
                    BuildElasticProgram(options_.training, plan->mesh,
                                        blocking, restored.value());
                if (!survivor.ok()) return survivor.status();
                survivor_tower = CompileTower(plan->mesh,
                                              options_.inference,
                                              blocking);
                if (!survivor_tower.ok()) {
                    return survivor_tower.status();
                }
                recovery.degraded_blocking = true;
                report.degraded_blocking = true;
            }
            recovery.replan_seconds = options_.replan_latency_seconds;
            now += options_.replan_latency_seconds;

            program = std::move(survivor);
            tower = std::move(survivor_tower);
            current_mesh = plan->mesh;
            current_fault = plan->fault;
            replace_simulator();

            if (has_inflight) {
                ++inflight.attempts;
                queue.Requeue(inflight);
                report.peak_queue_depth =
                    std::max(report.peak_queue_depth, queue.depth());
                has_inflight = false;
            }
            committed = store.latest_step();
            replay_pending = max_committed - committed;
            recovery.replayed_steps = replay_pending;
            report.recoveries.push_back(recovery);
            if (replay_pending == 0) {
                recovery_latency->Record(recovery.LatencySeconds());
            }
            has_failure = false;
            continue;
        }

        if (now > hard_stop) {
            // The offered load is not sustainable on this (possibly
            // degraded) pod: give up loudly. Everything still queued or
            // yet to arrive is counted shed, never silently dropped.
            report.overloaded = true;
            for (const ServiceRequest& shed :
                 queue.ShedTo(0)) {
                ++stats_of(shed.job).shed_under_backlog;
            }
            while (next_arrival < arrivals.size()) {
                ClassStats& s =
                    stats_of(arrivals[next_arrival++].job);
                ++s.arrivals;
                ++s.shed_at_admission;
            }
            break;
        }

        if (replay_pending > 0) {
            // Replay debt outranks new work: the training state must
            // catch back up to the last committed step before the
            // service resumes taking requests.
            auto step = prepared_step(JobClass::kTraining);
            if (!step.ok()) return step.status();
            auto outcome = simulator.RunStep(**step, report.pod_steps,
                                             /*collect_trace=*/false,
                                             replay_trial++);
            if (!outcome.ok()) return outcome.status();
            if (outcome->failed) {
                has_failure = true;
                failure = outcome->failure;
                continue;
            }
            if (outcome->corrupted) {
                // Corruption detected mid-replay: consume the injection
                // and retry the same replay step on a clean draw.
                ++report.corruption_detections;
                now += outcome->corruption_detected_at_seconds;
                consume_injection(outcome->corruption);
                strike(outcome->corruption.chip, report.pod_steps);
                continue;
            }
            ++report.pod_steps;
            now += outcome->result.step_seconds;
            report.recoveries.back().replay_seconds +=
                outcome->result.step_seconds;
            auto status = AdvanceElasticState(&program.value());
            if (!status.ok()) return status;
            ++committed;
            --replay_pending;
            auto state = LogicalElasticState(*program);
            if (!state.ok()) return state.status();
            store.MaybeSave(committed, state.value());
            if (replay_pending == 0) {
                recovery_latency->Record(
                    report.recoveries.back().LatencySeconds());
            }
            continue;
        }

        for (const ServiceRequest& expired : queue.DropExpired(now)) {
            ++stats_of(expired.job).shed_expired;
        }

        if (queue.empty()) {
            if (next_arrival >= arrivals.size()) break;
            // Idle until the next arrival.
            now = arrivals[next_arrival].arrival_seconds;
            continue;
        }

        ServiceRequest request;
        queue.Pop(&request);
        auto step = prepared_step(request.job);
        if (!step.ok()) return step.status();
        const int64_t step_index = report.pod_steps;
        auto outcome =
            simulator.RunStep(**step, step_index,
                              /*collect_trace=*/false,
                              RequestTrial(request));
        if (!outcome.ok()) return outcome.status();
        if (outcome->failed) {
            has_failure = true;
            failure = outcome->failure;
            has_inflight = true;
            inflight = request;
            continue;
        }
        if (outcome->corrupted) {
            // Containment: the detector fired before the result left
            // the pod — the response is rejected, never emitted, and
            // the request lands in its own terminal bucket.
            ++stats_of(request.job).corrupted_rejected;
            ++report.corruption_detections;
            now += outcome->corruption_detected_at_seconds;
            consume_injection(outcome->corruption);
            strike(outcome->corruption.chip, step_index);
            continue;
        }
        ++report.pod_steps;
        now += outcome->result.step_seconds;
        if (request.job == JobClass::kTraining) {
            const bool sdc_active =
                !current_fault.silent_corruptions.empty() ||
                current_fault.sdc.active();
            if (sdc_active) {
                // Inject + detect at the data level too: the evaluator
                // aborts on detection, so corrupted shards never
                // replace clean training state.
                SdcEvalConfig eval_sdc;
                eval_sdc.corruptions = current_fault.silent_corruptions;
                eval_sdc.detectors = current_fault.sdc;
                eval_sdc.step = step_index;
                SdcEvalSink sink;
                EvalOptions eval_options;
                eval_options.sdc = &eval_sdc;
                eval_options.sdc_sink = &sink;
                Status advanced =
                    AdvanceElasticState(&program.value(), eval_options);
                if (!advanced.ok() && sink.detected()) {
                    const CorruptionReport primary = *sink.Primary();
                    ++stats_of(request.job).corrupted_rejected;
                    ++report.corruption_detections;
                    consume_injection(primary);
                    strike(primary.chip, step_index);
                    continue;
                }
                if (!advanced.ok()) return advanced;
            } else {
                auto status = AdvanceElasticState(&program.value());
                if (!status.ok()) return status;
            }
            ++committed;
            max_committed = committed;
            auto state = LogicalElasticState(*program);
            if (!state.ok()) return state.status();
            store.MaybeSave(committed, state.value());
        }
        ClassStats& s = stats_of(request.job);
        ++s.completed;
        double latency = now - request.arrival_seconds;
        (request.job == JobClass::kTraining ? training_latency
                                            : inference_latency)
            ->Record(latency);
        if (now <= request.deadline_seconds) {
            ++s.goodput;
        } else {
            ++s.slo_violations;
        }
    }

    report.end_seconds = now;
    report.final_mesh = current_mesh;
    {
        Histogram::Snapshot snap = inference_latency->snapshot();
        report.inference.p50_latency_seconds = snap.p50();
        report.inference.p99_latency_seconds = snap.p99();
        report.inference.p999_latency_seconds = snap.p999();
        report.inference.max_latency_seconds = snap.max;
    }
    {
        Histogram::Snapshot snap = training_latency->snapshot();
        report.training.p50_latency_seconds = snap.p50();
        report.training.p99_latency_seconds = snap.p99();
        report.training.p999_latency_seconds = snap.p999();
        report.training.max_latency_seconds = snap.max;
    }
    peak_depth_gauge->Set(
        static_cast<double>(report.peak_queue_depth));
    MirrorStats(&registry, "service.inference", report.inference);
    MirrorStats(&registry, "service.training", report.training);
    registry.counter("service.recoveries_total")
        ->Add(static_cast<int64_t>(report.recoveries.size()));
    report.metrics_json = registry.SnapshotJson();
    return report;
}

}  // namespace overlap
