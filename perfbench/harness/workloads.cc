#include "harness/workloads.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "difftest/difftest.h"
#include "hlo/verifier.h"
#include "interp/comparison.h"
#include "interp/evaluator.h"
#include "models/fault_presets.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "sim/engine.h"
#include "support/strings.h"
#include "tensor/buffer_pool.h"

namespace perfbench {
namespace {

using overlap::CompileReport;
using overlap::CompilerOptions;
using overlap::HloModule;
using overlap::ModelConfig;
using overlap::PodSimulator;
using overlap::SimResult;
using overlap::Status;
using overlap::StatusOr;
using overlap::StrCat;

/** SplitMix64 step: independent streams derived from the workload seed. */
uint64_t
Mix(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
SameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** Every scalar a simulation reports, compared bit for bit. */
bool
SameSim(const SimResult& a, const SimResult& b)
{
    return SameBits(a.step_seconds, b.step_seconds) &&
           SameBits(a.compute_seconds, b.compute_seconds) &&
           SameBits(a.exposed_comm_seconds, b.exposed_comm_seconds) &&
           SameBits(a.einsum_flops, b.einsum_flops) &&
           SameBits(a.transferred_bytes, b.transferred_bytes) &&
           a.num_async_transfers == b.num_async_transfers &&
           a.num_blocking_collectives == b.num_blocking_collectives &&
           a.peak_memory_bytes == b.peak_memory_bytes &&
           a.peak_in_flight == b.peak_in_flight &&
           a.retry.retries == b.retry.retries &&
           a.retry.attempts == b.retry.attempts &&
           SameBits(a.retry.backoff_seconds, b.retry.backoff_seconds) &&
           SameBits(a.straggler_stall_seconds, b.straggler_stall_seconds) &&
           SameBits(a.detector_seconds, b.detector_seconds);
}

int64_t
ScheduledInstrs(const HloModule& module)
{
    const auto* entry = module.entry();
    return entry->has_schedule()
               ? static_cast<int64_t>(entry->schedule().size())
               : entry->instruction_count();
}

/** Cycle length after WorkloadOptions::max_items. */
int64_t
CycleLength(int64_t items, const WorkloadOptions& options)
{
    return options.max_items > 0 ? std::min(items, options.max_items) : items;
}

/**
 * Times the measured part of one item: opens the item's root span in a
 * traced run and reads the clock in both runs.
 */
class ItemClock {
  public:
    explicit ItemClock(SpanLog* log)
        : log_(log), span_(log ? log->Open("item") : -1), start_(Now()) {}

    double Stop()
    {
        double seconds = Now() - start_;
        if (log_) log_->Close(span_);
        return seconds;
    }

  private:
    SpanLog* log_;
    int64_t span_;
    double start_;
};

/** One simulation through the public entry point, with its counters. */
StatusOr<SimResult>
Simulate(const PodSimulator& simulator, const HloModule& module,
         int64_t trial, bool overlapped, SpanLog* log)
{
    auto result = [&]() {
        ScopedSpan span(log, "sim.run");
        return simulator.Run(module, /*collect_trace=*/false, trial);
    }();
    if (log == nullptr || !result.ok()) return result;
    log->Count("sim.runs", 1);
    log->Count("sim.instrs", static_cast<double>(ScheduledInstrs(module)));
    log->Count("sim.retries", static_cast<double>(result->retry.retries));
    log->Count("sim.attempts", static_cast<double>(result->retry.attempts));
    if (overlapped) {
        log->Count("sim.overlapped_runs", 1);
        log->Count("sim.exposed_comm_s", result->exposed_comm_seconds);
        log->Count("sim.step_s", result->step_seconds);
        log->Count("sim.peak_in_flight",
                   static_cast<double>(result->peak_in_flight));
        log->Count("sim.async_transfers",
                   static_cast<double>(result->num_async_transfers));
    }
    return result;
}

/**
 * One compiled arm of a model: a built module, compiled under `options`
 * and verified. `overlapped` marks the arm whose decomposition decisions
 * and simulated overlap the counters describe.
 */
struct Arm {
    std::string name;
    ModelConfig config;
    CompilerOptions options;
    bool overlapped = false;
    std::unique_ptr<HloModule> module;
    CompileReport report;
    std::optional<PodSimulator> simulator;
    SimResult sim;
};

/** Build -> compile -> verify, each timed as its layer's span. */
Status
BuildAndCompile(Arm* arm, SpanLog* log)
{
    {
        ScopedSpan span(log, "models.build");
        auto module = overlap::BuildLayerStepModule(arm->config);
        if (!module.ok()) return module.status();
        arm->module = std::move(module).value();
    }
    if (log) {
        log->Count("models.instrs",
                   static_cast<double>(arm->module->entry()->instruction_count()));
    }
    overlap::OverlapCompiler compiler(arm->options);
    auto report = [&]() {
        ScopedSpan span(log, "compiler.compile");
        auto compiled = compiler.Compile(arm->module.get());
        if (log && compiled.ok()) {
            // Pass children rebuilt from the report. Durations are
            // exact. Compile counts the offsets from after its entry
            // verify, so placed from the span's start the children sit
            // early by that verify; only durations and self times are
            // meaningful.
            double start = log->spans()[static_cast<size_t>(span.index())].start;
            for (const overlap::PassTiming& t : compiled->pass_timings) {
                log->AddClosed("compiler.pass." + t.pass_name,
                               start + t.start_seconds,
                               start + t.end_seconds);
            }
        }
        return compiled;
    }();
    if (!report.ok()) return report.status();
    arm->report = std::move(report).value();
    if (log) {
        const overlap::DecomposeStats& d = arm->report.decompose;
        log->Count("compiler.instrs_out",
                   static_cast<double>(arm->module->entry()->instruction_count()));
        log->Count("compiler.rollbacks",
                   static_cast<double>(arm->report.pass_diagnostics.size()));
        if (arm->overlapped) {
            log->Count("compiler.sites_decomposed",
                       static_cast<double>(d.total_decomposed()));
            log->Count("compiler.sites_judged",
                       static_cast<double>(d.decisions.size()));
        }
    }
    ScopedSpan span(log, "hlo.verify");
    return overlap::VerifyModule(*arm->module);
}

/** The item-level checks that need no timing: clean compile, replay. */
std::string
CheckArm(const Arm& arm, int64_t trial)
{
    if (!arm.report.pass_diagnostics.empty()) {
        return StrCat(arm.name, ": guarded pipeline rolled back: ",
                      arm.report.pass_diagnostics[0].ToString());
    }
    auto again = arm.simulator->Run(*arm.module, false, trial);
    if (!again.ok()) {
        return StrCat(arm.name, ": re-simulation failed: ",
                      again.status().ToString());
    }
    if (!SameSim(arm.sim, *again)) {
        return StrCat(arm.name, ": re-simulation is not bit-identical");
    }
    return "";
}

/**
 * Shared item of paper_grid and moe_grid: every arm is built, compiled,
 * verified and simulated; the first arm is the reference the others
 * are compared with.
 */
ItemOutcome
RunArms(std::vector<Arm>& arms, SpanLog* log)
{
    ItemOutcome out;
    ItemClock clock(log);
    for (Arm& arm : arms) {
        Status status = BuildAndCompile(&arm, log);
        if (status.ok()) {
            arm.simulator.emplace(arm.config.mesh(), arm.options.hardware,
                                  overlap::FaultModel(arm.options.fault));
            auto sim = Simulate(*arm.simulator, *arm.module, 0,
                                arm.overlapped, log);
            if (sim.ok()) {
                arm.sim = std::move(sim).value();
            } else {
                status = sim.status();
            }
        }
        if (!status.ok()) {
            out.seconds = clock.Stop();
            out.error = StrCat(arm.name, ": ", status.ToString());
            return out;
        }
    }
    out.seconds = clock.Stop();
    for (const Arm& arm : arms) {
        out.error = CheckArm(arm, 0);
        if (!out.error.empty()) return out;
    }
    const double layers = static_cast<double>(arms[0].config.num_layers);
    for (size_t i = 1; i < arms.size(); ++i) {
        out.sims.push_back({arms[i].name,
                            arms[0].sim.step_seconds * layers,
                            arms[i].sim.step_seconds * layers});
    }
    return out;
}

// ---------------------------------------------------------------------------
// paper_grid: the 11 distinct Table 1 + Table 2 models, baseline vs overlap.

class PaperGrid : public Workload {
  public:
    explicit PaperGrid(WorkloadOptions options) : options_(std::move(options)) {}

    Status Setup(uint64_t) override
    {
        models_.clear();
        for (const auto& table :
             {overlap::Table1Models(), overlap::Table2GptModels()}) {
            for (const ModelConfig& m : table) {
                bool seen = std::any_of(
                    models_.begin(), models_.end(),
                    [&](const ModelConfig& x) { return x.name == m.name; });
                if (!seen) models_.push_back(m);
            }
        }
        // Smallest pod first: the warm-up item and max_items take the
        // cheapest models, independent of the seed.
        std::stable_sort(models_.begin(), models_.end(),
                         [](const ModelConfig& a, const ModelConfig& b) {
                             return a.num_chips < b.num_chips;
                         });
        models_.resize(static_cast<size_t>(
            CycleLength(static_cast<int64_t>(models_.size()), options_)));
        RunItem(0, nullptr);  // warm-up; a failure counts when timed
        return Status::Ok();
    }

    int64_t cycle_size() const override
    {
        return static_cast<int64_t>(models_.size());
    }

    ItemOutcome RunItem(int64_t index, SpanLog* log) override
    {
        const ModelConfig& config = models_[static_cast<size_t>(index)];
        std::vector<Arm> arms(2);
        arms[0].name = config.name + "/baseline";
        arms[0].options = CompilerOptions::Baseline();
        arms[1].name = config.name + "/overlap";
        arms[1].overlapped = true;
        for (Arm& arm : arms) {
            arm.config = config;
            arm.options.extra_passes = options_.extra_passes;
        }
        return RunArms(arms, log);
    }

  private:
    WorkloadOptions options_;
    std::vector<ModelConfig> models_;
};

// ---------------------------------------------------------------------------
// moe_grid: the moe_sweep grid, blocking A2A vs ring-decomposed vs pipelined.

/** The bench/moe_sweep layer: a scaled-down GLaM FFN on a 4 x mesh_y pod. */
ModelConfig
MoeModel(int64_t mesh_y, int64_t experts, int64_t micro_batches)
{
    ModelConfig config;
    config.name = StrCat("moe_", 4 * mesh_y, "chip_", experts, "e");
    config.kind = overlap::ModelKind::kMoe;
    config.num_layers = 24;
    config.model_dim = 4096;
    config.ff_dim = 32768;
    config.batch_size = 16;
    config.seq_len = 1024;
    config.mesh_x = 4;
    config.mesh_y = mesh_y;
    config.num_chips = config.mesh_x * config.mesh_y;
    config.num_experts = experts;
    config.moe_micro_batches = micro_batches;
    return config;
}

class MoeGrid : public Workload {
  public:
    static constexpr int64_t kMicroBatches = 4;

    explicit MoeGrid(WorkloadOptions options) : options_(std::move(options)) {}

    Status Setup(uint64_t) override
    {
        points_.clear();
        for (int64_t ring : {4, 8, 16}) {
            for (int64_t experts : {16, 64}) points_.push_back({ring, experts});
        }
        points_.resize(static_cast<size_t>(
            CycleLength(static_cast<int64_t>(points_.size()), options_)));
        RunItem(0, nullptr);  // warm-up; a failure counts when timed
        return Status::Ok();
    }

    int64_t cycle_size() const override
    {
        return static_cast<int64_t>(points_.size());
    }

    ItemOutcome RunItem(int64_t index, SpanLog* log) override
    {
        auto [ring, experts] = points_[static_cast<size_t>(index)];
        std::vector<Arm> arms(3);
        arms[0].name = "blocking";
        arms[0].config = MoeModel(ring, experts, 1);
        arms[0].options.decompose.all_to_all = false;
        arms[1].name = "decomposed";
        arms[1].config = MoeModel(ring, experts, 1);
        arms[1].overlapped = true;
        arms[2].name = "pipelined";
        arms[2].config = MoeModel(ring, experts, kMicroBatches);
        arms[2].options.decompose.all_to_all = false;
        arms[2].options.async_all_to_all = true;
        arms[2].overlapped = true;
        for (Arm& arm : arms) {
            arm.name = arm.config.name + "/" + arm.name;
            arm.options.extra_passes = options_.extra_passes;
        }
        return RunArms(arms, log);
    }

  private:
    WorkloadOptions options_;
    std::vector<std::pair<int64_t, int64_t>> points_;
};

// ---------------------------------------------------------------------------
// fault_trials: two 1T models under two seeded fault presets, both arms
// compiled once in set-up; an item simulates one trial index on both
// arms of all four scenarios, so every item holds the same mix of work.

class FaultTrials : public Workload {
  public:
    static constexpr int64_t kTrials = 64;

    explicit FaultTrials(WorkloadOptions options) : options_(std::move(options)) {}

    Status Setup(uint64_t seed) override
    {
        scenarios_.clear();
        trials_.clear();
        std::vector<overlap::FaultScenario> presets = {
            overlap::FlakyFabric(0.02, Mix(seed, 1)),
            overlap::AgingPod(Mix(seed, 2))};
        for (const char* model : {"GPT_1T", "GLaM_1T"}) {
            const ModelConfig* config = overlap::FindModel(model);
            if (config == nullptr) {
                return overlap::InvalidArgument(StrCat("unknown model ", model));
            }
            for (const overlap::FaultScenario& preset : presets) {
                Scenario s;
                s.arms.resize(2);
                s.arms[0].name = StrCat(model, "/", preset.name, "/baseline");
                s.arms[0].options = CompilerOptions::Baseline();
                s.arms[1].name = StrCat(model, "/", preset.name, "/overlap");
                s.arms[1].overlapped = true;
                for (Arm& arm : s.arms) {
                    arm.config = *config;
                    arm.options.fault = preset.spec;
                    arm.options.extra_passes = options_.extra_passes;
                    Status status = BuildAndCompile(&arm, nullptr);
                    if (!status.ok() && s.error.empty()) {
                        s.error = StrCat(arm.name, ": ", status.ToString());
                    }
                    arm.simulator.emplace(arm.config.mesh(),
                                          arm.options.hardware,
                                          overlap::FaultModel(preset.spec));
                }
                scenarios_.push_back(std::move(s));
            }
        }
        for (int64_t t = 0; t < kTrials; ++t) {
            trials_.push_back(static_cast<int64_t>(Mix(seed, 100 + t) % 1000000));
        }
        trials_.resize(static_cast<size_t>(CycleLength(kTrials, options_)));
        RunItem(0, nullptr);  // warm-up; a failure counts when timed
        return Status::Ok();
    }

    int64_t cycle_size() const override
    {
        return static_cast<int64_t>(trials_.size());
    }

    ItemOutcome RunItem(int64_t index, SpanLog* log) override
    {
        const int64_t trial = trials_[static_cast<size_t>(index)];
        ItemOutcome out;
        for (const Scenario& s : scenarios_) {
            if (!s.error.empty()) {
                // A scenario whose set-up compile failed fails every trial.
                out.error = s.error;
                return out;
            }
        }
        ItemClock clock(log);
        for (Scenario& s : scenarios_) {
            for (Arm& arm : s.arms) {
                auto sim = Simulate(*arm.simulator, *arm.module, trial,
                                    arm.overlapped, log);
                if (!sim.ok()) {
                    out.seconds = clock.Stop();
                    out.error = StrCat(arm.name, " trial ", trial, ": ",
                                       sim.status().ToString());
                    return out;
                }
                arm.sim = std::move(sim).value();
            }
        }
        out.seconds = clock.Stop();
        for (const Scenario& s : scenarios_) {
            for (const Arm& arm : s.arms) {
                out.error = CheckArm(arm, trial);
                if (!out.error.empty()) return out;
            }
            const double layers =
                static_cast<double>(s.arms[0].config.num_layers);
            out.sims.push_back({s.arms[1].name,
                                s.arms[0].sim.step_seconds * layers,
                                s.arms[1].sim.step_seconds * layers});
        }
        return out;
    }

  private:
    struct Scenario {
        std::vector<Arm> arms;
        /// Why compiling the arms failed, if they did.
        std::string error;
    };

    WorkloadOptions options_;
    std::vector<Scenario> scenarios_;
    std::vector<int64_t> trials_;
};

// ---------------------------------------------------------------------------
// difftest: the stratified site-spec stream at free dims 64, under each
// of the six decompose variants; one item is one serial RunSingleCase.

/** The difftest oracle's decomposition: every site, under `variant`. */
overlap::DecomposeOptions
ForcedDecomposition(const overlap::difftest::DecomposeVariant& variant)
{
    overlap::DecomposeOptions options;
    options.unroll = variant.unroll;
    options.bidirectional = variant.bidirectional;
    options.force_unidirectional = variant.force_unidirectional;
    options.use_cost_model = false;  // the oracle checks every site
    return options;
}

class DiffTest : public Workload {
  public:
    static constexpr int64_t kFreeExtent = 64;
    static constexpr int64_t kStreamWindow = 20000;

    explicit DiffTest(WorkloadOptions options) : options_(std::move(options)) {}

    /**
     * One spec per cost stratum (site case x shard extent x ring size x
     * mesh rank): the first spec of the seeded stream that falls into
     * each. The strata fix how much work a cycle holds, so runs with
     * different seeds are comparable; the seed still draws every other
     * field (side, contracting extent, dtype, data) and the order.
     */
    Status Setup(uint64_t seed) override
    {
        specs_.clear();
        simulated_.assign(1, true);  // the warm-up item simulates nothing
        // A fixed window of the stream, so set-up costs the same for
        // every seed; the rarest stratum has 36 expected hits in it.
        std::set<std::tuple<int, int64_t, int64_t, size_t>> filled;
        const size_t strata = overlap::difftest::kNumSiteCases * 4 * 7 * 2;
        for (int64_t i = 0; i < kStreamWindow; ++i) {
            overlap::difftest::SiteSpec spec =
                overlap::difftest::GenerateSiteSpec(seed, i);
            auto key = std::make_tuple(static_cast<int>(spec.site_case),
                                       spec.shard_extent, spec.ring_size(),
                                       spec.mesh_dims.size());
            if (!filled.insert(key).second) continue;
            spec.free0 = kFreeExtent;
            spec.free1 = kFreeExtent;
            specs_.push_back(spec);
        }
        if (filled.size() < strata) {
            return overlap::Internal("difftest strata left unfilled");
        }
        // Strata order, so the warm-up item (spec 0) is always the
        // cheapest stratum whatever the seed.
        auto stratum = [](const overlap::difftest::SiteSpec& spec) {
            return std::make_tuple(static_cast<int>(spec.site_case),
                                   spec.mesh_dims.size(), spec.ring_size(),
                                   spec.shard_extent);
        };
        std::sort(specs_.begin(), specs_.end(),
                  [&](const auto& a, const auto& b) {
                      return stratum(a) < stratum(b);
                  });
        int64_t items = static_cast<int64_t>(specs_.size()) * num_variants();
        cycle_ = CycleLength(items, options_);
        RunItem(0, nullptr);  // warm-up; a failure counts when timed
        simulated_.assign(static_cast<size_t>(cycle_), false);
        return Status::Ok();
    }

    int64_t cycle_size() const override { return cycle_; }

    ItemOutcome RunItem(int64_t index, SpanLog* log) override
    {
        const auto& spec = specs_[static_cast<size_t>(index / num_variants())];
        const auto& variant = Variant(index);
        ItemOutcome out;
        StatusOr<overlap::OutputComparison> result =
            overlap::Internal("not run");
        if (log == nullptr) {
            ItemClock clock(nullptr);
            result = overlap::difftest::RunSingleCase(spec, variant, false);
            out.seconds = clock.Stop();
        } else {
            ItemClock clock(log);
            result = TracedSingleCase(spec, variant, log);
            out.seconds = clock.Stop();
        }
        std::string what = StrCat(variant.name, " ", spec.ToString());
        if (!result.ok()) {
            out.error = StrCat(what, ": ", result.status().ToString());
        } else if (!result->equal) {
            out.error = StrCat(what, ": mismatch: ", result->ToString());
        }
        // The simulated outcome of the item's site, once per item and
        // outside the timed part: RunSingleCase runs no simulator.
        if (out.error.empty() && !simulated_[static_cast<size_t>(index)]) {
            simulated_[static_cast<size_t>(index)] = true;
            auto pair = SimulateSite(index);
            if (pair.ok()) {
                out.sims.push_back(std::move(pair).value());
            } else {
                out.error = StrCat(what, ": ", pair.status().ToString());
            }
        }
        return out;
    }

  private:
    static int64_t num_variants()
    {
        return static_cast<int64_t>(
            overlap::difftest::AllDecomposeVariants().size());
    }

    static const overlap::difftest::DecomposeVariant& Variant(int64_t index)
    {
        return overlap::difftest::AllDecomposeVariants()[static_cast<size_t>(
            index % num_variants())];
    }

    StatusOr<SimPair> SimulateSite(int64_t index) const
    {
        const auto& spec = specs_[static_cast<size_t>(index / num_variants())];
        CompilerOptions reference = CompilerOptions::Baseline();
        CompilerOptions overlapped;
        overlapped.decompose = ForcedDecomposition(Variant(index));
        double steps[2] = {0.0, 0.0};
        const CompilerOptions* arms[2] = {&reference, &overlapped};
        for (int a = 0; a < 2; ++a) {
            auto module = overlap::difftest::BuildSiteModule(spec);
            if (!module.ok()) return module.status();
            CompilerOptions options = *arms[a];
            options.extra_passes = options_.extra_passes;
            auto report = overlap::OverlapCompiler(options).Compile(module->get());
            if (!report.ok()) return report.status();
            if (!report->pass_diagnostics.empty()) {
                return overlap::Internal(report->pass_diagnostics[0].ToString());
            }
            PodSimulator simulator(spec.mesh(), options.hardware);
            auto sim = simulator.Run(**module);
            if (!sim.ok()) return sim.status();
            steps[a] = sim->step_seconds;
        }
        return SimPair{StrCat(Variant(index).name, " ", spec.ToString()),
                       steps[0], steps[1]};
    }

    WorkloadOptions options_;
    std::vector<overlap::difftest::SiteSpec> specs_;
    /// Items whose site has been simulated already.
    std::vector<bool> simulated_;
    int64_t cycle_ = 0;
};

}  // namespace

StatusOr<overlap::OutputComparison>
TracedSingleCase(const overlap::difftest::SiteSpec& spec,
                 const overlap::difftest::DecomposeVariant& variant,
                 SpanLog* log)
{
    const auto pool_before = overlap::ThreadLocalBufferPool().stats();
    auto build = [&]() {
        ScopedSpan span(log, "difftest.scenario");
        return overlap::difftest::BuildSiteScenario(spec);
    };
    auto reference = build();
    if (!reference.ok()) return reference.status();
    auto transformed = build();
    if (!transformed.ok()) return transformed.status();
    {
        ScopedSpan span(log, "difftest.transform");
        const overlap::Mesh& mesh = *transformed->module->mesh();
        overlap::CostModel cost((overlap::HardwareSpec()));
        overlap::CollectiveEinsumDecomposer decomposer(
            mesh, &cost, ForcedDecomposition(variant));
        overlap::HloComputation* comp = transformed->module->entry();
        auto stats = [&]() {
            ScopedSpan pass(log, "compiler.pass.decompose");
            return decomposer.Run(comp);
        }();
        if (!stats.ok()) return stats.status();
        if (stats->total_decomposed() != 1 || !stats->BucketsConsistent()) {
            return overlap::Internal(
                StrCat("expected 1 consistent decomposed site, got ",
                       stats->total_decomposed()));
        }
        auto verify = [&]() {
            ScopedSpan pass(log, "hlo.verify");
            return overlap::VerifyModule(*transformed->module);
        };
        OVERLAP_RETURN_IF_ERROR(verify());
        auto converted = [&]() {
            ScopedSpan pass(log, "compiler.pass.async-permute-creation");
            return overlap::CreateAsyncCollectivePermutes(comp);
        }();
        if (!converted.ok()) return converted.status();
        OVERLAP_RETURN_IF_ERROR(verify());
    }
    overlap::SpmdEvaluator evaluator(*reference->module->mesh());
    auto evaluate = [&](const HloModule& module) {
        overlap::ConsumeEvalPhaseSeconds();
        overlap::ConsumeAllocSeconds();
        auto outputs = [&]() {
            ScopedSpan span(log, "interp.eval");
            return evaluator.Evaluate(*module.entry(), reference->params);
        }();
        overlap::EvalPhaseSeconds phases = overlap::ConsumeEvalPhaseSeconds();
        log->Count("interp.einsum_s", phases.einsum_seconds);
        log->Count("interp.collective_s", phases.collective_seconds);
        log->Count("interp.alloc_s", overlap::ConsumeAllocSeconds());
        return outputs;
    };
    auto blocking = evaluate(*reference->module);
    if (!blocking.ok()) return blocking.status();
    auto decomposed = evaluate(*transformed->module);
    if (!decomposed.ok()) return decomposed.status();
    double tolerance =
        overlap::EquivalenceTolerance(spec.dtype, spec.reduction_extent());
    auto compare = [&](const std::vector<overlap::Tensor>& a,
                       const std::vector<overlap::Tensor>& b) {
        ScopedSpan span(log, "difftest.compare");
        return overlap::CompareOutputs(a, b, tolerance);
    };
    overlap::OutputComparison truth = compare(reference->expected, *blocking);
    if (!truth.equal) {
        return overlap::Internal(
            StrCat("blocking reference disagrees with ground truth: ",
                   truth.ToString()));
    }
    overlap::OutputComparison result = compare(*blocking, *decomposed);
    const auto pool_after = overlap::ThreadLocalBufferPool().stats();
    log->Count("tensor.pool_hits",
               static_cast<double>(pool_after.hits - pool_before.hits));
    log->Count("tensor.pool_misses",
               static_cast<double>(pool_after.misses - pool_before.misses));
    return result;
}

const std::vector<std::string>&
WorkloadNames()
{
    static const std::vector<std::string> names = {"paper_grid", "moe_grid",
                                                   "fault_trials", "difftest"};
    return names;
}

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, WorkloadOptions options)
{
    if (name == "paper_grid") return std::make_unique<PaperGrid>(std::move(options));
    if (name == "moe_grid") return std::make_unique<MoeGrid>(std::move(options));
    if (name == "fault_trials") {
        return std::make_unique<FaultTrials>(std::move(options));
    }
    if (name == "difftest") return std::make_unique<DiffTest>(std::move(options));
    return nullptr;
}

}  // namespace perfbench
