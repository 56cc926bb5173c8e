/**
 * @file
 * google-benchmark microbenchmarks of the compiler passes themselves:
 * decomposition, async conversion, fusion, the two schedulers, the
 * topological sort, the verifier and the §5.5 loop replay. Scheduler arguments are
 * ring sizes, with 0 for the GPT_1T step on 2048 chips. These
 * measure *compile time* of the technique (the paper's optimization runs
 * automatically during compilation), not simulated device time.
 */
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/verifier.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/fusion.h"
#include "passes/schedule.h"
#include "sim/loop_timeline.h"

namespace overlap {
namespace {

std::unique_ptr<HloModule>
BuildAgEinsum(int64_t n)
{
    auto module = std::make_unique<HloModule>("m");
    Mesh mesh(n);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8192 / n, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    return module;
}

void
BM_DecomposeLoop(benchmark::State& state)
{
    int64_t n = state.range(0);
    HardwareSpec spec;
    CostModel cost(spec);
    DecomposeOptions options;
    options.use_cost_model = false;
    for (auto _ : state) {
        auto module = BuildAgEinsum(n);
        CollectiveEinsumDecomposer decomposer(Mesh(n), &cost, options);
        auto stats = decomposer.Run(module->entry());
        benchmark::DoNotOptimize(stats);
    }
    state.SetLabel("partitions=" + std::to_string(n));
}
BENCHMARK(BM_DecomposeLoop)->Arg(4)->Arg(16)->Arg(64);

/**
 * Model build plus the whole pipeline on a layer step: first argument
 * 0 is GPT_32B, 1 is GPT_1T; the second turns the pass guard
 * (CompilerOptions::guard_passes) on or off, so the guard's cost is the
 * difference of the two rows.
 */
void
BM_FullPipelineOnLayerStep(benchmark::State& state)
{
    const ModelConfig* config = FindModel(
        state.range(0) == 0 ? "GPT_32B" : "GPT_1T");
    CompilerOptions options;
    options.guard_passes = state.range(1) != 0;
    for (auto _ : state) {
        auto module = BuildLayerStepModule(*config);
        OverlapCompiler compiler(options);
        auto report = compiler.Compile(module->get());
        benchmark::DoNotOptimize(report);
    }
    state.SetLabel(config->name +
                   (options.guard_passes ? " guard=on" : " guard=off"));
}
BENCHMARK(BM_FullPipelineOnLayerStep)
    ->ArgsProduct({{0, 1}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

/**
 * The module a scheduler benchmark schedules: `arg` > 0 is the
 * decomposed, async AG-einsum loop on `arg` partitions; 0 is the
 * compiled GPT_1T layer step on its 2048-chip mesh (paper scale).
 */
std::unique_ptr<HloModule>
ScheduleInput(int64_t arg, const CostModel& cost, std::string* label)
{
    if (arg == 0) {
        const ModelConfig* config = FindModel("GPT_1T");
        auto module = BuildLayerStepModule(*config);
        (void)OverlapCompiler(CompilerOptions()).Compile(module->get());
        *label = config->name + "/" + std::to_string(config->num_chips) +
                 "chips";
        return std::move(module).value();
    }
    auto module = BuildAgEinsum(arg);
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(Mesh(arg), &cost, options);
    (void)decomposer.Run(module->entry());
    (void)CreateAsyncCollectivePermutes(module->entry());
    *label = "partitions=" + std::to_string(arg);
    return module;
}

void
RunScheduler(benchmark::State& state, SchedulerKind kind)
{
    HardwareSpec spec;
    CostModel cost(spec);
    std::string label;
    auto module = ScheduleInput(state.range(0), cost, &label);
    for (auto _ : state) {
        auto status = ScheduleComputation(module->entry(), cost, kind);
        benchmark::DoNotOptimize(status);
    }
    state.SetLabel(label);
}

void
BM_BottomUpScheduler(benchmark::State& state)
{
    RunScheduler(state, SchedulerKind::kBottomUp);
}
BENCHMARK(BM_BottomUpScheduler)->Arg(8)->Arg(32)->Arg(64)->Arg(0);

void
BM_TopDownScheduler(benchmark::State& state)
{
    RunScheduler(state, SchedulerKind::kTopDown);
}
BENCHMARK(BM_TopDownScheduler)->Arg(8)->Arg(32)->Arg(64)->Arg(0);

/** A compiled layer step: arg 0 is GPT_32B, 1 is GPT_1T. */
std::unique_ptr<HloModule>
CompiledStep(int64_t arg, CompileReport* report)
{
    const ModelConfig* config = FindModel(arg == 0 ? "GPT_32B" : "GPT_1T");
    auto module = BuildLayerStepModule(*config);
    *report = *OverlapCompiler(CompilerOptions()).Compile(module->get());
    return std::move(module).value();
}

void
BM_SortTopologically(benchmark::State& state)
{
    CompileReport report;
    auto module = CompiledStep(state.range(0), &report);
    for (auto _ : state) {
        module->entry()->SortTopologically();
        benchmark::ClobberMemory();
    }
    state.SetLabel(std::to_string(module->entry()->instruction_count()) +
                   " instrs");
}
BENCHMARK(BM_SortTopologically)->Arg(0)->Arg(1);

/**
 * VerifyModule on the compiled GPT_1T layer step. Arg 0 ("fresh")
 * verifies a clone, which carries no shape verdicts: a full verify.
 * Arg 1 ("again") re-verifies the compiled module, whose verdicts all
 * hold: the structural checks alone, as the pass guard pays them for
 * every instruction a pass left alone.
 */
void
BM_VerifyModule(benchmark::State& state)
{
    CompileReport report;
    auto module = CompiledStep(1, &report);
    const bool fresh = state.range(0) == 0;
    std::unique_ptr<HloModule> clone;
    for (auto _ : state) {
        if (fresh) {
            state.PauseTiming();
            clone = module->Clone();
            state.ResumeTiming();
        }
        Status status = VerifyModule(fresh ? *clone : *module);
        benchmark::DoNotOptimize(status);
    }
    state.SetLabel(std::to_string(module->entry()->instruction_count()) +
                   (fresh ? " instrs fresh" : " instrs again"));
}
BENCHMARK(BM_VerifyModule)->Arg(0)->Arg(1);

/** The §5.5 replay of every loop the gate costed in a layer step. */
void
BM_LoopReplayPredict(benchmark::State& state)
{
    CompileReport report;
    (void)CompiledStep(state.range(0), &report);
    std::vector<LoopShape> shapes;
    for (const SiteDecision& decision : report.decompose.decisions) {
        if (decision.loop_shape.ring >= 2) {
            shapes.push_back(decision.loop_shape);
        }
    }
    CalibratedCostModel model;
    for (auto _ : state) {
        for (const LoopShape& shape : shapes) {
            benchmark::DoNotOptimize(model.Predict(shape));
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(shapes.size()));
    state.SetLabel(std::to_string(shapes.size()) + " loops");
}
BENCHMARK(BM_LoopReplayPredict)->Arg(0)->Arg(1);

}  // namespace
}  // namespace overlap

BENCHMARK_MAIN();
