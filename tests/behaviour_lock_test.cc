/**
 * @file
 * Behaviour lock: the deterministic simulated results of the paper
 * grids, pinned to the last bit. Every Table 1 / Table 2 model (Figures
 * 12 and 13), every moe_sweep grid arm, one chip-death and one
 * link-death step, and seeded AgingPod / FlakyFabric trials are
 * simulated baseline vs overlapped; the `%.17g`
 * step seconds and speedups must equal tests/golden/behaviour_lock.golden
 * exactly. A refactor that claims "no behaviour change" proves it here.
 *
 * Regenerate with OVERLAP_REGEN_GOLDEN=1 only after an intentional
 * change to simulated numbers, and say so in the change description.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pod_runner.h"
#include "models/fault_presets.h"
#include "models/step_builder.h"
#include "support/strings.h"

namespace overlap {
namespace {

const char* const kGoldenPath =
    OVERLAP_TESTDATA_DIR "/behaviour_lock.golden";

/** "<grid> <name> <baseline> <overlapped> <speedup>", %.17g each. */
std::string
Line(const std::string& grid, const std::string& name, double baseline,
     double overlapped)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %s %.17g %.17g %.17g",
                  grid.c_str(), name.c_str(), baseline, overlapped,
                  baseline / overlapped);
    return buf;
}

/** One moe_sweep grid point's model (bench/moe_sweep.cpp). */
ModelConfig
MoeModel(int64_t mesh_y, int64_t experts, int64_t micro_batches)
{
    ModelConfig config;
    config.name = StrCat("moe_", 4 * mesh_y, "chip_", experts, "e");
    config.kind = ModelKind::kMoe;
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

double
StepSeconds(const ModelConfig& config, const CompilerOptions& options)
{
    auto report = SimulateModelStep(config, options);
    EXPECT_TRUE(report.ok())
        << config.name << ": " << report.status().ToString();
    return report.ok() ? report->step_seconds : 0.0;
}

/**
 * Compiles `config` fault-free under `options`, then simulates step 0
 * with `fault` live. Returns the watchdog's detection time when the
 * step fails, else the completed layer's step seconds.
 */
double
FaultedLayerSeconds(const ModelConfig& config,
                    const CompilerOptions& options, const FaultSpec& fault)
{
    auto module = BuildLayerStepModule(config);
    EXPECT_TRUE(module.ok()) << module.status().ToString();
    if (!module.ok()) return 0.0;
    auto compiled = OverlapCompiler(options).Compile(module->get());
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return 0.0;
    PodSimulator simulator(config.mesh(), options.hardware,
                           FaultModel(fault));
    auto prepared = simulator.Prepare(**module);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) return 0.0;
    auto outcome = simulator.RunStep(*prepared, /*step_index=*/0);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return 0.0;
    EXPECT_TRUE(outcome->failed) << config.name << " survived the fault";
    return outcome->failed ? outcome->failure.detected_at_seconds
                           : outcome->result.step_seconds;
}

/**
 * Compiles `config` with the fault-aware §5.5 gate under `fault`, then
 * simulates trial `trial` of the layer step on the faulted pod.
 */
double
TrialLayerSeconds(const ModelConfig& config, CompilerOptions options,
                  const FaultSpec& fault, int64_t trial)
{
    options.fault = fault;
    auto module = BuildLayerStepModule(config);
    EXPECT_TRUE(module.ok()) << module.status().ToString();
    if (!module.ok()) return 0.0;
    auto compiled = OverlapCompiler(options).Compile(module->get());
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return 0.0;
    PodSimulator simulator(config.mesh(), options.hardware,
                           FaultModel(fault));
    auto result = simulator.Run(**module, /*collect_trace=*/false, trial);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->step_seconds : 0.0;
}

std::vector<std::string>
LockLines()
{
    std::vector<std::string> lines;
    for (const ModelConfig& config : Table1Models()) {
        lines.push_back(Line("fig12", config.name,
                             StepSeconds(config, CompilerOptions::Baseline()),
                             StepSeconds(config, CompilerOptions())));
    }
    for (const ModelConfig& config : Table2GptModels()) {
        lines.push_back(Line("fig13", config.name,
                             StepSeconds(config, CompilerOptions::Baseline()),
                             StepSeconds(config, CompilerOptions())));
    }

    // moe_sweep: blocking exchange vs ring decomposition vs micro-batch
    // pipelining, over its full (ring, experts) grid.
    for (int64_t ring : {4, 8, 16}) {
        for (int64_t experts : {16, 64}) {
            ModelConfig config = MoeModel(ring, experts, 1);
            CompilerOptions blocking;
            blocking.decompose.all_to_all = false;
            double blocking_s = StepSeconds(config, blocking);
            lines.push_back(Line("moe_decomposed", config.name, blocking_s,
                                 StepSeconds(config, CompilerOptions())));
            CompilerOptions pipelined = blocking;
            pipelined.async_all_to_all = true;
            lines.push_back(Line("moe_pipelined", config.name, blocking_s,
                                 StepSeconds(MoeModel(ring, experts, 4),
                                             pipelined)));
        }
    }

    // Permanent faults a fifth of the way into the healthy layer step:
    // the engine's dead-chip and dead-link paths on both arms.
    const ModelConfig gpt = Table2GptModels().front();
    auto faulted = [&](const std::string& name, auto make_fault) {
        double seconds[2];
        const CompilerOptions arms[2] = {CompilerOptions::Baseline(),
                                         CompilerOptions()};
        for (int arm = 0; arm < 2; ++arm) {
            double healthy = StepSeconds(gpt, arms[arm]) /
                             static_cast<double>(gpt.num_layers);
            seconds[arm] = FaultedLayerSeconds(
                gpt, arms[arm], make_fault(0.2 * healthy).spec);
        }
        lines.push_back(Line("fault", StrCat(name, "/", gpt.name),
                             seconds[0], seconds[1]));
    };
    faulted("chip_death", [](double t) { return ChipDeath(5, 0, t); });
    faulted("link_death", [&](double t) {
        return LinkDeath(gpt.mesh(), /*axis=*/1, 0, t);
    });

    // Degradation faults: the fault-aware gate and the engine's folded
    // link/chip factors, jitter draws and retry/backoff draws, per trial.
    for (const FaultScenario& scenario : {AgingPod(), FlakyFabric()}) {
        for (int64_t trial = 0; trial < 4; ++trial) {
            lines.push_back(Line(
                "fault_trial",
                StrCat(scenario.name, "/", gpt.name, "/t", trial),
                TrialLayerSeconds(gpt, CompilerOptions::Baseline(),
                                  scenario.spec, trial),
                TrialLayerSeconds(gpt, CompilerOptions(), scenario.spec,
                                  trial)));
        }
    }
    return lines;
}

TEST(BehaviourLockTest, SimulatedNumbersMatchGolden)
{
    std::vector<std::string> lines = LockLines();
    if (std::getenv("OVERLAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        for (const std::string& line : lines) out << line << "\n";
        GTEST_SKIP() << "regenerated " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
    std::vector<std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) golden.push_back(line);
    }
    ASSERT_EQ(lines.size(), golden.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i], golden[i]) << "behaviour lock line " << i;
    }
}

}  // namespace
}  // namespace overlap
