/**
 * @file
 * Reproduces §7.1: applying the overlap to inference. The paper cites an
 * in-house recommendation model with 2-way intra-layer model parallelism
 * whose serving latency improved ~2x. We build the analogous workload: a
 * small-batch MLP tower with 2-way sharded weights, where the weight
 * AllGathers dominate the latency and decomposition hides them behind
 * the matmuls.
 */
#include <cstdio>

#include "bench_util.h"
#include "core/overlap_compiler.h"
#include "hlo/builder.h"

using namespace overlap;

namespace {

/** A recommendation-style MLP tower: wide bottom layers, small batch. */
std::unique_ptr<HloModule>
BuildRecommendationTower(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("recommender");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    const int64_t kBatch = 1024;  // aggressive serving batch
    // A deep uniform tower: per layer the matmul time roughly equals the
    // two-way half-shard transfer time, the regime where overlap pays
    // the most.
    const int64_t dims[] = {4096, 4096, 4096, 4096, 4096, 4096, 4096};
    auto* act = b.Parameter(0, Shape(DType::kBF16, {kBatch, dims[0]}),
                            "features");
    int64_t param = 1;
    HloInstruction* x = act;
    for (size_t layer = 0; layer + 1 < std::size(dims); ++layer) {
        // Weights stored sharded 2-way along the output dim; gathered on
        // demand (Figure 2 pattern at serving time).
        auto* w_shard = b.Parameter(
            param++,
            Shape(DType::kBF16, {dims[layer], dims[layer + 1] / 2}));
        auto* w = b.AllGather(w_shard, 1, mesh.AxisGroups(0));
        x = b.Einsum(x, w, "bf,fh->bh");
    }
    comp->set_root(x);
    return module;
}

}  // namespace

int
main()
{
    bench::Banner("Inference latency with 2-way intra-layer parallelism",
                  "Section 7.1 of the paper");
    Mesh mesh(2);
    HardwareSpec spec;
    CostModel cost(spec);

    double latency[2];
    const char* labels[2] = {"baseline (blocking AllGathers)",
                             "overlapped (Looped CollectiveEinsum)"};
    for (int mode = 0; mode < 2; ++mode) {
        auto module = BuildRecommendationTower(mesh);
        CompilerOptions options =
            mode == 0 ? CompilerOptions::Baseline() : CompilerOptions();
        // At 2-way parallelism the loop has a single transfer; the
        // gating margin is thin, so force the rewrite as the serving
        // team would.
        options.decompose.use_cost_model = false;
        OverlapCompiler compiler(options);
        auto report = compiler.Compile(module.get());
        if (!report.ok()) {
            std::printf("compile failed: %s\n",
                        report.status().ToString().c_str());
            return 1;
        }
        PodSimulator sim(mesh, spec);
        auto result = sim.Run(*module);
        if (!result.ok()) {
            std::printf("simulation failed: %s\n",
                        result.status().ToString().c_str());
            return 1;
        }
        latency[mode] = result->step_seconds;
        std::printf("%-40s %10s  (exposed comm %s)\n", labels[mode],
                    HumanTime(result->step_seconds).c_str(),
                    HumanTime(result->exposed_comm_seconds).c_str());
    }
    std::printf("\nlatency improvement: %.2fx\n",
                latency[0] / latency[1]);
    std::printf("\nPaper: an in-house recommendation inference model with "
                "2-way intra-layer\nmodel parallelism achieved a 2x "
                "latency improvement.\n");
    return 0;
}
