/**
 * @file
 * Reproduces the mechanism illustrations of Figures 4-7: the device
 * timeline of an AllGather-Einsum and an Einsum-ReduceScatter pair,
 * original vs decomposed-and-overlapped, at 2-way and 4-way intra-layer
 * model parallelism.
 */
#include <cstdio>

#include "bench_util.h"
#include "core/overlap_compiler.h"
#include "hlo/builder.h"

using namespace overlap;

namespace {

void
PrintTimeline(const SimResult& result)
{
    for (const TraceEvent& ev : result.trace) {
        const char* kind = ev.kind == TraceKind::kCompute ? "compute"
                           : ev.kind == TraceKind::kCollective
                               ? "comm   "
                               : "wait   ";
        double us0 = ev.start_seconds * 1e6;
        double us1 = ev.end_seconds * 1e6;
        std::printf("    [%9.1f us .. %9.1f us] %s  %-30s %s\n", us0, us1,
                    kind, ev.label.c_str(),
                    bench::Bar(us1 - us0, result.step_seconds * 1e6, 30)
                        .c_str());
    }
    std::printf("    total %.1f us (compute %.1f us, exposed comm %.1f "
                "us)\n",
                result.step_seconds * 1e6, result.compute_seconds * 1e6,
                result.exposed_comm_seconds * 1e6);
}

void
RunCase(const char* title, bool reduce_scatter, int64_t n)
{
    std::printf("\n--- %s, %lld-way partitioning ---\n", title,
                static_cast<long long>(n));
    Mesh mesh(n);
    HardwareSpec spec;
    for (int overlapped = 0; overlapped < 2; ++overlapped) {
        HloModule module("mech");
        module.set_mesh(mesh);
        HloComputation* comp = module.AddEntryComputation("main");
        HloBuilder b(comp);
        if (!reduce_scatter) {
            auto* a = b.Parameter(
                0, Shape(DType::kBF16, {4096 / n, 4096}), "A_shard");
            auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}),
                                  "B");
            auto* ag = b.AllGather(a, 0, mesh.AxisGroups(0));
            comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
        } else {
            auto* a = b.Parameter(
                0, Shape(DType::kBF16, {4096, 8192 / n}), "A_shard");
            auto* w = b.Parameter(
                1, Shape(DType::kBF16, {8192 / n, 8192}), "B_shard");
            auto* partial = b.Einsum(a, w, "bf,fh->bh");
            comp->set_root(
                b.ReduceScatter(partial, 0, mesh.AxisGroups(0)));
        }
        CompilerOptions options =
            overlapped ? CompilerOptions() : CompilerOptions::Baseline();
        options.decompose.use_cost_model = false;
        OverlapCompiler compiler(options);
        auto report = compiler.Compile(&module);
        if (!report.ok()) {
            std::printf("compile failed: %s\n",
                        report.status().ToString().c_str());
            return;
        }
        PodSimulator sim(mesh, spec);
        auto result = sim.Run(module, /*collect_trace=*/true);
        if (!result.ok()) return;
        std::printf("  %s:\n", overlapped ? "overlapped (proposed)"
                                          : "original (blocking)");
        PrintTimeline(*result);
    }
}

}  // namespace

int
main()
{
    bench::Banner(
        "Mechanism timelines: decomposition and overlap of one pair",
        "Figures 4, 5, 6 and 7 of the paper");
    RunCase("AllGather-Einsum", /*reduce_scatter=*/false, 2);
    RunCase("AllGather-Einsum", /*reduce_scatter=*/false, 4);
    RunCase("Einsum-ReduceScatter", /*reduce_scatter=*/true, 2);
    RunCase("Einsum-ReduceScatter", /*reduce_scatter=*/true, 4);
    return 0;
}
