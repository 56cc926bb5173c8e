/**
 * @file
 * A guided tour of the compiler passes on one AllGather-Einsum pair:
 * prints the HLO after each stage — decomposition (§5.1), asynchronous
 * CollectivePermute creation (§5.2), fusion (§5.4.3) and scheduling —
 * so you can see exactly what the paper's transformation does to the
 * graph.
 */
#include <cstdio>

#include "hlo/builder.h"
#include "hlo/verifier.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/fusion.h"
#include "passes/schedule.h"

using namespace overlap;

int
main()
{
    Mesh mesh(4);
    HloModule module("walkthrough");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* shard = b.Parameter(0, Shape(DType::kBF16, {512, 1024}),
                              "activation_shard");
    auto* weight = b.Parameter(1, Shape(DType::kBF16, {1024, 2048}),
                               "weight");
    auto* gathered = b.AllGather(shard, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(gathered, weight, "bf,fh->bh"));

    std::printf("=== 0. input: the blocking AllGather-Einsum pair ===\n%s",
                module.ToString().c_str());

    HardwareSpec spec;
    CostModel cost(spec);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = false;  // unidirectional is easier to read
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    if (!stats.ok()) return 1;
    std::printf("\n=== 1. after CollectiveEinsumDecomposer (%lld site) "
                "===\n%s",
                static_cast<long long>(stats->total_decomposed()),
                module.ToString().c_str());

    auto async = CreateAsyncCollectivePermutes(comp);
    if (!async.ok()) return 1;
    std::printf("\n=== 2. after AsyncCollectivePermute creation (%lld "
                "start/done pairs) ===\n%s",
                static_cast<long long>(async.value()),
                module.ToString().c_str());

    auto fused = RunFusionPass(comp, FusionHeuristic::kOverlapAware);
    if (!fused.ok()) return 1;
    std::printf("\n=== 3. after the overlap-aware fusion pass (%lld "
                "groups) ===\n",
                static_cast<long long>(fused.value()));

    if (!ScheduleComputation(comp, cost, SchedulerKind::kBottomUp).ok()) {
        return 1;
    }
    std::printf("\n=== 4. final bottom-up schedule (execution order) "
                "===\n");
    for (const HloInstruction* instr : comp->schedule()) {
        if (instr->shape().rank() == 0 &&
            instr->opcode() != HloOpcode::kTuple) {
            continue;  // skip scalar index arithmetic for readability
        }
        std::printf("  %s\n", instr->ToString().c_str());
    }
    std::printf("\nmodule verifies: %s\n",
                VerifyModule(module).ok() ? "OK" : "BROKEN");
    return 0;
}
