/**
 * @file
 * The silent-hang class: schedules on which a real runtime would spin
 * forever must terminate with a diagnostic naming the blocked
 * instructions (deliberately malformed schedules are built by attaching
 * a reordered schedule, which only the engine's no-progress check
 * inspects).
 */
#include <gtest/gtest.h>

#include <memory>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "passes/fusion.h"
#include "sim/engine.h"

namespace overlap {
namespace {

/** Every device sends to its ring neighbour one position up. */
DeviceGroups
RingShift(const Mesh& mesh)
{
    return mesh.RingShift(0, -1);
}

TEST(EngineHangTest, DoneScheduledBeforeItsStartIsDiagnosed)
{
    Mesh mesh(4);
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}), "p");
    auto* start = b.CollectivePermuteStart(p, RingShift(mesh));
    auto* done = b.CollectivePermuteDone(start);
    comp->set_root(done);
    // A schedule where the Done waits on a Start that has not been
    // issued — the orphaned-pair / permute-cycle shape.
    comp->set_schedule({p, done, start});

    PodSimulator simulator(mesh, HardwareSpec());
    auto result = simulator.Run(*module);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().ToString().find("no progress"),
              std::string::npos);
    EXPECT_NE(result.status().ToString().find(done->name()),
              std::string::npos);
}

TEST(EngineHangTest, StartWithoutDoneIsDiagnosed)
{
    Mesh mesh(4);
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}), "p");
    auto* start = b.CollectivePermuteStart(p, RingShift(mesh));
    (void)start;
    comp->set_root(b.Copy(p));

    PodSimulator simulator(mesh, HardwareSpec());
    auto result = simulator.Run(*module);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().ToString().find("without a matching Done"),
              std::string::npos);
    EXPECT_NE(result.status().ToString().find(start->name()),
              std::string::npos);
}

TEST(EngineHangTest, AsyncBudgetStarvationIsDiagnosed)
{
    Mesh mesh(4);
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}), "p");
    std::vector<HloInstruction*> starts;
    std::vector<HloInstruction*> dones;
    for (int i = 0; i < 3; ++i) {
        starts.push_back(b.CollectivePermuteStart(p, RingShift(mesh)));
    }
    for (HloInstruction* start : starts) {
        dones.push_back(b.CollectivePermuteDone(start));
    }
    comp->set_root(b.Tuple(dones));

    // Every hardware sync flag is held by a Start whose Done is
    // scheduled later: the third Start can never issue.
    HardwareSpec spec;
    spec.max_in_flight_async = 2;
    PodSimulator simulator(mesh, spec);
    auto result = simulator.Run(*module);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().ToString().find("budget"),
              std::string::npos);
    EXPECT_NE(result.status().ToString().find(starts[2]->name()),
              std::string::npos);

    // Retiring each transfer before the next Start frees the flag: the
    // same program with an interleaved schedule simulates fine.
    std::vector<HloInstruction*> interleaved = {p};
    for (size_t i = 0; i < starts.size(); ++i) {
        interleaved.push_back(starts[i]);
        interleaved.push_back(dones[i]);
    }
    interleaved.push_back(comp->root());
    comp->set_schedule(interleaved);
    auto ok = simulator.Run(*module);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->peak_in_flight, 1);
}

TEST(EngineHangTest, SplitFusionGroupIsRejected)
{
    // The Figure 11 module with e0 and the Add fused (default
    // heuristic), scheduled e0 ... e1 ... add. The unit order collapses
    // the fused kernel onto e0's slot, ahead of its operand e1; the
    // engine must refuse to time an order no device can run.
    Mesh mesh(2);
    auto module = std::make_unique<HloModule>("fig11");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {64, 64}), "a");
    auto* w = b.Parameter(1, Shape(DType::kBF16, {64, 64}), "w");
    auto* start = b.CollectivePermuteStart(a, mesh.RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    auto* e0 = b.Einsum(a, w, "mk,kn->mn");
    auto* e1 = b.Einsum(done, w, "mk,kn->mn");
    auto* add = b.Add(e0, e1);
    comp->set_root(add);
    ASSERT_TRUE(RunFusionPass(comp, FusionHeuristic::kDefault).ok());
    ASSERT_EQ(e0->fusion_group(), add->fusion_group());
    comp->set_schedule({a, w, start, e0, done, e1, add});

    PodSimulator simulator(mesh, HardwareSpec());
    auto result = simulator.Run(*module);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find(e1->name()),
              std::string::npos)
        << result.status().ToString();

    // Keeping the group contiguous after e1 simulates.
    comp->set_schedule({a, w, start, done, e1, e0, add});
    auto ok = simulator.Run(*module);
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

/** A ring-permute program plus a fault spec that fails every transfer
 * attempt, guaranteeing retry exhaustion on the first transfer. */
std::unique_ptr<HloModule>
RingPermuteModule(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}), "p");
    auto* start = b.CollectivePermuteStart(p, RingShift(mesh));
    comp->set_root(b.CollectivePermuteDone(start));
    return module;
}

FaultSpec
AlwaysFailingTransfers()
{
    FaultSpec spec;
    spec.seed = 9;
    spec.transient_failure_probability = 1.0;
    spec.retry.max_transfer_retries = 2;
    return spec;
}

TEST(EngineHangTest, RetryExhaustionEscalatesToWatchdogReport)
{
    Mesh mesh(4);
    auto module = RingPermuteModule(mesh);
    PodSimulator simulator(mesh, HardwareSpec(),
                           FaultModel(AlwaysFailingTransfers()));
    auto prepared = simulator.Prepare(*module);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto outcome = simulator.RunStep(*prepared, /*step_index=*/3);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->failed);
    const FailureReport& failure = outcome->failure;
    EXPECT_EQ(failure.cause, FailureCause::kRetryExhaustion);
    EXPECT_GE(failure.dead_link_src, 0);
    EXPECT_GE(failure.dead_link_dst, 0);
    EXPECT_EQ(failure.failed_step, 3);
    EXPECT_EQ(failure.last_completed_step, 2);
    EXPECT_FALSE(failure.blocked_instructions.empty());
    EXPECT_GT(failure.detected_at_seconds,
              failure.last_progress_seconds);
}

TEST(EngineHangTest, ExhaustionRacesWatchdogAtEveryWindowSize)
{
    // Backoff escalation and the no-progress watchdog race: whether the
    // watchdog window is far shorter than one backoff wait, comparable,
    // or far longer, RunStep must terminate with the same structured
    // exhaustion report — never a hang — and detection time must track
    // the window monotonically.
    Mesh mesh(4);
    auto module = RingPermuteModule(mesh);
    double previous_detected = -1.0;
    for (double window : {1e-7, 25e-6, 5e-3, 10.0}) {
        FaultSpec spec = AlwaysFailingTransfers();
        spec.watchdog_timeout_seconds = window;
        PodSimulator simulator(mesh, HardwareSpec(), FaultModel(spec));
        auto prepared = simulator.Prepare(*module);
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        auto outcome = simulator.RunStep(*prepared, /*step_index=*/0);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ASSERT_TRUE(outcome->failed) << "window=" << window;
        EXPECT_EQ(outcome->failure.cause,
                  FailureCause::kRetryExhaustion);
        EXPECT_GT(outcome->failure.detected_at_seconds,
                  previous_detected);
        previous_detected = outcome->failure.detected_at_seconds;
    }
}

TEST(EngineHangTest, ExhaustionReportIsDeterministicPerTrial)
{
    Mesh mesh(4);
    auto module = RingPermuteModule(mesh);
    PodSimulator simulator(mesh, HardwareSpec(),
                           FaultModel(AlwaysFailingTransfers()));
    auto prepared = simulator.Prepare(*module);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto a = simulator.RunStep(*prepared, 0, false, /*trial=*/17);
    auto b = simulator.RunStep(*prepared, 0, false, /*trial=*/17);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(a->failed);
    ASSERT_TRUE(b->failed);
    EXPECT_EQ(a->failure.ToString(), b->failure.ToString());
}

TEST(EngineHangTest, SubExhaustionTransientsCompleteWithRetryStats)
{
    // Just below the exhaustion threshold the same program completes,
    // with the retries and their backoff visible in the accounting —
    // the boundary between "tail latency" and "declare the link dead".
    Mesh mesh(4);
    auto module = RingPermuteModule(mesh);
    FaultSpec spec;
    spec.seed = 9;
    spec.transient_failure_probability = 0.9;
    spec.retry.max_transfer_retries = 64;
    PodSimulator simulator(mesh, HardwareSpec(), FaultModel(spec));
    // The per-trial draws are deterministic; at 0.9 per-attempt failure
    // some trial in any small window retries at least once.
    auto prepared = simulator.Prepare(*module);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    bool saw_retries = false;
    for (int64_t trial = 0; trial < 10; ++trial) {
        auto outcome = simulator.RunStep(*prepared, 0, false, trial);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ASSERT_FALSE(outcome->failed) << "trial=" << trial;
        EXPECT_EQ(outcome->result.retry.attempts,
                  outcome->result.retry.retries + 1);
        if (outcome->result.retry.retries > 0) {
            EXPECT_GT(outcome->result.retry.backoff_seconds, 0.0);
            saw_retries = true;
        }
    }
    EXPECT_TRUE(saw_retries);
}

TEST(EngineHangTest, HealthySchedulesStillSimulate)
{
    Mesh mesh(4);
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}), "p");
    auto* start = b.CollectivePermuteStart(p, RingShift(mesh));
    auto* done = b.CollectivePermuteDone(start);
    comp->set_root(done);

    PodSimulator simulator(mesh, HardwareSpec());
    auto result = simulator.Run(*module);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->step_seconds, 0.0);
}

}  // namespace
}  // namespace overlap
