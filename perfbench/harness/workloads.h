#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "difftest/difftest.h"
#include "harness/spans.h"
#include "support/status.h"

namespace perfbench {

/**
 * One simulated reference-vs-overlapped comparison. `scenario` groups
 * trials of the same compiled pair (fault_trials) so their step tail
 * can be summarized; the step times are whole-step simulated seconds.
 */
struct SimPair {
    std::string scenario;
    double reference_step = 0.0;
    double overlapped_step = 0.0;
};

/** What one item did: its timed host seconds, failure, simulated pairs. */
struct ItemOutcome {
    double seconds = 0.0;
    /// Non-empty when the item failed one of the correctness checks.
    std::string error;
    std::vector<SimPair> sims;
};

/** Knobs the benchmark's own tests use; the benchmark leaves them empty. */
struct WorkloadOptions {
    /// Forwarded into every CompilerOptions the workload compiles with.
    std::vector<overlap::InjectedPass> extra_passes;
    /// Keep only the first N items of the (unshuffled) cycle; 0 keeps all.
    int64_t max_items = 0;
};

/**
 * A named set of items driven through the system's public entry points
 * on the calling thread. Items form a fixed cycle derived from the
 * workload seed; the runner repeats the cycle in a seeded order.
 */
class Workload {
  public:
    virtual ~Workload() = default;

    /**
     * Prepares the cycle from scratch (model tables, one-time compiles,
     * a warm-up item). Timed as `setup_s`; may be called again, each
     * call discarding the previous state.
     */
    virtual overlap::Status Setup(uint64_t seed) = 0;

    virtual int64_t cycle_size() const = 0;

    /**
     * Runs item `index` of the cycle. Only the calls into the system
     * are timed (ItemOutcome::seconds); the correctness checks that
     * follow are not. With a non-null `log` every call is wrapped in a
     * span and per-layer counters are recorded.
     */
    virtual ItemOutcome RunItem(int64_t index, SpanLog* log) = 0;
};

/**
 * difftest's traced item: RunSingleCase(spec, variant, false) composed
 * from its public parts so each layer gets a span in `log` (not null):
 * two scenario builds, the decompose and async passes on the
 * transformed copy with a verify after each, one evaluation of each
 * program, and the two comparisons (blocking vs ground truth,
 * decomposed vs blocking). Returns what RunSingleCase returns.
 */
overlap::StatusOr<overlap::OutputComparison> TracedSingleCase(
    const overlap::difftest::SiteSpec& spec,
    const overlap::difftest::DecomposeVariant& variant, SpanLog* log);

/** The workload names the benchmark accepts, in BENCHMARK.json order. */
const std::vector<std::string>& WorkloadNames();

/** Null for an unknown name. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       WorkloadOptions options = {});

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
