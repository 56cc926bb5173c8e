#ifndef PERFBENCH_HARNESS_RUNNER_H_
#define PERFBENCH_HARNESS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/workloads.h"
#include "support/status.h"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    /// Items are started until this much wall time has passed (and,
    /// untraced, at least 100 items ran); whole cycles only, so every
    /// run covers each item equally often.
    double seconds = 10.0;
    /// Alternate untraced and traced cycles and report per-layer
    /// metrics instead of end-to-end ones.
    bool trace = false;
    /// A command that sets the workload up once in a fresh process and
    /// exits 0 (the driver's --setup-only mode). When given, each
    /// set-up sample is one run of it, from process start to exit, so
    /// cold-start costs count; when empty, it is one Setup() call.
    std::vector<std::string> setup_command;
    /// Where a traced run writes its spans (JSON); empty writes none.
    std::string trace_out;
};

struct RunResult {
    int64_t attempted = 0;
    int64_t failed = 0;
    /// The first few failure messages.
    std::vector<std::string> errors;
    std::vector<Metric> metrics;
    /// The shared run header (host, build, seed, sample counts).
    std::string header_json;

    bool correct() const { return attempted > 0 && failed == 0; }
};

/** Names the untraced run reports, in BENCHMARK.json order. */
const std::vector<std::string>& EndToEndMetricNames();
/** Names the traced run reports, in BENCHMARK.json order. */
const std::vector<std::string>& PerLayerMetricNames();

/**
 * Times a few set-ups of `workload` (setup_s is their median), sets it
 * up for this process, then runs whole cycles of its items in a seeded
 * order until `seconds` have passed. Errors only when set-up fails;
 * item failures are counted in the result.
 */
overlap::StatusOr<RunResult> RunBenchmark(Workload& workload,
                                          const RunConfig& config);

/** The result line: correct, attempted, failed and metrics. */
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_RUNNER_H_
