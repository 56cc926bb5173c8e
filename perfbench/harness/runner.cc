#include "harness/runner.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <thread>

#include "harness/calibrate.h"
#include "harness/stats.h"
#include "interp/evaluator.h"
#include "support/strings.h"
#include "tensor/buffer_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using overlap::StrCat;

/**
 * Set-ups timed per run; setup_s is their median. Cheap set-ups (a few
 * ms) repeat until they have taken a second in all, so the median rests
 * on enough samples to be steady; a fault_trials set-up takes over a
 * second, so it runs the minimum.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 1.0;

/** The compiler passes whose time the traced run reports by name. */
const char* const kPasses[] = {"decompose",
                               "async-permute-creation",
                               "async-a2a-creation",
                               "concat-fusion-rewrites",
                               "fusion",
                               "schedule"};

double
Ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double
PeakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Runs `command` in a child process and waits for it to exit 0. */
overlap::Status
RunProcess(const std::vector<std::string>& command)
{
    std::vector<char*> argv;
    for (const std::string& arg : command) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    pid_t pid = 0;
    int error = posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                            environ);
    if (error != 0) {
        return overlap::Internal(StrCat("cannot start ", command[0], ": ",
                                        std::strerror(error)));
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            return overlap::Internal(StrCat("cannot wait for ", command[0]));
        }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return overlap::Internal(
            StrCat("set-up process ", command[0], " failed (status ",
                   status, ")"));
    }
    return overlap::Status::Ok();
}

std::string
BuildFlags()
{
    std::string flags = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    flags += " NDEBUG";
#endif
#ifdef __OPTIMIZE__
    flags += " optimized";
#endif
    return flags;
}

/** Simulated outcomes: geomean step, geomean and worst speedup. */
void
AddSimMetrics(const std::vector<SimPair>& sims, std::vector<Metric>* out)
{
    std::vector<double> steps;
    std::vector<double> speedups;
    for (const SimPair& s : sims) {
        steps.push_back(s.overlapped_step);
        speedups.push_back(s.reference_step / s.overlapped_step);
    }
    double worst = speedups.empty()
                       ? 0.0
                       : *std::min_element(speedups.begin(), speedups.end());
    out->push_back({"sim_step_s_geomean", Geomean(steps), "sim_s"});
    out->push_back({"sim_speedup_geomean", Geomean(speedups), "x"});
    out->push_back({"sim_speedup_min", worst, "x"});
}

/** Worst p99/p50 of the overlapped step over each scenario's trials. */
double
WorstTailInflation(const std::vector<SimPair>& sims)
{
    std::map<std::string, std::vector<double>> by_scenario;
    for (const SimPair& s : sims) {
        by_scenario[s.scenario].push_back(s.overlapped_step);
    }
    double worst = 0.0;
    for (const auto& [name, steps] : by_scenario) {
        worst = std::max(worst, Ratio(Percentile(steps, 0.99),
                                      Percentile(steps, 0.5)));
    }
    return worst;
}

/** Per-layer metrics from the traced cycles' spans and counters. */
std::vector<Metric>
LayerMetrics(const SpanLog& log, const std::vector<SimPair>& sims,
             double overhead_frac)
{
    std::map<std::string, double> total;
    std::map<std::string, double> self;
    std::vector<double> self_times = SelfTimes(log.spans());
    for (size_t i = 0; i < log.spans().size(); ++i) {
        const Span& s = log.spans()[i];
        total[s.name] += s.end - s.start;
        self[s.name] += self_times[i];
    }
    const double items = static_cast<double>(std::count_if(
        log.spans().begin(), log.spans().end(),
        [](const Span& s) { return s.parent < 0; }));
    auto counter = [&log](const std::string& name) {
        auto it = log.counters().find(name);
        return it == log.counters().end() ? 0.0 : it->second;
    };
    auto ms = [&](const std::string& span) {
        return Ratio(total[span] * 1e3, items);
    };
    auto counter_ms = [&](const std::string& name) {
        return Ratio(counter(name) * 1e3, items);
    };
    auto per_item = [&](const std::string& name) {
        return Ratio(counter(name), items);
    };

    std::vector<Metric> m;
    m.push_back({"models.build_ms", ms("models.build"), "ms"});
    m.push_back({"models.instrs", per_item("models.instrs"), "count"});
    m.push_back({"compiler.compile_ms", ms("compiler.compile"), "ms"});
    for (const char* pass : kPasses) {
        m.push_back({StrCat("compiler.pass.", pass, "_ms"),
                     ms(StrCat("compiler.pass.", pass)), "ms"});
    }
    m.push_back({"compiler.guard_ms",
                 Ratio(self["compiler.compile"] * 1e3, items), "ms"});
    m.push_back({"hlo.verify_ms", ms("hlo.verify"), "ms"});
    const double judged = counter("compiler.sites_judged");
    const double decomposed = counter("compiler.sites_decomposed");
    m.push_back({"compiler.instrs_out", per_item("compiler.instrs_out"),
                 "count"});
    m.push_back({"compiler.sites_decomposed", per_item("compiler.sites_decomposed"),
                 "count"});
    m.push_back({"compiler.sites_rejected", Ratio(judged - decomposed, items),
                 "count"});
    m.push_back({"compiler.accept_frac", Ratio(decomposed, judged), "ratio"});
    m.push_back({"compiler.rollbacks", per_item("compiler.rollbacks"), "count"});
    const double overlapped_runs = counter("sim.overlapped_runs");
    m.push_back({"sim.run_ms", ms("sim.run"), "ms"});
    m.push_back({"sim.us_per_instr",
                 Ratio(total["sim.run"] * 1e6, counter("sim.instrs")), "us"});
    m.push_back({"sim.exposed_comm_frac",
                 Ratio(counter("sim.exposed_comm_s"), counter("sim.step_s")),
                 "ratio"});
    m.push_back({"sim.peak_in_flight",
                 Ratio(counter("sim.peak_in_flight"), overlapped_runs), "count"});
    m.push_back({"sim.async_transfers",
                 Ratio(counter("sim.async_transfers"), overlapped_runs),
                 "count"});
    m.push_back({"sim.retry_frac",
                 Ratio(counter("sim.retries"), counter("sim.attempts")),
                 "ratio"});
    m.push_back({"sim.p99_over_p50", WorstTailInflation(sims), "x"});
    const double eval_ms = ms("interp.eval");
    const double einsum_ms = counter_ms("interp.einsum_s");
    const double collective_ms = counter_ms("interp.collective_s");
    const double alloc_ms = counter_ms("interp.alloc_s");
    m.push_back({"interp.eval_ms", eval_ms, "ms"});
    m.push_back({"interp.einsum_ms", einsum_ms, "ms"});
    m.push_back({"interp.collective_ms", collective_ms, "ms"});
    m.push_back({"interp.alloc_ms", alloc_ms, "ms"});
    m.push_back({"interp.other_ms",
                 eval_ms > 0.0 ? eval_ms - einsum_ms - collective_ms - alloc_ms
                               : 0.0,
                 "ms"});
    const double hits = counter("tensor.pool_hits");
    m.push_back({"tensor.pool_hit_frac",
                 Ratio(hits, hits + counter("tensor.pool_misses")), "ratio"});
    m.push_back({"difftest.scenario_ms", ms("difftest.scenario"), "ms"});
    m.push_back({"difftest.transform_ms", ms("difftest.transform"), "ms"});
    m.push_back({"difftest.compare_ms", ms("difftest.compare"), "ms"});
    m.push_back({"trace.overhead_frac", overhead_frac, "ratio"});
    m.push_back({"trace.covered_frac",
                 1.0 - Ratio(self["item"], total["item"]), "ratio"});
    return m;
}

std::string
Number(double value)
{
    if (!std::isfinite(value)) value = 0.0;
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::vector<std::string>
Names(const std::vector<Metric>& metrics)
{
    std::vector<std::string> names;
    for (const Metric& m : metrics) names.push_back(m.name);
    return names;
}

}  // namespace

const std::vector<std::string>&
EndToEndMetricNames()
{
    static const std::vector<std::string> names = {
        "setup_s",          "items_per_s",         "item_ms_p50",
        "item_ms_p90",      "peak_rss_mb",         "sim_step_s_geomean",
        "sim_speedup_geomean", "sim_speedup_min"};
    return names;
}

const std::vector<std::string>&
PerLayerMetricNames()
{
    static const std::vector<std::string> names =
        Names(LayerMetrics(SpanLog(), {}, 0.0));
    return names;
}

overlap::StatusOr<RunResult>
RunBenchmark(Workload& workload, const RunConfig& config)
{
    SpeedNormalizer speed;
    std::vector<double> setup_times;
    int setups = 0;
    double setup_total = 0.0;
    while (setups < kMinSetups ||
           (setup_total < kSetupSeconds && setups < kMaxSetups)) {
        double start = Now();
        overlap::Status status = config.setup_command.empty()
                                     ? workload.Setup(config.seed)
                                     : RunProcess(config.setup_command);
        double seconds = Now() - start;
        if (!status.ok()) return status;
        speed.Add(seconds, &setup_times);
        setup_total += seconds;
        ++setups;
    }
    speed.Flush();
    if (!config.setup_command.empty()) {
        // The timed set-ups ran elsewhere; this process still needs one.
        overlap::Status status = workload.Setup(config.seed);
        if (!status.ok()) return status;
    }

    std::vector<int64_t> order(static_cast<size_t>(workload.cycle_size()));
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(config.seed);
    std::shuffle(order.begin(), order.end(), rng);

    RunResult result;
    SpanLog log;
    std::vector<double> untraced_seconds;
    std::vector<double> traced_seconds;
    std::vector<SimPair> sims;
    double raw_seconds = 0.0;
    double first_cycle_rss_mb = 0.0;
    int64_t cycles = 0;
    const double start = Now();
    while (true) {
        // A traced run alternates untraced and traced cycles, so the
        // tracing overhead is measured under the same conditions.
        const bool traced = config.trace && cycles % 2 == 1;
        overlap::SetEvalPhaseTimingEnabled(traced);
        overlap::SetAllocTimingEnabled(traced);
        for (int64_t index : order) {
            log.set_item(result.attempted);
            ItemOutcome item = workload.RunItem(index, traced ? &log : nullptr);
            ++result.attempted;
            speed.Add(item.seconds, traced ? &traced_seconds : &untraced_seconds);
            raw_seconds += item.seconds;
            if (!item.error.empty()) {
                ++result.failed;
                if (result.errors.size() < 5) result.errors.push_back(item.error);
            }
            if (cycles == 0) {
                sims.insert(sims.end(), item.sims.begin(), item.sims.end());
            }
        }
        overlap::SetEvalPhaseTimingEnabled(false);
        overlap::SetAllocTimingEnabled(false);
        speed.Flush();
        // Memory after a fixed amount of work; later cycles can only
        // add what the allocator keeps, which depends on run length.
        if (cycles == 0) first_cycle_rss_mb = PeakRssMb();
        ++cycles;
        // An untraced run also goes on until its 90th percentile has
        // ten samples beyond it.
        const bool enough = config.trace ? cycles >= 2
                                         : untraced_seconds.size() >= 100;
        if (Now() - start >= config.seconds && enough) break;
    }
    const double wall = Now() - start;

    auto items_per_s = [](const std::vector<double>& seconds) {
        return Ratio(static_cast<double>(seconds.size()),
                     std::accumulate(seconds.begin(), seconds.end(), 0.0));
    };
    if (config.trace) {
        double overhead = 1.0 - Ratio(items_per_s(traced_seconds),
                                      items_per_s(untraced_seconds));
        result.metrics = LayerMetrics(log, sims, overhead);
        if (!config.trace_out.empty() && !log.WriteJson(config.trace_out)) {
            std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
        }
    } else {
        result.metrics = {
            {"setup_s", Percentile(setup_times, 0.5), "s"},
            {"items_per_s", items_per_s(untraced_seconds), "1/s"},
            {"item_ms_p50", Percentile(untraced_seconds, 0.5) * 1e3, "ms"},
            {"item_ms_p90", Percentile(untraced_seconds, 0.9) * 1e3, "ms"},
            {"peak_rss_mb", first_cycle_rss_mb, "MB"},
        };
        AddSimMetrics(sims, &result.metrics);
    }

    const unsigned nproc = std::thread::hardware_concurrency();
    result.header_json = StrCat(
        "{\"header\": {\"workload\": \"", config.workload,
        "\", \"seed\": ", config.seed, ", \"nproc\": ", nproc,
        ", \"degenerate\": ", nproc <= 1 ? "true" : "false",
        ", \"build\": \"", BuildFlags(), "\", \"trace\": ",
        config.trace ? "true" : "false",
        ", \"run_seconds\": ", Number(config.seconds),
        ", \"measured_wall_s\": ", Number(wall), ", \"cycles\": ", cycles,
        ", \"cycle_items\": ", workload.cycle_size(),
        ", \"items\": ", result.attempted,
        ", \"untraced_items\": ", untraced_seconds.size(),
        ", \"p90_samples_beyond\": ", SamplesBeyond(untraced_seconds, 0.9),
        ", \"setup_runs\": ", setup_times.size(),
        ", \"setup_cold\": ", config.setup_command.empty() ? "false" : "true",
        ", \"raw_items_per_s\": ",
        Number(Ratio(static_cast<double>(result.attempted), raw_seconds)),
        ", \"speed_factor\": ", Number(speed.mean_factor()),
        ", \"peak_rss_end_mb\": ", Number(PeakRssMb()),
        ", \"failed_frac\": ",
        Number(Ratio(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted))),
        "}}");
    return result;
}

std::string
ResultJson(const RunResult& result)
{
    std::string metrics;
    for (const Metric& m : result.metrics) {
        if (!metrics.empty()) metrics += ", ";
        metrics += StrCat("\"", m.name, "\": {\"value\": ", Number(m.value),
                          ", \"unit\": \"", m.unit, "\"}");
    }
    return StrCat("{\"correct\": ", result.correct() ? "true" : "false",
                  ", \"attempted\": ", result.attempted,
                  ", \"failed\": ", result.failed, ", \"metrics\": {", metrics,
                  "}}");
}

}  // namespace perfbench
