/**
 * @file
 * Tests of the benchmark itself: its statistics and self-time maths on
 * hand-computed samples, item failures counted without crashing the
 * run, traced-run accounting, and the names it emits.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "harness/runner.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

TEST(StatsTest, PercentileInterpolatesBetweenClosestRanks)
{
    EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
    // rank 0.9 * 4 = 3.6: 40 + 0.6 * (50 - 40).
    EXPECT_DOUBLE_EQ(Percentile({50, 10, 40, 20, 30}, 0.9), 46.0);
    EXPECT_DOUBLE_EQ(Percentile({10, 20, 30, 40, 50}, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(Percentile({10, 20, 30, 40, 50}, 1.0), 50.0);
    EXPECT_DOUBLE_EQ(Percentile({7}, 0.9), 7.0);
    EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(StatsTest, GeomeanAndSamplesBeyond)
{
    EXPECT_NEAR(Geomean({1, 4, 16}), 4.0, 1e-12);
    EXPECT_NEAR(Geomean({2, 8}), 4.0, 1e-12);
    EXPECT_NEAR(Geomean({0.5, 2}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(Geomean({}), 0.0);
    // Median of 1..10 is 5.5: five samples lie above it.
    EXPECT_EQ(SamplesBeyond({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5), 5);
    // p90 of 1..100 is 90.1: ten samples lie above it.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) hundred.push_back(i);
    EXPECT_EQ(SamplesBeyond(hundred, 0.9), 10);
}

TEST(SpansTest, SelfTimeSubtractsTheUnionOfDirectChildren)
{
    std::vector<Span> spans = {
        {"item", 0.0, 10.0, -1, 0},
        {"a", 1.0, 3.0, 0, 0},
        {"b", 2.0, 5.0, 0, 0},   // overlaps a: [1, 5] counted once
        {"c", 7.0, 8.0, 0, 0},
        {"d", 9.0, 12.0, 0, 0},  // sticks out: only [9, 10] counts
        {"e", 2.5, 4.0, 2, 0},   // grandchild: only b loses it
    };
    std::vector<double> self = SelfTimes(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.5);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
    EXPECT_DOUBLE_EQ(self[4], 3.0);
    EXPECT_DOUBLE_EQ(self[5], 1.5);
}

TEST(SpansTest, LogNestsSpansAndStampsItems)
{
    SpanLog log;
    log.set_item(7);
    {
        ScopedSpan item(&log, "item");
        ScopedSpan child(&log, "child");
        log.AddClosed("rebuilt", 0.0, 0.0);
    }
    ASSERT_EQ(log.spans().size(), 3u);
    EXPECT_EQ(log.spans()[0].parent, -1);
    EXPECT_EQ(log.spans()[1].parent, 0);
    EXPECT_EQ(log.spans()[2].parent, 1);
    for (const Span& s : log.spans()) EXPECT_EQ(s.item, 7);
    EXPECT_LE(log.spans()[1].end, log.spans()[0].end);

    ScopedSpan untraced(nullptr, "item");  // no log: records nothing
    EXPECT_EQ(untraced.index(), -1);
}

RunConfig
ShortRun(const std::string& workload, bool trace)
{
    RunConfig config;
    config.workload = workload;
    config.seed = 5;
    config.seconds = 0.0;  // the least a run does: 100 items, or two
                           // cycles when traced
    config.trace = trace;
    return config;
}

TEST(RunnerTest, FailedItemsAreCountedAndTheRunCompletes)
{
    WorkloadOptions options;
    options.max_items = 1;
    options.extra_passes.push_back(
        {"broken", [](overlap::HloModule*) {
             return overlap::Internal("injected failure");
         }});
    for (const char* name : {"paper_grid", "moe_grid"}) {
        auto workload = MakeWorkload(name, options);
        ASSERT_NE(workload, nullptr);
        auto result = RunBenchmark(*workload, ShortRun(name, false));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Untraced runs go on to 100 items; every one of them fails.
        EXPECT_EQ(result->attempted, 100) << name;
        EXPECT_EQ(result->failed, 100) << name;
        EXPECT_FALSE(result->correct());
        ASSERT_FALSE(result->errors.empty());
        EXPECT_NE(result->errors[0].find("broken"), std::string::npos)
            << result->errors[0];
        EXPECT_NE(result->header_json.find("\"failed_frac\": 1"),
                  std::string::npos)
            << result->header_json;
    }
}

double
Value(const RunResult& result, const std::string& name)
{
    for (const Metric& m : result.metrics) {
        if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

TEST(RunnerTest, CleanRunReportsEveryEndToEndMetric)
{
    WorkloadOptions options;
    options.max_items = 2;
    auto workload = MakeWorkload("moe_grid", options);
    auto result = RunBenchmark(*workload, ShortRun("moe_grid", false));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->correct());
    std::vector<std::string> names;
    for (const Metric& m : result->metrics) {
        names.push_back(m.name);
        EXPECT_GT(m.value, 0.0) << m.name;
    }
    EXPECT_EQ(names, EndToEndMetricNames());
    EXPECT_GE(Value(*result, "sim_speedup_geomean"),
              Value(*result, "sim_speedup_min"));
}

TEST(RunnerTest, TracedRunChargesItemTimeToLayers)
{
    WorkloadOptions options;
    options.max_items = 1;
    auto workload = MakeWorkload("paper_grid", options);
    auto result = RunBenchmark(*workload, ShortRun("paper_grid", true));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->correct());
    std::vector<std::string> names;
    for (const Metric& m : result->metrics) names.push_back(m.name);
    EXPECT_EQ(names, PerLayerMetricNames());
    EXPECT_GE(Value(*result, "trace.covered_frac"), 0.9);
    // Guard time is what Compile spends outside its passes, so the two
    // add up to the compile wall time.
    double passes = 0.0;
    for (const Metric& m : result->metrics) {
        if (m.name.rfind("compiler.pass.", 0) == 0) passes += m.value;
    }
    EXPECT_NEAR(passes + Value(*result, "compiler.guard_ms"),
                Value(*result, "compiler.compile_ms"),
                1e-6 * Value(*result, "compiler.compile_ms"));
    EXPECT_GT(Value(*result, "hlo.verify_ms"), 0.0);
    EXPECT_GT(Value(*result, "sim.run_ms"), 0.0);
    EXPECT_EQ(Value(*result, "interp.eval_ms"), 0.0);
}

TEST(RunnerTest, TracedDifftestReportsItsLayers)
{
    WorkloadOptions options;
    options.max_items = 12;  // two specs under all six variants
    auto workload = MakeWorkload("difftest", options);
    auto result = RunBenchmark(*workload, ShortRun("difftest", true));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->attempted, 24);
    EXPECT_TRUE(result->correct())
        << (result->errors.empty() ? "" : result->errors[0]);
    EXPECT_GE(Value(*result, "trace.covered_frac"), 0.9);
    EXPECT_GT(Value(*result, "interp.eval_ms"), 0.0);
    EXPECT_GT(Value(*result, "difftest.transform_ms"), 0.0);
    EXPECT_GT(Value(*result, "tensor.pool_hit_frac"), 0.0);
}

TEST(RunnerTest, TracedDifftestMatchesRunSingleCase)
{
    namespace dt = overlap::difftest;
    int64_t compared = 0;
    int64_t inexact = 0;
    for (int64_t i = 0; i < 3; ++i) {
        dt::SiteSpec spec = dt::GenerateSiteSpec(5, i);
        spec.free0 = 64;
        spec.free1 = 64;
        for (const dt::DecomposeVariant& variant : dt::AllDecomposeVariants()) {
            SCOPED_TRACE(std::string(variant.name) + " " + spec.ToString());
            auto untraced = dt::RunSingleCase(spec, variant, false);
            SpanLog log;
            auto traced = TracedSingleCase(spec, variant, &log);
            ASSERT_EQ(traced.ok(), untraced.ok());
            if (!untraced.ok()) {
                EXPECT_EQ(traced.status().ToString(),
                          untraced.status().ToString());
                continue;
            }
            // Both evaluate serially, so even the error bits agree.
            EXPECT_EQ(traced->equal, untraced->equal);
            EXPECT_EQ(traced->mismatched_devices, untraced->mismatched_devices);
            EXPECT_EQ(traced->first_mismatch_device,
                      untraced->first_mismatch_device);
            EXPECT_EQ(traced->max_abs_diff, untraced->max_abs_diff);
            EXPECT_EQ(traced->tolerance, untraced->tolerance);
            // RunSingleCase's steps, each once per program it touches.
            std::map<std::string, int> calls;
            for (const Span& span : log.spans()) ++calls[span.name];
            EXPECT_EQ(calls, (std::map<std::string, int>{
                                 {"compiler.pass.async-permute-creation", 1},
                                 {"compiler.pass.decompose", 1},
                                 {"difftest.compare", 2},
                                 {"difftest.scenario", 2},
                                 {"difftest.transform", 1},
                                 {"hlo.verify", 2},
                                 {"interp.eval", 2}}));
            ++compared;
            if (untraced->max_abs_diff > 0.0) ++inexact;
        }
    }
    EXPECT_EQ(compared, 18);
    // Some cases round differently after decomposition, so a traced
    // item that did not compare the decomposed outputs would show.
    EXPECT_GT(inexact, 0);
}

TEST(NamesTest, EveryEmittedNameIsWellFormed)
{
    const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::vector<std::string> all = EndToEndMetricNames();
    all.insert(all.end(), PerLayerMetricNames().begin(),
               PerLayerMetricNames().end());
    all.insert(all.end(), WorkloadNames().begin(), WorkloadNames().end());
    for (const std::string& n : all) {
        EXPECT_TRUE(std::regex_match(n, name)) << n;
        EXPECT_EQ(std::count(all.begin(), all.end(), n), 1) << n;
    }
}

TEST(NamesTest, BenchmarkJsonListsTheEmittedNames)
{
    std::ifstream in(PERFBENCH_JSON);
    ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    std::vector<std::string> all = EndToEndMetricNames();
    all.insert(all.end(), PerLayerMetricNames().begin(),
               PerLayerMetricNames().end());
    all.insert(all.end(), WorkloadNames().begin(), WorkloadNames().end());
    for (const std::string& n : all) {
        EXPECT_NE(json.find("\"name\": \"" + n + "\""), std::string::npos)
            << n;
    }
    const std::regex entry("\"name\":");
    EXPECT_EQ(std::distance(std::sregex_iterator(json.begin(), json.end(),
                                                 entry),
                            std::sregex_iterator()),
              static_cast<std::ptrdiff_t>(all.size()));
}

}  // namespace
}  // namespace perfbench
