/**
 * @file
 * Zero-allocation regression gate (DESIGN.md §12/§13): once the buffer
 * pool is warm, re-evaluating a decomposed-loop program must perform
 * no fresh tensor heap allocations — every intermediate is served from
 * the pool. A regression here (a new untracked allocation site, a
 * shape that misses its bucket) shows up as a nonzero delta in
 * TensorHeapAllocCount.
 */
#include <gtest/gtest.h>

#include "core/overlap_compiler.h"
#include "difftest/difftest.h"
#include "interp/evaluator.h"
#include "tensor/buffer_pool.h"

namespace overlap {
namespace {

using difftest::BuildSiteScenario;
using difftest::SiteCase;
using difftest::SiteSpec;

SiteSpec
SmallDecomposedSpec(SiteCase site_case)
{
    SiteSpec spec;
    spec.site_case = site_case;
    spec.mesh_dims = {4};
    spec.shard_extent = 4;
    spec.free0 = 3;
    spec.free1 = 5;
    spec.contract = 8;
    spec.data_seed = 13;
    return spec;
}

TEST(AllocRegressionTest, WarmPoolEvaluationAllocatesNothing)
{
    BufferPool& pool = ThreadLocalBufferPool();

    const SiteCase kCases[] = {
        SiteCase::kAllGatherFree,
        SiteCase::kAllGatherContracting,
        SiteCase::kAllGatherBatch,
        SiteCase::kReduceScatter,
    };
    for (SiteCase site_case : kCases) {
        SiteSpec spec = SmallDecomposedSpec(site_case);
        auto scenario = BuildSiteScenario(spec);
        ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

        CompilerOptions options;
        options.decompose.use_cost_model = false;  // force the loop
        OverlapCompiler compiler(options);
        auto report = compiler.Compile(scenario->module.get());
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_GT(report->decompose.total_decomposed(), 0)
            << spec.ToString();

        SpmdEvaluator eval(spec.mesh());
        const HloComputation& comp = *scenario->module->entry();

        // Warm-up populates the pool with every shape the program
        // needs; from then on each iteration must run heap-free. The
        // outputs go back via Recycle — a plain destructor frees the
        // buffer outside the pool and would drain the output bucket
        // once per iteration.
        auto warm = eval.Evaluate(comp, scenario->params);
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        for (Tensor& t : *warm) Tensor::Recycle(std::move(t));

        pool.ResetStats();
        const int64_t before = TensorHeapAllocCount();
        constexpr int kIters = 3;
        for (int i = 0; i < kIters; ++i) {
            auto r = eval.Evaluate(comp, scenario->params);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            for (Tensor& t : *r) Tensor::Recycle(std::move(t));
        }
        const int64_t allocs = TensorHeapAllocCount() - before;
        EXPECT_EQ(allocs, 0)
            << spec.ToString() << ": " << allocs
            << " fresh tensor heap allocations across " << kIters
            << " warm evaluations; pool stats "
            << pool.stats().ToString();
        EXPECT_GT(pool.stats().hits, 0) << spec.ToString();
    }
}

TEST(AllocRegressionTest, ColdPoolStillCountsAllocations)
{
    // The counter itself must move when the pool is cold — otherwise
    // the zero above could be a dead counter rather than a working pool.
    SiteSpec spec = SmallDecomposedSpec(SiteCase::kAllGatherFree);
    auto scenario = BuildSiteScenario(spec);
    ASSERT_TRUE(scenario.ok());
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    OverlapCompiler compiler(options);
    ASSERT_TRUE(compiler.Compile(scenario->module.get()).ok());
    SpmdEvaluator eval(spec.mesh());

    ThreadLocalBufferPool().Clear();
    const int64_t before = TensorHeapAllocCount();
    auto r = eval.Evaluate(*scenario->module->entry(), scenario->params);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(TensorHeapAllocCount() - before, 0);
}

}  // namespace
}  // namespace overlap
