/**
 * @file
 * Pooled-vs-serial equivalence for the execution stack (run under TSan
 * by scripts/check_sanitize.sh): EvaluateBatch on a thread pool must be
 * bitwise identical to the serial batch, and a pooled difftest sweep
 * must produce a byte-identical summary and failure list at every
 * thread count.
 */
#include <gtest/gtest.h>

#include "difftest/difftest.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "interp/evaluator.h"
#include "support/thread_pool.h"
#include "tensor/tensor.h"

namespace overlap {
namespace {

using difftest::DiffTestConfig;
using difftest::RunDiffTest;

bool
BitIdentical(const std::vector<Tensor>& a, const std::vector<Tensor>& b)
{
    if (a.size() != b.size()) return false;
    for (size_t d = 0; d < a.size(); ++d) {
        if (!(a[d].shape() == b[d].shape())) return false;
        if (Tensor::MaxAbsDiff(a[d], b[d]) != 0.0f) return false;
    }
    return true;
}

TEST(ParallelEvalTest, EvaluateBatchOnPoolMatchesSerial)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 2}));
    comp->set_root(b.AllGather(p, 0, mesh.AxisGroups(0)));

    std::vector<std::vector<Tensor>> params(1);
    params[0] = {Tensor::Random(Shape({2, 2}), 1),
                 Tensor::Random(Shape({2, 2}), 2)};
    std::vector<const HloComputation*> comps(6, comp);

    SpmdEvaluator serial(mesh);
    auto want = serial.EvaluateBatch(comps, params);
    ASSERT_TRUE(want.ok());

    ThreadPool pool(4);
    EvalOptions opts;
    opts.batch_pool = &pool;
    SpmdEvaluator pooled(mesh, opts);
    auto got = pooled.EvaluateBatch(comps, params);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_TRUE(BitIdentical((*want)[i], (*got)[i])) << "batch " << i;
    }
}

TEST(ParallelEvalTest, DiffTestSliceByteIdenticalAcrossThreadCounts)
{
    DiffTestConfig config;
    config.num_cases = 64;
    config.seed = 1;
    config.threads = 1;
    auto serial = RunDiffTest(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (int64_t threads : {2, 4}) {
        config.threads = threads;
        auto parallel = RunDiffTest(config);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        EXPECT_EQ(serial->ToString(), parallel->ToString());
        EXPECT_EQ(serial->cases_run, parallel->cases_run);
        EXPECT_EQ(serial->variants_run, parallel->variants_run);
        EXPECT_EQ(serial->mismatches, parallel->mismatches);
        EXPECT_EQ(serial->failures.size(), parallel->failures.size());
        EXPECT_EQ(serial->cases_by_site, parallel->cases_by_site);
        EXPECT_EQ(serial->odd_extent_cases, parallel->odd_extent_cases);
        EXPECT_EQ(serial->even_extent_cases, parallel->even_extent_cases);
    }
}

TEST(ParallelEvalTest, DiffTestFailureListIdenticalUnderInjectedBug)
{
    // With the deliberate shard-id bug the sweep produces mismatches;
    // the failure list (order, contents, cap cut-off) must not depend
    // on the thread count.
    DiffTestConfig config;
    config.num_cases = 24;
    config.seed = 5;
    config.inject_shard_id_bug = true;
    config.max_failures = 8;
    config.threads = 1;
    auto serial = RunDiffTest(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_GT(serial->mismatches, 0);

    config.threads = 4;
    auto parallel = RunDiffTest(config);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(serial->ToString(), parallel->ToString());
    ASSERT_EQ(serial->failures.size(), parallel->failures.size());
    for (size_t i = 0; i < serial->failures.size(); ++i) {
        EXPECT_EQ(serial->failures[i].spec.ToString(),
                  parallel->failures[i].spec.ToString());
        EXPECT_EQ(serial->failures[i].variant,
                  parallel->failures[i].variant);
    }
}

}  // namespace
}  // namespace overlap
