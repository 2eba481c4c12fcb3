/**
 * @file
 * Tests for the ThreadPool work queue and the Simd LUT-GEMM backend's
 * bit-identity against the scalar Reference backend under every row
 * tiling (worker count x row counts around the fixed 64-row tile).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/engine_numerics.h"
#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "core/parallel.h"
#include "model/synthetic.h"
#include "quant/uniform_to_bcq.h"

namespace figlut {
namespace {

// ---------------------------------------------------------------- pool

TEST(Parallel, ResolveThreadCount)
{
    EXPECT_GE(resolveThreadCount(0), 1);
    EXPECT_GE(resolveThreadCount(-3), 1);
    EXPECT_EQ(resolveThreadCount(1), 1);
    EXPECT_EQ(resolveThreadCount(7), 7);
}

TEST(Parallel, EmptyBatchCompletesImmediately)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelForBlocked(0, 16, [&](BlockRange) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.wait(); // idle wait must not deadlock
}

TEST(Parallel, CoversIndexSpaceExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t total = 1037; // not a multiple of the block size
    std::vector<std::atomic<int>> hits(total);
    pool.parallelForBlocked(total, 64, [&](BlockRange r) {
        EXPECT_LE(r.begin, r.end);
        EXPECT_LE(r.end, total);
        for (std::size_t i = r.begin; i < r.end; ++i)
            hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < total; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, SingleThreadMatchesSerialSum)
{
    std::vector<int> values(513);
    std::iota(values.begin(), values.end(), 1);
    const long expected =
        std::accumulate(values.begin(), values.end(), 0L);

    ThreadPool pool(1);
    std::atomic<long> sum{0};
    pool.parallelForBlocked(values.size(), 10, [&](BlockRange r) {
        long partial = 0;
        for (std::size_t i = r.begin; i < r.end; ++i)
            partial += values[i];
        sum.fetch_add(partial);
    });
    EXPECT_EQ(sum.load(), expected);
}

TEST(Parallel, OversubscriptionCompletes)
{
    // Far more workers than items (and than cores): every item must
    // still run exactly once and wait() must return.
    ThreadPool pool(32);
    std::atomic<int> calls{0};
    pool.parallelForBlocked(3, 1, [&](BlockRange r) {
        EXPECT_EQ(r.size(), 1u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3);
}

TEST(Parallel, TaskExceptionRethrownFromWait)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelForBlocked(
                     8, 1,
                     [&](BlockRange r) {
                         if (r.begin == 5)
                             fatal("boom at ", r.begin);
                     }),
                 FatalError);
    // Pool must remain usable after an exception.
    std::atomic<int> calls{0};
    pool.parallelForBlocked(4, 2, [&](BlockRange) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 2);
}

// --------------------------------------- Simd LUT-GEMM row tiling

struct GemmCase
{
    BcqTensor weights;
    MatrixD x;
};

GemmCase
makeCase(std::size_t m, std::size_t n, std::size_t batch, int bits,
         std::size_t group, bool offset, uint64_t seed)
{
    Rng rng(seed);
    GemmCase tc;
    const auto w = syntheticWeights(m, n, rng);
    BcqConfig cfg;
    cfg.bits = bits;
    cfg.groupSize = group;
    cfg.useOffset = offset;
    cfg.iterations = 3;
    tc.weights = quantizeBcq(w, cfg);
    tc.x = syntheticActivations(n, batch, rng);
    return tc;
}

MatrixD
runBackend(const GemmCase &tc, LutGemmBackend backend, int threads,
           bool pre_aligned, ExecutionContext *ctx = nullptr)
{
    LutGemmConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    cfg.preAligned = pre_aligned;
    return lutGemm(tc.weights, tc.x, cfg, nullptr, ctx);
}

TEST(LutGemmTiled, OneThreadBitIdenticalToReference)
{
    const auto tc = makeCase(32, 64, 3, 3, 16, true, 901);
    for (const bool pre : {false, true}) {
        const auto ref = runBackend(tc, LutGemmBackend::Reference, 0, pre);
        const auto simd = runBackend(tc, LutGemmBackend::Simd, 1, pre);
        EXPECT_TRUE(compareMatrices(simd, ref).identical)
            << "preAligned=" << pre;
    }
}

TEST(LutGemmTiled, ManyThreadsBitIdenticalToReference)
{
    // 129 rows: two full 64-row tiles and a one-row tail.
    const auto tc = makeCase(129, 96, 4, 2, 24, true, 902);
    for (const bool pre : {false, true}) {
        const auto ref = runBackend(tc, LutGemmBackend::Reference, 0, pre);
        const auto simd = runBackend(tc, LutGemmBackend::Simd, 8, pre);
        EXPECT_TRUE(compareMatrices(simd, ref).identical)
            << "preAligned=" << pre;
    }
}

TEST(LutGemmTiled, BlockRowsSweepIsTilingInvariant)
{
    // Row counts straddling the fixed 64-row tile: a single short
    // tile, exact multiples, and one-row tails, at worker counts that
    // do and do not divide the tile count, with per-call resources and
    // with one context shared by every call.
    for (const std::size_t m : {1, 63, 64, 65, 128, 129, 200}) {
        const auto tc = makeCase(m, 48, 2, 3, 0, true, 903 + m);
        for (const bool pre : {false, true}) {
            const auto ref =
                runBackend(tc, LutGemmBackend::Reference, 0, pre);
            ExecutionContext shared;
            ExecutionContext *const contexts[] = {nullptr, &shared};
            for (const int threads : {1, 2, 3, 8}) {
                for (ExecutionContext *ctx : contexts) {
                    const auto simd = runBackend(tc, LutGemmBackend::Simd,
                                                 threads, pre, ctx);
                    EXPECT_TRUE(compareMatrices(simd, ref).identical)
                        << "m=" << m << " pre=" << pre
                        << " threads=" << threads
                        << " ctx=" << (ctx != nullptr);
                }
            }
        }
    }
}

TEST(LutGemmTiled, RandomizedShapesDifferential)
{
    Rng shapes(904);
    for (int trial = 0; trial < 12; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 200));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 90));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 5));
        const int bits = static_cast<int>(shapes.uniformInt(1, 4));
        const bool grouped = shapes.uniformInt(0, 1) == 1;
        const std::size_t group =
            grouped ? static_cast<std::size_t>(
                          shapes.uniformInt(1, static_cast<int64_t>(n)))
                    : 0;
        const bool offset = shapes.uniformInt(0, 1) == 1;
        const bool pre = shapes.uniformInt(0, 1) == 1;
        const int threads = static_cast<int>(shapes.uniformInt(1, 8));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 905 + static_cast<uint64_t>(trial));
        const auto ref = runBackend(tc, LutGemmBackend::Reference, 0, pre);
        const auto simd = runBackend(tc, LutGemmBackend::Simd, threads, pre);
        EXPECT_TRUE(compareMatrices(simd, ref).identical)
            << "trial " << trial << ": " << m << "x" << n << " batch "
            << batch << " bits " << bits << " group " << group
            << " offset " << offset << " pre " << pre << " threads "
            << threads;
    }
}

TEST(LutGemmTiled, AbsurdThreadCountThrowsInsteadOfSpawning)
{
    const auto tc = makeCase(4, 16, 1, 2, 0, false, 908);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.threads = kMaxLutGemmThreads + 1;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg), FatalError);
}

} // namespace
} // namespace figlut
