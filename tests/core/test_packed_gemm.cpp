/**
 * @file
 * Differential tests for the packed-key layout: the Simd LUT-GEMM
 * backend pinned to the scalar kernel table (the LutGemmPacked
 * fixture), bit-identical to Reference over randomized shapes and
 * configs, the pre-packed key reuse API, and the counter proof:
 * Simd's closed-form counts equal Reference's per-read counts.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine_numerics.h"
#include "core/execution_context.h"
#include "core/lut_gemm.h"
#include "core/simd.h"
#include "model/synthetic.h"
#include "quant/packing.h"

namespace figlut {
namespace {

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
runBackend(const GemmCase &tc, LutGemmConfig cfg, LutGemmBackend backend,
           LutGemmCounters *counters = nullptr)
{
    cfg.backend = backend;
    return lutGemm(tc.weights, tc.x, cfg, counters);
}

void
expectCountersEqual(const LutGemmCounters &a, const LutGemmCounters &b,
                    const std::string &what)
{
    EXPECT_EQ(a.lutGenerations, b.lutGenerations) << what;
    EXPECT_EQ(a.generatorAdds, b.generatorAdds) << what;
    EXPECT_EQ(a.lutReads, b.lutReads) << what;
    EXPECT_EQ(a.racAccumulates, b.racAccumulates) << what;
    EXPECT_EQ(a.scaleMuls, b.scaleMuls) << what;
    EXPECT_EQ(a.offsetOps, b.offsetOps) << what;
}

/** Runs the Simd backend on the portable scalar kernel table. */
class LutGemmPacked : public ::testing::Test
{
  protected:
    void SetUp() override { setSimdIsaOverride(SimdIsa::Scalar); }
    void TearDown() override { clearSimdIsaOverride(); }
};

/**
 * Row counts straddling the fixed 64-row tile (one short tile, exact
 * tiles, one-row tails), at several worker counts, with per-call
 * resources and with a shared context.
 */
TEST_F(LutGemmPacked, BitIdenticalToReferenceBothPaths)
{
    for (const std::size_t m : {1, 63, 64, 65, 128, 129, 200}) {
        const auto tc = makeCase(m, 64, 3, 3, 16, true, 1001 + m);
        for (const bool pre : {false, true}) {
            LutGemmConfig cfg;
            cfg.preAligned = pre;
            const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);
            cfg.backend = LutGemmBackend::Simd;
            ExecutionContext shared;
            ExecutionContext *const contexts[] = {nullptr, &shared};
            for (const int threads : {1, 2, 3, 8}) {
                cfg.threads = threads;
                for (ExecutionContext *ctx : contexts) {
                    const auto packed =
                        lutGemm(tc.weights, tc.x, cfg, nullptr, ctx);
                    EXPECT_TRUE(compareMatrices(packed, ref).identical)
                        << "m=" << m << " preAligned=" << pre
                        << " threads=" << threads
                        << " ctx=" << (ctx != nullptr);
                }
            }
        }
    }
}

TEST_F(LutGemmPacked, TailChunksAndOddShapes)
{
    // n = 37 with mu = 4 leaves a padded tail chunk; groupSize 10
    // additionally puts a tail chunk in every group.
    for (const std::size_t group : {std::size_t{0}, std::size_t{10}}) {
        const auto tc = makeCase(7, 37, 2, 2, group, true, 1002);
        LutGemmConfig cfg;
        cfg.preAligned = true;
        const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);
        const auto packed = runBackend(tc, cfg, LutGemmBackend::Simd);
        EXPECT_TRUE(compareMatrices(packed, ref).identical)
            << "group=" << group;
    }
}

/**
 * The ISSUE's randomized differential suite: odd shapes, tail chunks,
 * mu in [1, kMaxMu], offset on/off, half-LUT on/off, generator
 * on/off, both numeric paths — Reference and Simd must agree bit for
 * bit.
 */
TEST_F(LutGemmPacked, RandomizedDifferentialSuite)
{
    Rng shapes(1003);
    for (int trial = 0; trial < 16; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 160));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 80));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 5));
        const int bits = static_cast<int>(shapes.uniformInt(1, 4));
        const bool grouped = shapes.uniformInt(0, 1) == 1;
        const std::size_t group =
            grouped ? static_cast<std::size_t>(
                          shapes.uniformInt(1, static_cast<int64_t>(n)))
                    : 0;
        const bool offset = shapes.uniformInt(0, 1) == 1;

        LutGemmConfig cfg;
        cfg.mu = static_cast<int>(shapes.uniformInt(1, kMaxMu));
        cfg.useHalfLut = cfg.mu >= 2 && shapes.uniformInt(0, 1) == 1;
        cfg.useGeneratorTree = shapes.uniformInt(0, 1) == 1;
        cfg.preAligned = shapes.uniformInt(0, 1) == 1;
        cfg.threads = static_cast<int>(shapes.uniformInt(1, 8));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 1100 + static_cast<uint64_t>(trial));
        const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);
        const auto packed = runBackend(tc, cfg, LutGemmBackend::Simd);

        const std::string what =
            "trial " + std::to_string(trial) + ": " + std::to_string(m) +
            "x" + std::to_string(n) + " batch " + std::to_string(batch) +
            " bits " + std::to_string(bits) + " group " +
            std::to_string(group) + " offset " + std::to_string(offset) +
            " mu " + std::to_string(cfg.mu) + " half " +
            std::to_string(cfg.useHalfLut) + " tree " +
            std::to_string(cfg.useGeneratorTree) + " pre " +
            std::to_string(cfg.preAligned) + " threads " +
            std::to_string(cfg.threads);
        EXPECT_TRUE(compareMatrices(packed, ref).identical) << what;
    }
}

TEST_F(LutGemmPacked, PrepackedKeysMatchInternalPacking)
{
    const auto tc = makeCase(24, 48, 2, 3, 12, true, 1004);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = true;
    const auto packedKeys = packLutKeys(tc.weights, cfg.mu);
    const auto internal = lutGemm(tc.weights, tc.x, cfg);
    // Reuse the same pre-packing across repeated calls.
    for (int call = 0; call < 2; ++call) {
        const auto reused =
            lutGemm(tc.weights, tc.x, cfg, packedKeys);
        EXPECT_TRUE(compareMatrices(reused, internal).identical)
            << "call " << call;
    }
}

TEST_F(LutGemmPacked, PrepackedValidationThrows)
{
    const auto tc = makeCase(8, 16, 1, 2, 0, false, 1005);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    const auto mismatchedMu = packLutKeys(tc.weights, cfg.mu + 1);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, mismatchedMu),
                 FatalError);

    const auto other = makeCase(9, 16, 1, 2, 0, false, 1006);
    const auto wrongShape = packLutKeys(other.weights, cfg.mu);
    EXPECT_THROW(lutGemm(tc.weights, tc.x, cfg, wrongShape), FatalError);

    // Pre-packed keys only make sense for the Simd backend.
    const auto good = packLutKeys(tc.weights, cfg.mu);
    LutGemmConfig refCfg = cfg;
    refCfg.backend = LutGemmBackend::Reference;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, refCfg, good), FatalError);
}

// ---------------------------------------- closed-form counter proofs

/**
 * The Simd backend's closed-form counters must equal the Reference
 * backend's per-read counts over the randomized suite. The two tallies
 * come from independent traversals, so agreement proves the closed
 * forms. The flags walk every on/off combination across the trials;
 * mu covers 1-6 and the accumulate format every FpArith, including
 * the Fp16/Bf16 formats that take Simd's scalar key walk.
 */
TEST(LutGemmCounters, ClosedFormMatchesInstrumentedRandomized)
{
    Rng shapes(1008);
    const FpArith ariths[] = {FpArith::Fp32, FpArith::Exact,
                              FpArith::Fp16, FpArith::Bf16};
    for (int trial = 0; trial < 16; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 150));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 60));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 4));
        const int bits = static_cast<int>(shapes.uniformInt(1, 3));
        const bool grouped = shapes.uniformInt(0, 1) == 1;
        const std::size_t group =
            grouped ? static_cast<std::size_t>(
                          shapes.uniformInt(1, static_cast<int64_t>(n)))
                    : 0;
        const bool offset = (trial & 1) != 0;

        LutGemmConfig cfg;
        cfg.mu = 1 + trial % 6;
        cfg.useHalfLut = cfg.mu >= 2 && (trial & 2) != 0;
        cfg.useGeneratorTree = (trial & 4) != 0;
        cfg.preAligned = (trial & 8) != 0;
        cfg.arith = ariths[shapes.uniformInt(0, 3)];
        cfg.threads = static_cast<int>(shapes.uniformInt(1, 4));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 1200 + static_cast<uint64_t>(trial));
        LutGemmCounters closed, perRead;
        (void)runBackend(tc, cfg, LutGemmBackend::Simd, &closed);
        (void)runBackend(tc, cfg, LutGemmBackend::Reference, &perRead);
        expectCountersEqual(
            closed, perRead,
            "trial " + std::to_string(trial) + ": " + std::to_string(m) +
                "x" + std::to_string(n) + " batch " +
                std::to_string(batch) + " offset " +
                std::to_string(offset) + " mu " + std::to_string(cfg.mu) +
                " half " + std::to_string(cfg.useHalfLut) + " tree " +
                std::to_string(cfg.useGeneratorTree) + " pre " +
                std::to_string(cfg.preAligned) + " arith " +
                std::to_string(static_cast<int>(cfg.arith)));
    }
}

TEST(LutGemmCounters, PackedBuildsEachLutSetExactlyOnce)
{
    // The Simd backend must report batch x totalChunks LUT
    // generations no matter how many row tiles execute: 150 rows in
    // 64-row tiles = 3 tiles here.
    const auto tc = makeCase(150, 64, 2, 3, 0, true, 1009);
    LutGemmConfig cfg;
    cfg.mu = 4;
    cfg.threads = 4;

    LutGemmCounters ref, packed;
    (void)runBackend(tc, cfg, LutGemmBackend::Reference, &ref);
    (void)runBackend(tc, cfg, LutGemmBackend::Simd, &packed);

    // 64 cols / mu 4 = 16 chunks, 2 columns -> 32 sets.
    EXPECT_EQ(ref.lutGenerations, 32u);
    EXPECT_EQ(packed.lutGenerations, ref.lutGenerations);
    EXPECT_EQ(packed.generatorAdds, ref.generatorAdds);
    // Row-space work is traversal-invariant.
    EXPECT_EQ(packed.lutReads, ref.lutReads);
    EXPECT_EQ(packed.racAccumulates, ref.racAccumulates);
    EXPECT_EQ(packed.scaleMuls, ref.scaleMuls);
    EXPECT_EQ(packed.offsetOps, ref.offsetOps);
}

/**
 * Regression for the counter-ordering bug: generatorAdds used to be
 * sampled from the generator stats *before* the first generation ran.
 * With exactly one LUT generation the counter must already carry that
 * generation's tree adds.
 */
TEST(LutGemmCounters, GeneratorAddsAttributedAfterFirstGeneration)
{
    // n = mu = 4, batch 1, one group: exactly one LUT generation.
    const auto tc = makeCase(2, 4, 1, 1, 0, false, 1010);
    for (const auto backend :
         {LutGemmBackend::Reference, LutGemmBackend::Simd}) {
        LutGemmConfig cfg;
        cfg.mu = 4;
        cfg.useGeneratorTree = true;
        LutGemmCounters cnt;
        (void)runBackend(tc, cfg, backend, &cnt);
        const std::string what = lutGemmBackendName(backend);
        EXPECT_EQ(cnt.lutGenerations, 1u) << what;
        EXPECT_EQ(cnt.generatorAdds, lutGeneratorAdderCount(4).treeAdds)
            << what;
    }
}

TEST(LutGemmCounters, GeneratorAddsScaleWithGenerations)
{
    // Multi-chunk, multi-plane, multi-column: every generation must
    // contribute exactly one tree's worth of adds.
    const auto tc = makeCase(4, 24, 3, 2, 8, true, 1011);
    for (const auto backend :
         {LutGemmBackend::Reference, LutGemmBackend::Simd}) {
        LutGemmConfig cfg;
        cfg.mu = 4;
        cfg.useGeneratorTree = true;
        LutGemmCounters cnt;
        (void)runBackend(tc, cfg, backend, &cnt);
        const std::string what = lutGemmBackendName(backend);
        // 3 groups x 2 chunks x 3 columns = 18 generations.
        EXPECT_EQ(cnt.lutGenerations, 18u) << what;
        EXPECT_EQ(cnt.generatorAdds,
                  18u * lutGeneratorAdderCount(4).treeAdds)
            << what;
    }
}

} // namespace
} // namespace figlut
