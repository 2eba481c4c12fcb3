/**
 * @file
 * Differential tests for the Simd LUT-GEMM backend and the runtime
 * ISA dispatcher: Reference vs Simd bit-identity under every
 * dispatchable ISA over randomized shapes and configs, cross-ISA
 * bit-identity under forced dispatch, counter equivalence, pre-packed
 * key reuse, and the guarantee that dispatch never selects an ISA the
 * binary was not compiled with (the CI scalar-build leg runs these
 * same tests with FIGLUT_SIMD_AVX2=OFF).
 */

#include <vector>

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

/** Restore the dispatcher's environment selection on scope exit. */
struct IsaOverrideGuard
{
    explicit IsaOverrideGuard(SimdIsa isa) { setSimdIsaOverride(isa); }
    ~IsaOverrideGuard() { clearSimdIsaOverride(); }
};

// ----------------------------------------------------- dispatch layer

TEST(SimdDispatch, NamesCodesAndParsingRoundTrip)
{
    for (const auto isa :
         {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Neon}) {
        SimdIsa parsed = SimdIsa::Scalar;
        EXPECT_TRUE(parseSimdIsa(simdIsaName(isa), &parsed));
        EXPECT_EQ(parsed, isa);
    }
    EXPECT_EQ(simdIsaCode(SimdIsa::Scalar), 0);
    EXPECT_EQ(simdIsaCode(SimdIsa::Avx2), 1);
    EXPECT_EQ(simdIsaCode(SimdIsa::Neon), 2);
    SimdIsa parsed = SimdIsa::Scalar;
    EXPECT_FALSE(parseSimdIsa("sse2", &parsed));
    EXPECT_FALSE(parseSimdIsa("auto", &parsed));
    EXPECT_FALSE(parseSimdIsa("", &parsed));
}

TEST(SimdDispatch, ActiveIsaIsAlwaysSupported)
{
    EXPECT_TRUE(simdIsaSupported(activeSimdIsa()));
    EXPECT_TRUE(simdIsaSupported(detectSimdIsa()));
    EXPECT_TRUE(simdIsaSupported(SimdIsa::Scalar));
    // Supported implies compiled-in by definition.
    for (const auto isa : {SimdIsa::Avx2, SimdIsa::Neon}) {
        if (simdIsaSupported(isa)) {
            EXPECT_TRUE(simdIsaCompiled(isa));
        }
    }
}

/**
 * The compile-guard contract CI's scalar-build leg exercises: when
 * the AVX2/NEON kernels are not compiled in (FIGLUT_SIMD_*=OFF or a
 * foreign architecture), even a forced override must clamp to Scalar
 * — dispatch can never select code the binary lacks.
 */
TEST(SimdDispatch, OverrideClampsToCompiledIsas)
{
    for (const auto isa : {SimdIsa::Avx2, SimdIsa::Neon}) {
        const SimdIsa got = setSimdIsaOverride(isa);
        if (!simdIsaCompiled(isa)) {
            EXPECT_EQ(got, SimdIsa::Scalar) << simdIsaName(isa);
            EXPECT_NE(activeSimdIsa(), isa) << simdIsaName(isa);
        } else if (simdIsaSupported(isa)) {
            EXPECT_EQ(got, isa) << simdIsaName(isa);
            EXPECT_EQ(activeSimdIsa(), isa) << simdIsaName(isa);
        } else {
            EXPECT_EQ(got, SimdIsa::Scalar) << simdIsaName(isa);
        }
        clearSimdIsaOverride();
    }
    // The kernel table always reports the ISA it was selected for.
    EXPECT_EQ(simdKernels().isa, activeSimdIsa());
    EXPECT_EQ(simdKernelsFor(SimdIsa::Scalar).isa, SimdIsa::Scalar);
}

// --------------------------------------------------- backend identity

/** Every ISA the dispatcher can select on this host, Scalar first. */
std::vector<SimdIsa>
supportedIsas()
{
    std::vector<SimdIsa> isas{SimdIsa::Scalar};
    for (const auto isa : {SimdIsa::Avx2, SimdIsa::Neon})
        if (simdIsaSupported(isa))
            isas.push_back(isa);
    return isas;
}

/**
 * The randomized backend differential suite: odd shapes, tail chunks,
 * mu in [1, kMaxMu], offset/half-LUT/generator on/off, both numeric
 * paths, and every FpArith accumulate mode (Fp16/Bf16 exercise the
 * Simd backend's scalar key walk) — Simd under every forced ISA must
 * agree with Reference bit for bit.
 */
TEST(SimdGemm, RandomizedBitIdentityEveryIsa)
{
    Rng shapes(2001);
    const FpArith ariths[] = {FpArith::Fp32, FpArith::Exact,
                              FpArith::Fp16, FpArith::Bf16};
    for (int trial = 0; trial < 16; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 150));
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
        cfg.arith = ariths[shapes.uniformInt(0, 3)];
        cfg.threads = static_cast<int>(shapes.uniformInt(1, 8));

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 2100 + static_cast<uint64_t>(trial));
        const auto ref = runBackend(tc, cfg, LutGemmBackend::Reference);

        const std::string what =
            "trial " + std::to_string(trial) + ": " + std::to_string(m) +
            "x" + std::to_string(n) + " batch " + std::to_string(batch) +
            " bits " + std::to_string(bits) + " group " +
            std::to_string(group) + " offset " + std::to_string(offset) +
            " mu " + std::to_string(cfg.mu) + " half " +
            std::to_string(cfg.useHalfLut) + " tree " +
            std::to_string(cfg.useGeneratorTree) + " pre " +
            std::to_string(cfg.preAligned) + " arith " +
            std::to_string(static_cast<int>(cfg.arith));
        for (const auto isa : supportedIsas()) {
            IsaOverrideGuard guard(isa);
            const auto simd = runBackend(tc, cfg, LutGemmBackend::Simd);
            EXPECT_TRUE(compareMatrices(simd, ref).identical)
                << what << " isa " << simdIsaName(isa);
        }
    }
}

/**
 * Cross-ISA pin: the same Simd call must produce the same bits under
 * every dispatchable ISA, scalar included — the scalar fallback is
 * not approximately equal, it IS the contract.
 */
TEST(SimdGemm, ForcedIsaSweepIsBitIdentical)
{
    const auto tc = makeCase(133, 70, 3, 3, 24, true, 2200);
    for (const bool pre : {false, true}) {
        LutGemmConfig cfg;
        cfg.backend = LutGemmBackend::Simd;
        cfg.preAligned = pre;
        cfg.threads = 2;

        MatrixD baseline;
        {
            IsaOverrideGuard guard(SimdIsa::Scalar);
            baseline = lutGemm(tc.weights, tc.x, cfg);
        }
        for (const auto isa : {SimdIsa::Avx2, SimdIsa::Neon}) {
            if (!simdIsaSupported(isa))
                continue;
            IsaOverrideGuard guard(isa);
            const auto vec = lutGemm(tc.weights, tc.x, cfg);
            EXPECT_TRUE(compareMatrices(vec, baseline).identical)
                << "pre=" << pre << " isa=" << simdIsaName(isa);
        }
        // And the scalar-forced Simd backend equals Reference exactly.
        LutGemmConfig refCfg = cfg;
        refCfg.backend = LutGemmBackend::Reference;
        const auto ref = lutGemm(tc.weights, tc.x, refCfg);
        EXPECT_TRUE(compareMatrices(baseline, ref).identical)
            << "pre=" << pre;
    }
}

TEST(SimdGemm, ContextReuseIsBitIdentical)
{
    const auto tc = makeCase(40, 64, 2, 2, 16, true, 2300);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = true;
    cfg.threads = 2;
    ExecutionContext ctx;
    const auto fresh = lutGemm(tc.weights, tc.x, cfg);
    for (int call = 0; call < 3; ++call) {
        const auto reused =
            lutGemm(tc.weights, tc.x, cfg, nullptr, &ctx);
        EXPECT_TRUE(compareMatrices(reused, fresh).identical)
            << "call " << call;
    }
}

TEST(SimdGemm, PrepackedKeysReuse)
{
    const auto tc = makeCase(24, 48, 2, 3, 12, true, 2400);
    LutGemmConfig cfg;
    cfg.backend = LutGemmBackend::Simd;
    cfg.preAligned = true;
    const auto packedKeys = packLutKeys(tc.weights, cfg.mu);
    const auto internal = lutGemm(tc.weights, tc.x, cfg);
    for (int call = 0; call < 2; ++call) {
        const auto reused = lutGemm(tc.weights, tc.x, cfg, packedKeys);
        EXPECT_TRUE(compareMatrices(reused, internal).identical)
            << "call " << call;
    }
    // Pre-packed keys stay rejected for the Reference backend.
    LutGemmConfig refCfg = cfg;
    refCfg.backend = LutGemmBackend::Reference;
    EXPECT_THROW(lutGemm(tc.weights, tc.x, refCfg, packedKeys),
                 FatalError);
}

// --------------------------------------------------- counter identity

/**
 * Counter equivalence for the Simd path: the closed-form counts of a
 * Simd call must equal the Reference backend's per-read counts (both
 * build each LUT set once, so every counter is backend-invariant)
 * under every dispatchable ISA, and a shared context must accumulate
 * exactly one call's worth per call.
 */
TEST(SimdGemm, CountersMatchInstrumentedAndReference)
{
    Rng shapes(2500);
    for (int trial = 0; trial < 6; ++trial) {
        const auto m = static_cast<std::size_t>(shapes.uniformInt(1, 150));
        const auto n = static_cast<std::size_t>(shapes.uniformInt(1, 60));
        const auto batch =
            static_cast<std::size_t>(shapes.uniformInt(1, 4));
        const int bits = static_cast<int>(shapes.uniformInt(1, 3));
        const std::size_t group = trial % 2 == 0 ? 0 : 10;
        const bool offset = trial % 2 == 1;

        LutGemmConfig cfg;
        cfg.mu = static_cast<int>(shapes.uniformInt(1, 6));
        cfg.useHalfLut = cfg.mu >= 2;
        cfg.preAligned = trial % 2 == 0;
        cfg.threads = 2;

        const auto tc = makeCase(m, n, batch, bits, group, offset,
                                 2600 + static_cast<uint64_t>(trial));
        LutGemmCounters ref;
        (void)runBackend(tc, cfg, LutGemmBackend::Reference, &ref);
        cfg.backend = LutGemmBackend::Simd;
        for (const auto isa : supportedIsas()) {
            IsaOverrideGuard guard(isa);
            const std::string what = "trial " + std::to_string(trial) +
                                     " isa " + simdIsaName(isa);
            LutGemmCounters closed;
            (void)lutGemm(tc.weights, tc.x, cfg, &closed);
            expectCountersEqual(closed, ref, what);

            ExecutionContext ctx;
            LutGemmCounters twice;
            (void)lutGemm(tc.weights, tc.x, cfg, &twice, &ctx);
            (void)lutGemm(tc.weights, tc.x, cfg, &twice, &ctx);
            EXPECT_EQ(twice.lutReads, 2 * ref.lutReads) << what;
            EXPECT_EQ(twice.lutGenerations, 2 * ref.lutGenerations)
                << what;
        }
    }
}

} // namespace
} // namespace figlut
