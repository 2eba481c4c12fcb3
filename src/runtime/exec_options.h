/**
 * @file
 * Host-execution options of the runtime and serve layers.
 *
 * The serving surface keeps three concerns separated:
 *  - ModelOptions (QuantizedModelOptions): how weights are
 *    materialized, quantized, and key-packed — owned by the model /
 *    Engine, one-time cost.
 *  - ExecOptions (this header): how GEMM kernels execute on the host —
 *    backend, worker budget, activation/accumulate formats. Shared
 *    by every request an Engine serves.
 *  - RequestOptions (serve/request.h): per-request knobs — token
 *    budget, input seed.
 *
 * makeGemmConfig() is the single mapping from ExecOptions (+ the
 * model's LUT group size mu) to the kernel-level LutGemmConfig, so the
 * Engine and the differential oracles cannot drift apart.
 */

#ifndef FIGLUT_RUNTIME_EXEC_OPTIONS_H
#define FIGLUT_RUNTIME_EXEC_OPTIONS_H

#include "common/status.h"
#include "core/lut_gemm.h"

namespace figlut {

/** Host execution of the GEMM kernels (core/lut_gemm.h knobs). */
struct ExecOptions
{
    /** Simd is bit-identical to Reference and reports the same
     *  counters (closed form vs per-read), so the fast backend is the
     *  default; dispatch degrades to the scalar table on non-SIMD
     *  hosts. */
    LutGemmBackend backend = LutGemmBackend::Simd;
    int threads = 0; ///< workers, <= 0 = hardware concurrency
    ActFormat actFormat = ActFormat::FP16;
    FpArith arith = FpArith::Fp32;
    bool preAligned = true; ///< FIGLUT-I integer path
    int alignFracBits = 24;
    bool useHalfLut = true;
    bool useGeneratorTree = true;

    /**
     * Execute the FFN GELU with the piecewise-linear LUT kernel
     * (referenceGeluLut) instead of the exact tanh GELU. Vectorized
     * and bit-identical across ISAs, but an approximation (abs error
     * < 1e-5; see DESIGN.md) — hence opt-in, default off.
     */
    bool lutGelu = false;
};

/** The kernel configuration these options select for LUT group size mu. */
LutGemmConfig makeGemmConfig(const ExecOptions &exec, int mu);

/**
 * Validate the execution knobs for LUT group size mu without running a
 * kernel: threads bound, mu range, hFFLUT constraints, the pre-aligned
 * fraction width — the same checks lutGemm() enforces fatally,
 * surfaced as a recoverable Status for the serving construction paths.
 */
Status validateExecOptions(const ExecOptions &exec, int mu);

} // namespace figlut

#endif // FIGLUT_RUNTIME_EXEC_OPTIONS_H
