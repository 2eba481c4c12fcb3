/**
 * @file
 * Hardware and workload configuration for the cycle-level simulator.
 *
 * All engines are configured at the paper's common design point: equal
 * peak Q4 throughput (16384 binary lanes / 4096 Q4 MACs per cycle),
 * 100 MHz, 28 nm (Section IV-B "Configuration Setup").
 */

#ifndef FIGLUT_SIM_ENGINE_CONFIG_H
#define FIGLUT_SIM_ENGINE_CONFIG_H

#include <cstdint>
#include <string>

#include "arch/lut_power.h"
#include "arch/tech_params.h"
#include "core/engine_numerics.h"
#include "numerics/fp_format.h"

namespace figlut {

/** One GEMM workload: Y(M x B) = W(M x N) * X(N x B). */
struct GemmShape
{
    std::size_t m = 0;        ///< output features
    std::size_t n = 0;        ///< input features (reduction dim)
    std::size_t batch = 1;    ///< input columns
    int weightBits = 4;       ///< quantized width q
    std::size_t groupSize = 0;///< scale group (0 = full row)
    bool hasOffset = true;    ///< BCQ offset / uniform zero point

    double macs() const
    {
        return static_cast<double>(m) * static_cast<double>(n) *
               static_cast<double>(batch);
    }

    /** Nominal GEMM operations (2 per MAC), the paper's TOPS basis. */
    double ops() const { return 2.0 * macs(); }

    /** Validate invariants; throws FatalError on bad input. */
    void validate() const;
};

/**
 * Engine hardware configuration. It describes the modeled hardware
 * only; how the host runs the functional kernels is LutGemmConfig's
 * business (core/lut_gemm.h), reached from the serving side through
 * ExecOptions (runtime/exec_options.h).
 */
struct HwConfig
{
    EngineKind engine = EngineKind::FIGLUT_I;
    ActFormat actFormat = ActFormat::FP16;
    int mu = 4;               ///< FIGLUT LUT group size
    int k = 32;               ///< FIGLUT RACs per LUT
    /**
     * LUT implementation for the FIGLUT engines. hFFLUT is the
     * paper's design; FFLUT and RFLUT are the ablation points
     * (Sections III-C/III-D).
     */
    LutImpl lutImpl = LutImpl::HFFLUT;
    /**
     * Physical weight width of the fixed-precision engines. FPE and
     * FIGNA instantiated for Q4 must pad narrower weights to 4 bits;
     * the Q8 variants are separate (wider) hardware (Section IV-B).
     */
    int fixedWeightBits = 4;
    TechParams tech = TechParams::default28nm();

    /** True for the bit-serial engines (iFPU, FIGLUT). */
    bool bitSerial() const;

    /** Whether this engine runs on the pre-aligned integer datapath. */
    bool integerDatapath() const;

    /**
     * The weight width the hardware actually processes for a q-bit
     * workload: q for bit-serial engines, padded fixedWeightBits for
     * the fixed-precision ones.
     */
    int processedWeightBits(int q) const;

    /** Peak binary-lane MACs per cycle (16384 at the design point). */
    double peakBinaryLanes() const;

    /** Display name like "FIGLUT-I(FP16)". */
    std::string describe() const;

    /** Validate invariants; throws FatalError on bad input. */
    void validate() const;
};

} // namespace figlut

#endif // FIGLUT_SIM_ENGINE_CONFIG_H
