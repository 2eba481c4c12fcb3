/**
 * @file
 * Whole-accelerator system model (paper Fig. 12): FIGLUT (or a
 * baseline engine) attached to a host over an AXI-style shared-memory
 * interface, with double-buffered on-chip staging, the MPU for GEMMs
 * and the VPU for everything else.
 *
 * The accelerator executes *workloads* — sequences of GEMM and vector
 * kernels (a transformer layer, a full decode step) — and aggregates
 * timing, energy and interface traffic.
 */

#ifndef FIGLUT_SIM_ACCELERATOR_H
#define FIGLUT_SIM_ACCELERATOR_H

#include <string>
#include <vector>

#include "sim/engine_sim.h"
#include "sim/vpu.h"

namespace figlut {

/** One kernel in a workload. */
struct KernelTask
{
    enum class Kind { Gemm, Vector };

    Kind kind = Kind::Gemm;
    std::string name;
    GemmShape gemm;       ///< valid when kind == Gemm
    VpuOpCounts vector;   ///< valid when kind == Vector

    static KernelTask makeGemm(std::string name, GemmShape shape);
    static KernelTask makeVector(std::string name, VpuOpCounts ops);
};

/** Aggregated result of running a workload. */
struct WorkloadResult
{
    double totalCycles = 0.0;
    double seconds = 0.0;
    EnergyBreakdown energy;
    double gemmCycles = 0.0;
    double vpuCycles = 0.0;
    double axiBytes = 0.0;    ///< host<->accelerator shared-memory traffic
    double effTops = 0.0;     ///< GEMM ops / wall time
    double topsPerWatt = 0.0;
    double powerW = 0.0;
    std::vector<SimResult> gemmResults;
};

/** The accelerator system: one engine + VPU + shared-memory frontend. */
class Accelerator
{
  public:
    explicit Accelerator(HwConfig hw);

    const HwConfig &config() const { return hw_; }

    /** Run a single GEMM. */
    SimResult runGemm(const GemmShape &shape) const;

    /** Run a kernel sequence and aggregate. */
    WorkloadResult runWorkload(const std::vector<KernelTask> &tasks) const;

  private:
    HwConfig hw_;
};

} // namespace figlut

#endif // FIGLUT_SIM_ACCELERATOR_H
