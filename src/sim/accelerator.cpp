#include "sim/accelerator.h"

#include "common/logging.h"

namespace figlut {

KernelTask
KernelTask::makeGemm(std::string name, GemmShape shape)
{
    KernelTask task;
    task.kind = Kind::Gemm;
    task.name = std::move(name);
    task.gemm = shape;
    return task;
}

KernelTask
KernelTask::makeVector(std::string name, VpuOpCounts ops)
{
    KernelTask task;
    task.kind = Kind::Vector;
    task.name = std::move(name);
    task.vector = ops;
    return task;
}

Accelerator::Accelerator(HwConfig hw) : hw_(std::move(hw))
{
    hw_.validate();
}

SimResult
Accelerator::runGemm(const GemmShape &shape) const
{
    return simulateGemm(hw_, shape);
}

WorkloadResult
Accelerator::runWorkload(const std::vector<KernelTask> &tasks) const
{
    if (tasks.empty())
        fatal("cannot run an empty workload");

    WorkloadResult result;
    double gemm_ops = 0.0;

    for (const auto &task : tasks) {
        switch (task.kind) {
          case KernelTask::Kind::Gemm: {
            auto sim = runGemm(task.gemm);
            result.totalCycles += sim.timing.totalCycles;
            result.gemmCycles += sim.timing.totalCycles;
            result.energy.merge(sim.energy);
            // Shared-memory interface: activations in, outputs out
            // (weights are resident; the host reads results in place,
            // Section III-F).
            const int store = storageBits(hw_.actFormat);
            result.axiBytes +=
                (static_cast<double>(task.gemm.n) * task.gemm.batch +
                 static_cast<double>(task.gemm.m) * task.gemm.batch) *
                store / 8.0;
            gemm_ops += task.gemm.ops();
            result.gemmResults.push_back(std::move(sim));
            break;
          }
          case KernelTask::Kind::Vector: {
            const double cycles = vpuCycles(task.vector);
            result.totalCycles += cycles;
            result.vpuCycles += cycles;
            EnergyBreakdown e;
            e.vpuFj = vpuEnergyFj(task.vector, hw_.tech);
            result.energy.merge(e);
            break;
          }
        }
    }

    result.seconds = result.totalCycles / (hw_.tech.freqMhz * 1e6);
    result.effTops = gemm_ops / result.seconds / 1e12;
    result.topsPerWatt =
        gemm_ops / result.energy.totalJoules() / 1e12;
    result.powerW = averagePowerW(result.energy, result.totalCycles,
                                  hw_.tech.freqMhz);
    return result;
}

} // namespace figlut
