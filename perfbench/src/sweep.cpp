#include "bench.h"
#include "model/workload.h"

namespace perfbench {

namespace {

ReplayOptions
replayOptions(const Spec &spec, int bits, const Perturb perturb,
              std::size_t traceLen)
{
    ReplayOptions ro;
    ro.maxBatch = spec.maxBatch;
    ro.maxQueue = perturb == Perturb::ReplayQueue ? 1 : traceLen;
    ro.weightBits = bits;
    ro.prefillChunkTokens = spec.prefillChunk;
    return ro;
}

} // namespace

void
runSweeps(const Spec &spec, const std::vector<ReplayRequest> &trace,
          double budgetS, Perturb perturb, Sweep &sweep)
{
    // The perturbed second sweep replays the first half of the trace.
    const std::vector<ReplayRequest> shorter(
        trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(
                                           trace.size() / 2));
    const double t0 = nowS();
    do {
        const std::vector<ReplayRequest> &tr =
            perturb == Perturb::ReplaySteps && sweep.sweeps == 1 ? shorter
                                                                 : trace;
        std::vector<double> replayS;
        std::size_t steps = 0;
        for (const EngineKind engine : spec.engines) {
            HwConfig hw;
            hw.engine = engine;
            for (const int bits : spec.gridBits) {
                const double s0 = cpuS();
                const ReplayResult r = replayTrace(
                    spec.model, hw,
                    replayOptions(spec, bits, perturb, tr.size()), tr);
                replayS.push_back(cpuS() - s0);
                sweep.hostS += replayS.back();
                ++sweep.replays;
                bool complete = r.requests.size() == tr.size();
                for (std::size_t i = 0; complete && i < r.requests.size();
                     ++i)
                    complete = !r.requests[i].shed &&
                               !r.requests[i].deadlineMiss &&
                               r.requests[i].tokenTimesS.size() ==
                                   tr[i].outputTokens;
                if (complete)
                    ++sweep.completedReplays;
                steps += r.steps;
            }
        }
        if (sweep.sweeps == 0)
            sweep.stepsPerSweep = steps;
        sweep.stepsRepeat = sweep.stepsRepeat && steps == sweep.stepsPerSweep;
        sweep.replayS.push_back(std::move(replayS));
        sweep.totalSteps += steps;
        ++sweep.sweeps;
    } while (nowS() - t0 < budgetS);
}

void
checkSweeps(const Sweep &sweep, Checks &checks)
{
    checks.expect(sweep.completedReplays == sweep.replays,
                  std::to_string(sweep.replays - sweep.completedReplays) +
                      " replays left requests incomplete");
    checks.expect(sweep.stepsRepeat, "replay sweep step count changed");
}

TopsGrid
topsGrid(const Spec &spec)
{
    TopsGrid grid;
    grid.engines.assign(std::begin(kAllEngines), std::end(kAllEngines));
    grid.bits = {2, 3, 4};
    for (const EngineKind engine : grid.engines) {
        HwConfig hw;
        hw.engine = engine;
        const Accelerator acc(hw);
        std::vector<double> row;
        for (const int bits : grid.bits) {
            WorkloadOptions wo;
            wo.batch = spec.maxBatch;
            wo.weightBits = bits;
            wo.contextLen = (spec.promptMax + spec.outMax) / 2;
            row.push_back(
                acc.runWorkload(decodeStepWorkload(spec.model, wo))
                    .topsPerWatt);
        }
        grid.topsPerW.push_back(row);
    }
    return grid;
}

void
checkTops(const TopsGrid &grid, Perturb perturb, Checks &checks)
{
    std::size_t lut = grid.engines.size();
    for (std::size_t e = 0; e < grid.engines.size(); ++e)
        if (grid.engines[e] == EngineKind::FIGLUT_I)
            lut = e;
    checks.expect(lut < grid.engines.size(), "FIGLUT-I missing from grid");
    if (lut == grid.engines.size())
        return;
    std::vector<std::vector<double>> tops = grid.topsPerW;
    if (perturb == Perturb::TopsBest)
        for (double &t : tops[lut == 0 ? 1 : 0])
            t *= 10.0;
    for (std::size_t b = 0; b < grid.bits.size(); ++b) {
        bool best = true;
        for (std::size_t e = 0; e < grid.engines.size(); ++e)
            if (e != lut && tops[e][b] >= tops[lut][b])
                best = false;
        checks.expect(best, "FIGLUT-I is not the most efficient at q=" +
                                std::to_string(grid.bits[b]));
        if (b == 0)
            continue;
        const double prev = tops[lut][b - 1];
        const double cur = tops[lut][b];
        const bool falls =
            perturb == Perturb::TopsOrder ? cur > prev : cur < prev;
        checks.expect(falls, "FIGLUT-I TOPS/W does not fall from q=" +
                                 std::to_string(grid.bits[b - 1]) +
                                 " to q=" + std::to_string(grid.bits[b]));
    }
}

} // namespace perfbench
