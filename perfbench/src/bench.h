/**
 * @file
 * Shared types of the repository benchmark (perfbench).
 *
 * One process runs one workload: a seeded request mix served on the
 * host by serve::Engine as a closed client loop, then replayed in
 * virtual time by sim::replayTrace over a design grid. Everything is
 * driven through the library's public headers; nothing inside src/ is
 * instrumented. The traced mode times calls into each module from the
 * outside (probes.cpp).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_numerics.h"
#include "model/opt_family.h"
#include "serve/engine.h"
#include "sim/trace_replay.h"

namespace perfbench {

using namespace figlut;

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU seconds of this process, every thread, user and system. The
 * benchmark times its work on this clock. With one GEMM worker the run
 * is single-threaded and never blocks, so on an idle machine this is
 * wall time; on a shared VM it leaves out the time the hypervisor runs
 * other guests on this vCPU (steal), which wall time counts.
 */
inline double
cpuS()
{
    timespec t;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) +
           1e-9 * static_cast<double>(t.tv_nsec);
}

/** One workload: its traffic mix, serving knobs and replay grid. */
struct Spec
{
    std::string name;
    OptConfig model;
    int bits = 4;
    std::size_t clients = 16;
    std::size_t maxBatch = 8;
    std::size_t promptMin = 0, promptMax = 0;
    std::size_t outMin = 1, outMax = 1;
    /** Requests each closed-loop round serves (whole rounds only). */
    std::size_t requestsPerRound = 48;
    std::size_t prefillChunk = 0;
    /** KV budget in arena blocks of the engine's default size, all
     *  layers together; 0 = none. */
    std::size_t kvBudgetBlocks = 0;
    serve::DegradationPolicy policy = serve::DegradationPolicy::ShedNewest;
    /** Share of --seconds spent serving; the rest replays, in a slice
     *  after every round. */
    double serveShare = 0.85;
    /** Requests of the replayed trace and their virtual arrival rate. */
    std::size_t replayRequests = 48;
    double arrivalsPerS = 1000.0;
    std::vector<EngineKind> engines;
    std::vector<int> gridBits;

    std::size_t kvBudgetBytes() const
    {
        return kvBudgetBlocks * serve::EngineOptions().kvBlockTokens * 2 *
               model.hidden * sizeof(double);
    }
};

/** Looks a workload up by name; nullptr when unknown. */
const Spec *findSpec(const std::string &name);
/** Names of every workload, for the usage message. */
std::string specNames();

/** One request of a round: its lengths and input seed. */
struct RequestPlan
{
    std::size_t prompt = 0;
    std::size_t output = 1;
    std::uint64_t seed = 0;
};

/**
 * The request mix of one round: lengths are an evenly spaced multiset
 * over each range in a fixed shuffled order, so the schedule (steps,
 * evictions, sheds) is the same for every seed; the seed draws each
 * request's input seed (its hidden state and prompt embeddings).
 */
std::vector<RequestPlan> makePlans(const Spec &spec, std::uint64_t seed,
                                   std::size_t count);

/** Named pass/fail record of the correctness checks. */
struct Checks
{
    std::size_t run = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what);
};

/** Deliberate input perturbations the self-test uses (--perturb). */
enum class Perturb
{
    None,
    CoreReference,  ///< scale one weight of the GEMM reference
    SoloSeed,       ///< re-serve a sampled request with another seed
    Budget,         ///< expect one token more than each budget
    PrefillSum,     ///< drop one prompt token from the prefill balance
    LutReads,       ///< price reads with mu + 1
    ReplayQueue,    ///< replay with a one-slot wait queue (sheds)
    ReplaySteps,    ///< halve the second sweep's trace
    TopsOrder,      ///< expect TOPS/W to rise with q
    TopsBest,       ///< scale another engine's TOPS/W above FIGLUT-I's
    Schedule,       ///< one more output token in round 2's first plan
    RetireCount,    ///< expect one retire more than completions
    FinalPrefill,   ///< expect one prompt token more in the final life
};

bool parsePerturb(const std::string &name, Perturb *out);

/** What one fused step did, as the benchmark saw it. */
struct StepRecord
{
    double callS = 0.0;   ///< step() call, admin included
    double engineS = 0.0; ///< StepStats::seconds (gather + layers)
    std::size_t width = 0;
    std::uint64_t lutReads = 0;
    /** Causal context of every column (traced runs only). */
    std::vector<std::size_t> contexts;
};

/**
 * A round's step sequence: where each request was submitted and first
 * decoded, and where each token followed the previous one. The closed
 * loop makes it the same in every round; a check confirms that.
 */
struct Schedule
{
    /** Per completed request: steps done at submit, first-token step. */
    std::vector<std::pair<std::size_t, std::size_t>> ttft;
    /** Consecutive tokens of one request life: (step, next step). */
    std::vector<std::pair<std::size_t, std::size_t>> gaps;
    std::size_t steps = 0;

    bool operator==(const Schedule &o) const
    {
        return ttft == o.ttft && gaps == o.gaps && steps == o.steps;
    }
};

/** A completed request's identity, kept for the re-serve check. */
struct Completed
{
    serve::RequestId id = 0;
    RequestPlan plan;
};

/** Outcome of one closed-loop round on a fresh engine. */
struct Round
{
    double setupS = 0.0;
    std::size_t attempted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t outTokens = 0;      ///< outputs of completed requests
    std::size_t promptTokens = 0;   ///< prompts of completed requests
    std::size_t prefillTokens = 0;  ///< every prompt token computed
    std::size_t recomputed = 0;     ///< prompt tokens of evicted lives
    std::size_t shedPrefill = 0;    ///< prompt tokens of shed requests
    std::size_t shed = 0;
    std::size_t evictions = 0;
    std::size_t kvPeakBytes = 0;
    Schedule schedule;
    /** Time of every step, from the end of the one before (the first
     *  from the round's first submit): the step() call and the client
     *  work between steps. */
    std::vector<double> stepCostS;
    std::vector<double> queueS;
    std::vector<StepRecord> steps;
    std::vector<Completed> done;
    /** The round's engine (kept for the checks of the last round). */
    std::unique_ptr<serve::Engine> engine;
};

serve::EngineOptions engineOptions(const Spec &spec, std::uint64_t seed);

/** Serve one round of plans in a closed loop of spec.clients clients. */
Round serveRound(const Spec &spec, const std::vector<RequestPlan> &plans,
                 std::uint64_t seed, bool trace, Perturb perturb,
                 Checks &checks);

/** What a round's clients saw, given a time for each step. */
struct ServeFigures
{
    double seconds = 0.0;
    double outTokPerS = 0.0;
    double promptTokPerS = 0.0;
    /** Submit to the end of the step that decoded the first token, and
     *  between consecutive tokens of a request life. */
    std::vector<double> ttftMs;
    std::vector<double> itlMs;
};

/**
 * Lays round's schedule over the step times costS: each latency is the
 * sum of the step times it spans. On round.stepCostS it gives the
 * latencies the round observed.
 */
ServeFigures serveFigures(const Round &round,
                          const std::vector<double> &costS);

/**
 * Each step's least time over the runs of one schedule: samples[r][k]
 * is step k of run r. Runs need not be of equal length.
 */
std::vector<double>
leastPerStep(const std::vector<std::vector<double>> &samples);

/** The replay trace: fixed lengths with fixed Poisson arrivals (the
 *  replay is a pure function of it, so it takes no seed). */
std::vector<ReplayRequest> makeTrace(const Spec &spec);

/** Outcome of the replay slices (whole sweeps over the grid). */
struct Sweep
{
    std::size_t sweeps = 0;
    std::size_t replays = 0;
    std::size_t completedReplays = 0;
    std::size_t stepsPerSweep = 0;
    std::size_t totalSteps = 0;
    double hostS = 0.0;
    /** Host seconds of each replay of each sweep, in grid order. */
    std::vector<std::vector<double>> replayS;
    bool stepsRepeat = true;
};

/** Whole sweeps for budgetS seconds (at least one), added to sweep. */
void runSweeps(const Spec &spec, const std::vector<ReplayRequest> &trace,
               double budgetS, Perturb perturb, Sweep &sweep);
/** Every replay completed and every sweep took the same steps. */
void checkSweeps(const Sweep &sweep, Checks &checks);

/** Model-level checks: GEMM vs a double reference, solo re-serve. */
void checkCore(const Spec &spec, const serve::Engine &engine,
               std::uint64_t seed, Perturb perturb, Checks &checks);
void checkSolo(const Spec &spec, const Round &round, std::uint64_t seed,
               Perturb perturb, Checks &checks);
/** Simulated TOPS/W grid on the served model's fused decode step. */
struct TopsGrid
{
    std::vector<EngineKind> engines;
    std::vector<int> bits;
    std::vector<std::vector<double>> topsPerW; ///< [engine][bits]
};
TopsGrid topsGrid(const Spec &spec);
void checkTops(const TopsGrid &grid, Perturb perturb, Checks &checks);

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Per-layer metrics of a traced run (probes.cpp). */
std::vector<Metric> probeLayers(const Spec &spec, const Round &round,
                                const Sweep &sweep, std::uint64_t seed);

/** Nearest-rank percentile (p in (0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
