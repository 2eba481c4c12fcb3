/**
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload in this process: closed-loop serving rounds, each
 * on a fresh engine and each followed by a slice of whole replay
 * sweeps, then the correctness checks. Prints a summary on stderr and,
 * as the last line of stdout, one JSON object with the operation
 * counts and the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1). Exits non-zero when a check failed. Requests
 * shed by the known budget fault (see README) are counted in "failed"
 * without failing a check. --perturb <name> feeds one check a
 * deliberately wrong input (see selftest.py).
 */

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace perfbench {

namespace {

OptConfig
servedModel()
{
    OptConfig m;
    m.name = "serve-h128-l2";
    m.hidden = 128;
    m.layers = 2;
    m.heads = 4;
    m.ffn = 512;
    return m;
}

std::vector<Spec>
makeSpecs()
{
    std::vector<Spec> specs;

    Spec chat;
    chat.name = "chat-decode";
    chat.model = servedModel();
    chat.bits = 4;
    chat.clients = 16;
    chat.maxBatch = 8;
    chat.promptMin = 8, chat.promptMax = 32;
    chat.outMin = 48, chat.outMax = 96;
    chat.requestsPerRound = 32;
    chat.serveShare = 0.85;
    chat.replayRequests = 32;
    chat.arrivalsPerS = 2e4;
    chat.engines = {EngineKind::FIGLUT_I};
    chat.gridBits = {4};
    specs.push_back(chat);

    Spec doc;
    doc.name = "longdoc-budget";
    doc.model = servedModel();
    doc.bits = 3;
    doc.clients = 8;
    doc.maxBatch = 4;
    doc.promptMin = 128, doc.promptMax = 256;
    doc.outMin = 32, doc.outMax = 64;
    doc.requestsPerRound = 12;
    doc.prefillChunk = 64;
    doc.kvBudgetBlocks = 115;
    doc.policy = serve::DegradationPolicy::EvictLongestIdle;
    doc.serveShare = 0.9;
    doc.replayRequests = 12;
    doc.arrivalsPerS = 2e3;
    doc.engines = {EngineKind::FIGLUT_I};
    doc.gridBits = {3};
    specs.push_back(doc);

    Spec sweep;
    sweep.name = "replay-sweep";
    sweep.model = servedModel();
    sweep.bits = 4;
    sweep.clients = 16;
    sweep.maxBatch = 8;
    sweep.promptMin = 16, sweep.promptMax = 64;
    sweep.outMin = 8, sweep.outMax = 24;
    sweep.requestsPerRound = 16;
    sweep.prefillChunk = 64;
    sweep.serveShare = 0.3;
    sweep.replayRequests = 256;
    sweep.arrivalsPerS = 5e3;
    sweep.engines.assign(std::begin(kAllEngines), std::end(kAllEngines));
    sweep.gridBits = {2, 3, 4};
    specs.push_back(sweep);
    return specs;
}

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> all = makeSpecs();
    return all;
}

} // namespace

const Spec *
findSpec(const std::string &name)
{
    for (const Spec &s : specs())
        if (s.name == name)
            return &s;
    return nullptr;
}

std::string
specNames()
{
    std::string out;
    for (const Spec &s : specs())
        out += (out.empty() ? "" : ", ") + s.name;
    return out;
}

bool
parsePerturb(const std::string &name, Perturb *out)
{
    static const std::pair<const char *, Perturb> table[] = {
        {"core-reference", Perturb::CoreReference},
        {"solo-seed", Perturb::SoloSeed},
        {"budget", Perturb::Budget},
        {"prefill-sum", Perturb::PrefillSum},
        {"lut-reads", Perturb::LutReads},
        {"replay-queue", Perturb::ReplayQueue},
        {"replay-steps", Perturb::ReplaySteps},
        {"tops-order", Perturb::TopsOrder},
        {"tops-best", Perturb::TopsBest},
        {"schedule", Perturb::Schedule},
        {"retire-count", Perturb::RetireCount},
        {"final-prefill", Perturb::FinalPrefill},
    };
    for (const auto &[n, p] : table)
        if (name == n) {
            *out = p;
            return true;
        }
    return false;
}

namespace {

/** Engine builds timed before the serving rounds (set-up samples). */
constexpr int kSetupBuilds = 8;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Perturb perturb = Perturb::None;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <" << specNames()
              << "> --seed <n> --seconds <s> --trace <0|1>"
                 " [--perturb <name>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--perturb") {
            if (!parsePerturb(v, &a.perturb))
                usage(("unknown perturbation " + v).c_str());
        } else
            usage(("unknown flag " + flag).c_str());
    }
    if (findSpec(a.workload) == nullptr)
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(12);
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    os << "}";
    return os.str();
}

void
printFigures(const std::string &what, const ServeFigures &f)
{
    std::cerr << what << ": " << f.seconds << " s, tok/s " << f.outTokPerS
              << " prompt " << f.promptTokPerS << ", ttft p50/p90 "
              << percentile(f.ttftMs, 50) << " " << percentile(f.ttftMs, 90)
              << " ms, itl p50/p99 " << percentile(f.itlMs, 50) << " "
              << percentile(f.itlMs, 99) << " ms\n";
}

} // namespace

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Spec &spec = *findSpec(args.workload);
    const auto plans = makePlans(spec, args.seed, spec.requestsPerRound);
    const auto trace = makeTrace(spec);
    Checks checks;

    // Set-up: Engine::create (quantize + pack the model) a few times on
    // its own; every round's create adds one more sample.
    std::vector<double> setup;
    for (int i = 0; i < kSetupBuilds; ++i) {
        const double t0 = cpuS();
        auto e = serve::Engine::create(spec.model,
                                       engineOptions(spec, args.seed));
        setup.push_back(cpuS() - t0);
        checks.expect(e.ok(), "engine create: " + e.status().toString());
    }

    // Whole closed-loop rounds, each on a fresh engine, each followed
    // by a slice of whole replay sweeps: at least two, so the schedule
    // check has a pair, and more while the next round and its slice
    // still fit --seconds. Interleaving spreads the samples of every
    // metric over the whole run.
    const double sliceRatio = (1.0 - spec.serveShare) / spec.serveShare;
    // The schedule perturbation serves round 2 a different request mix.
    std::vector<RequestPlan> altered = plans;
    altered.front().output += 1;
    std::vector<std::vector<double>> stepCosts;
    std::size_t rounds = 0, attempted = 0, completed = 0, failed = 0;
    std::size_t shed = 0;
    Round last;
    Sweep sweep;
    // Peak RSS after round 2, which every run serves: it creeps up with
    // each round after, so a run that fits more rounds would read higher.
    double rss = 0.0;
    const double p0 = nowS();
    do {
        last.engine.reset(); // one engine alive at a time
        const double r0 = nowS();
        Round r = serveRound(
            spec,
            rounds == 1 && args.perturb == Perturb::Schedule ? altered
                                                              : plans,
            args.seed, args.trace,
            rounds == 0 ? args.perturb : Perturb::None, checks);
        ++rounds;
        setup.push_back(r.setupS);
        attempted += r.attempted;
        completed += r.completed;
        failed += r.failed;
        shed += r.shed;
        if (r.engine == nullptr)
            break;
        checks.expect(rounds == 1 || r.schedule == last.schedule,
                      "round " + std::to_string(rounds) +
                          " took another schedule than round 1");
        stepCosts.push_back(r.stepCostS);
        printFigures("round " + std::to_string(rounds),
                     serveFigures(r, r.stepCostS));
        last = std::move(r);
        if (rounds == 2)
            rss = peakRssMiB();
        runSweeps(spec, trace, (nowS() - r0) * sliceRatio, args.perturb,
                  sweep);
    } while (rounds < 2 ||
             nowS() - p0 + (nowS() - p0) / static_cast<double>(rounds) <=
                 args.seconds);

    // Every round runs one schedule and every sweep one grid, so the run
    // times each step (replay) once per round (sweep). The metrics are
    // computed from each one's least time: other tenants of the host
    // slow it for stretches of milliseconds to seconds, which leave most
    // steps of a round undisturbed but few rounds whole.
    const ServeFigures steady = serveFigures(last, leastPerStep(stepCosts));
    printFigures("least per step", steady);
    double sweepS = 0.0;
    for (const double s : leastPerStep(sweep.replayS))
        sweepS += s;
    checkSweeps(sweep, checks);

    if (last.engine != nullptr) {
        checkCore(spec, *last.engine, args.seed, args.perturb, checks);
        checkSolo(spec, last, args.seed, args.perturb, checks);
    }
    const TopsGrid grid = topsGrid(spec);
    checkTops(grid, args.perturb, checks);

    std::vector<Metric> e2e = {
        {"setup_s", median(setup), "s"},
        {"out_tok_per_s", steady.outTokPerS, "tok/s"},
        {"prompt_tok_per_s", steady.promptTokPerS, "tok/s"},
        {"ttft_p50_ms", percentile(steady.ttftMs, 50), "ms"},
        {"ttft_p90_ms", percentile(steady.ttftMs, 90), "ms"},
        {"itl_p50_ms", percentile(steady.itlMs, 50), "ms"},
        {"itl_p99_ms", percentile(steady.itlMs, 99), "ms"},
        {"peak_rss_mb", rss, "MiB"},
        {"sim_steps_per_s",
         sweepS > 0.0 ? static_cast<double>(sweep.stepsPerSweep) / sweepS
                      : 0.0,
         "steps/s"},
    };

    std::uint64_t reads = 0;
    for (const StepRecord &s : last.steps)
        reads += s.lutReads;
    std::cerr << "workload " << spec.name << " seed " << args.seed
              << " rounds " << rounds << " ("
              << last.schedule.ttft.size() << " TTFT and "
              << last.schedule.gaps.size()
              << " ITL samples per round)"
              << "\nrequests attempted " << attempted
              << " completed " << completed << " failed " << failed
              << " (shed " << shed << ", deadline or error " << failed - shed
              << ")\nreplays attempted " << sweep.replays << " completed "
              << sweep.completedReplays << " (" << sweep.sweeps
              << " sweeps)\nchecks run " << checks.run << " failed "
              << checks.failed << "\ncounts serve.steps=" << last.steps.size()
              << " core.lut_reads=" << reads
              << " serve.evictions=" << last.evictions
              << " sim.steps=" << sweep.stepsPerSweep << "\n";
    for (const std::string &f : checks.failures)
        std::cerr << "check failed: " << f << "\n";
    std::cerr << "TOPS/W on the fused decode step (engine x q):\n";
    for (std::size_t e = 0; e < grid.engines.size(); ++e) {
        std::cerr << "  " << engineName(grid.engines[e]);
        for (std::size_t b = 0; b < grid.bits.size(); ++b)
            std::cerr << "  q" << grid.bits[b] << "="
                      << grid.topsPerW[e][b];
        std::cerr << "\n";
    }
    for (const Metric &m : e2e)
        std::cerr << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";

    std::vector<Metric> metrics = e2e;
    if (args.trace && last.engine != nullptr) {
        metrics = probeLayers(spec, last, sweep, args.seed);
        for (const Metric &m : metrics)
            std::cerr << "  " << m.name << " = " << m.value << " "
                      << m.unit << "\n";
    }

    const bool correct = checks.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": " << jsonMetrics(metrics) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
