#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

void
Checks::expect(bool ok, const std::string &what)
{
    ++run;
    if (!ok) {
        ++failed;
        if (failures.size() < 16)
            failures.push_back(what);
    }
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double>
leastPerStep(const std::vector<std::vector<double>> &samples)
{
    std::vector<double> out;
    for (const auto &run : samples)
        for (std::size_t k = 0; k < run.size(); ++k)
            if (k < out.size())
                out[k] = std::min(out[k], run[k]);
            else
                out.push_back(run[k]);
    return out;
}

ServeFigures
serveFigures(const Round &round, const std::vector<double> &costS)
{
    // endS[k] is when step k ended, counted from the round's start.
    std::vector<double> endS(costS.size());
    double t = 0.0;
    for (std::size_t k = 0; k < costS.size(); ++k)
        endS[k] = t += costS[k];
    ServeFigures f;
    if (t <= 0.0)
        return f;
    f.seconds = t;
    f.outTokPerS = static_cast<double>(round.outTokens) / t;
    f.promptTokPerS = static_cast<double>(round.promptTokens) / t;
    for (const auto &[submit, first] : round.schedule.ttft)
        f.ttftMs.push_back(1e3 *
                           (endS[first] - (submit ? endS[submit - 1] : 0.0)));
    for (const auto &[from, to] : round.schedule.gaps)
        f.itlMs.push_back(1e3 * (endS[to] - endS[from]));
    return f;
}

namespace {

/** count values evenly spaced over [lo, hi], shuffled by rng. */
std::vector<std::size_t>
spread(std::size_t lo, std::size_t hi, std::size_t count, Rng &rng)
{
    std::vector<std::size_t> v(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = count == 1 ? lo : lo + (hi - lo) * i / (count - 1);
    for (std::size_t i = count; i > 1; --i)
        std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniformInt(
                               0, static_cast<std::int64_t>(i - 1)))]);
    return v;
}

} // namespace

std::vector<RequestPlan>
makePlans(const Spec &spec, std::uint64_t seed, std::size_t count)
{
    Rng order(0x5EEDULL + count);
    const auto prompts =
        spread(spec.promptMin, spec.promptMax, count, order);
    const auto outs = spread(spec.outMin, spec.outMax, count, order);
    Rng inputs(seed ^ 0xA5A5A5A5A5A5A5A5ULL);
    std::vector<RequestPlan> plans(count);
    for (std::size_t i = 0; i < count; ++i) {
        plans[i].prompt = prompts[i];
        plans[i].output = outs[i];
        plans[i].seed = inputs.next();
    }
    return plans;
}

std::vector<ReplayRequest>
makeTrace(const Spec &spec)
{
    const auto plans = makePlans(spec, 0, spec.replayRequests);
    Rng rng(0xA331ULL);
    std::vector<ReplayRequest> trace(plans.size());
    double t = 0.0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        t += -std::log(1.0 - rng.uniform()) / spec.arrivalsPerS;
        trace[i].arrivalS = t;
        trace[i].promptTokens = plans[i].prompt;
        trace[i].outputTokens = plans[i].output;
    }
    return trace;
}

serve::EngineOptions
engineOptions(const Spec &spec, std::uint64_t seed)
{
    serve::EngineOptions opts;
    opts.model.weightBits = spec.bits;
    opts.model.seed = seed;
    opts.maxBatch = spec.maxBatch;
    opts.maxQueue = spec.clients;
    opts.prefillChunkTokens = spec.prefillChunk;
    opts.kvBudgetBytes = spec.kvBudgetBytes();
    opts.policy = spec.policy;
    // One GEMM worker: on a shared VM, fanning the GEMMs out over every
    // vCPU draws hypervisor steal that swings whole runs by up to 4x.
    opts.exec.threads = 1;
    return opts;
}

namespace {

/** The benchmark's own view of one in-flight request. */
struct Tracked
{
    RequestPlan plan;
    std::size_t client = 0;
    std::size_t lifeTokens = 0;  ///< decoded in the current life
    std::size_t totalTokens = 0; ///< decoded across lives
    std::size_t prefillBase = 0; ///< cumulative prefill at last eviction
    std::size_t submitAfter = 0; ///< steps completed at submit
    std::size_t firstToken = 0;  ///< step of the first token ever
    std::size_t lastToken = 0;   ///< step of the latest token
};

/** Table I read count of one fused step of width w (all layers). */
std::uint64_t
expectedReads(const Spec &spec, std::size_t w, int mu)
{
    const std::uint64_t h = spec.model.hidden;
    const std::uint64_t f = spec.model.ffn;
    const std::uint64_t mn = 3 * h * h + h * h + f * h + h * f;
    return spec.model.layers * mn * w * static_cast<std::uint64_t>(
                                            spec.bits) /
           static_cast<std::uint64_t>(mu);
}

} // namespace

Round
serveRound(const Spec &spec, const std::vector<RequestPlan> &plans,
           std::uint64_t seed, bool trace, Perturb perturb, Checks &checks)
{
    Round round;
    const serve::EngineOptions opts = engineOptions(spec, seed);
    const double c0 = cpuS();
    auto created = serve::Engine::create(spec.model, opts);
    round.setupS = cpuS() - c0;
    checks.expect(created.ok(),
                  "engine create: " + created.status().toString());
    if (!created.ok())
        return round;
    round.engine = std::move(created.value());
    serve::Engine &eng = *round.engine;
    const int mu = opts.model.mu + (perturb == Perturb::LutReads ? 1 : 0);

    std::unordered_map<serve::RequestId, Tracked> live;
    std::size_t next = 0;
    auto submitNext = [&](std::size_t client) {
        if (next >= plans.size())
            return;
        const RequestPlan &plan = plans[next++];
        serve::RequestOptions req;
        req.maxTokens = plan.output;
        req.promptTokens = plan.prompt;
        req.seed = plan.seed;
        ++round.attempted;
        auto id = eng.submit(req);
        if (!id.ok()) {
            ++round.failed;
            return;
        }
        Tracked t;
        t.plan = plan;
        t.client = client;
        t.submitAfter = round.schedule.steps;
        live[id.value()] = t;
    };
    auto drop = [&](serve::RequestId id) {
        const auto it = live.find(id);
        if (it == live.end())
            return;
        const auto snap = eng.poll(id);
        round.shedPrefill +=
            snap.value().stats.prefillTokens - it->second.prefillBase;
        const std::size_t client = it->second.client;
        live.erase(it);
        ++round.failed;
        submitNext(client);
    };

    double prevEnd = cpuS();
    for (std::size_t c = 0; c < spec.clients; ++c)
        submitNext(c);
    std::size_t retired = 0;
    while (eng.liveRequests() + eng.queuedRequests() > 0) {
        const std::size_t k = round.schedule.steps++;
        const double s0 = cpuS();
        auto stepped = eng.step();
        const double s1 = cpuS();
        round.stepCostS.push_back(s1 - prevEnd);
        prevEnd = s1;
        if (!stepped.ok()) {
            checks.expect(false, "step: " + stepped.status().toString());
            break;
        }
        const serve::StepStats &st = stepped.value();
        retired += st.retired;
        const std::size_t width = st.prefillTokens + st.decodeTokens;
        if (width > 0) {
            StepRecord rec;
            rec.callS = s1 - s0;
            rec.engineS = st.seconds;
            rec.width = width;
            rec.lutReads = st.counters.lutReads;
            if (trace)
                rec.contexts = st.columnContexts;
            checks.expect(rec.lutReads == expectedReads(spec, width, mu),
                          "step lut reads differ from M*N*W*q/mu at width " +
                              std::to_string(width));
            round.prefillTokens += st.prefillTokens;
            round.steps.push_back(std::move(rec));
        }
        for (const serve::RequestId id : st.evictedIds) {
            Tracked &t = live.at(id);
            const auto snap = eng.poll(id);
            const std::size_t cum = snap.value().stats.prefillTokens;
            round.recomputed += cum - t.prefillBase;
            t.prefillBase = cum;
            t.lifeTokens = 0;
            ++round.evictions;
        }
        round.shed += st.shedIds.size();
        for (const serve::RequestId id : st.shedIds)
            drop(id);
        for (const serve::RequestId id : st.deadlineIds)
            drop(id);
        for (const serve::RequestId id : st.decodedIds) {
            Tracked &t = live.at(id);
            if (t.lifeTokens > 0)
                round.schedule.gaps.emplace_back(t.lastToken, k);
            if (t.totalTokens == 0)
                t.firstToken = k;
            t.lastToken = k;
            ++t.lifeTokens;
            ++t.totalTokens;
            if (t.lifeTokens < t.plan.output)
                continue;
            const auto snap = eng.poll(id);
            const serve::RequestStats &rs = snap.value().stats;
            const std::size_t expected =
                t.plan.output + (perturb == Perturb::Budget ? 1 : 0);
            checks.expect(snap.value().state ==
                                  serve::RequestState::Finished &&
                              t.lifeTokens == expected &&
                              rs.tokensDecoded == t.totalTokens,
                          "request " + std::to_string(id) +
                              " did not decode exactly its budget");
            const std::size_t prompt =
                t.plan.prompt + (perturb == Perturb::FinalPrefill ? 1 : 0);
            checks.expect(rs.prefillTokens - t.prefillBase == prompt,
                          "request " + std::to_string(id) +
                              " final life prefilled a partial prompt");
            round.schedule.ttft.emplace_back(t.submitAfter, t.firstToken);
            round.queueS.push_back(rs.queueSeconds);
            round.outTokens += t.plan.output;
            round.promptTokens += t.plan.prompt;
            ++round.completed;
            round.done.push_back({id, t.plan});
            const std::size_t client = t.client;
            live.erase(id);
            submitNext(client);
        }
    }
    round.kvPeakBytes = eng.arena().peakBytes();

    round.failed += live.size();
    checks.expect(live.empty() && round.completed + round.failed ==
                                      plans.size(),
                  "round left " + std::to_string(live.size()) +
                      " requests unfinished");
    checks.expect(round.failed == round.shed &&
                      (spec.kvBudgetBlocks > 0 || round.shed == 0),
                  std::to_string(round.failed - round.shed) +
                      " requests failed other than by a budget shed");
    const std::size_t retireDrift =
        perturb == Perturb::RetireCount ? 1 : 0;
    checks.expect(retired == round.completed + retireDrift,
                  "engine retired count differs from completed requests");
    const std::size_t drift = perturb == Perturb::PrefillSum ? 1 : 0;
    checks.expect(round.prefillTokens == round.promptTokens +
                                             round.recomputed +
                                             round.shedPrefill + drift,
                  "prefill tokens differ from prompt + recomputed tokens");
    return round;
}

} // namespace perfbench
