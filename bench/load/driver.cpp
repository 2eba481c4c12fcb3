#include "load/driver.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "sim/trace_replay.h"

namespace figlut::bench {

LoadRun
runMeasured(const LoadConfig &config,
            const std::vector<TraceRequest> &trace)
{
    serve::SteadyClock clock;
    serve::EngineOptions options = config.engine;
    options.clock = &clock;
    auto created = serve::Engine::create(config.model, options);
    if (!created.ok())
        fatal("runMeasured cannot build the engine: ",
              created.status().toString());
    serve::Engine &engine = *created.value();

    LoadRun run;
    run.requests.resize(trace.size());
    std::unordered_map<serve::RequestId, std::size_t> indexOf;
    indexOf.reserve(trace.size());

    std::mutex mu;
    std::atomic<bool> submitterDone{false};
    const double startS = clock.now();

    // The submitter releases each arrival at its trace time; the step
    // loop below owns the engine between arrivals. Everything engine-
    // touching happens under the one mutex (single-client contract).
    std::thread submitter([&] {
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const double targetS = startS + trace[i].arrivalS;
            while (clock.now() < targetS)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
            serve::RequestOptions request;
            request.maxTokens = trace[i].outputTokens;
            request.promptTokens = trace[i].promptTokens;
            request.seed = trace[i].seed;
            request.deadlineS = config.deadlineS;
            std::lock_guard<std::mutex> lock(mu);
            RequestOutcome &outcome = run.requests[i];
            outcome.arrivalS = targetS;
            outcome.promptTokens = trace[i].promptTokens;
            outcome.outputTokens = trace[i].outputTokens;
            const auto id = engine.submit(request);
            if (id.ok())
                indexOf.emplace(id.value(), i);
            else
                outcome.shed = true;
        }
        submitterDone.store(true, std::memory_order_release);
    });

    // Step whenever there is work; drain after the last arrival.
    while (true) {
        std::unique_lock<std::mutex> lock(mu);
        if (engine.liveRequests() == 0 &&
            engine.queuedRequests() == 0) {
            const bool done =
                submitterDone.load(std::memory_order_acquire);
            lock.unlock();
            if (done)
                break;
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            continue;
        }
        const auto stats = engine.step();
        if (!stats.ok())
            fatal("runMeasured step failed: ",
                  stats.status().toString());
        const double nowS = clock.now();
        const serve::StepStats &step = stats.value();
        // Governance outcomes first: an evicted request restarts from
        // scratch (its recorded tokens are discarded, like the
        // engine's own resetKv), shed/deadline drops are terminal.
        for (const serve::RequestId id : step.evictedIds) {
            RequestOutcome &outcome = run.requests[indexOf.at(id)];
            outcome.tokenTimesS.clear();
            outcome.evictions += 1;
        }
        for (const serve::RequestId id : step.shedIds) {
            RequestOutcome &outcome = run.requests[indexOf.at(id)];
            outcome.tokenTimesS.clear();
            outcome.shed = true;
        }
        for (const serve::RequestId id : step.deadlineIds) {
            RequestOutcome &outcome = run.requests[indexOf.at(id)];
            outcome.tokenTimesS.clear();
            outcome.deadlineMiss = true;
        }
        for (const serve::RequestId id : step.decodedIds)
            run.requests[indexOf.at(id)].tokenTimesS.push_back(nowS);
        // Governance-only steps (every working column shed/evicted/
        // expired) do nothing and are not recorded, matching the
        // replay. Pure-prefill steps are real work and are recorded.
        if (step.prefillTokens + step.decodeTokens > 0) {
            run.prefillTokens += step.prefillTokens;
            run.decodeTokens += step.decodeTokens;
            run.queueDepth.push_back(step.queueDepth);
            run.stepSeconds.push_back(step.seconds);
        }
    }
    submitter.join();

    // Queue wait and TTFT from the engine's own timing hooks.
    for (const auto &[id, i] : indexOf) {
        const auto snapshot = engine.poll(id);
        if (!snapshot.ok())
            continue;
        run.requests[i].queueS = snapshot.value().stats.queueSeconds;
        run.requests[i].ttftS = snapshot.value().stats.ttftSeconds;
    }
    return run;
}

LoadRun
runSimulated(const LoadConfig &config,
             const std::vector<TraceRequest> &trace)
{
    std::vector<ReplayRequest> replay;
    replay.reserve(trace.size());
    for (const TraceRequest &request : trace)
        replay.push_back(ReplayRequest{request.arrivalS,
                                       request.promptTokens,
                                       request.outputTokens,
                                       config.deadlineS});
    ReplayOptions options;
    options.maxBatch = config.engine.maxBatch;
    options.maxQueue = config.engine.maxQueue;
    options.weightBits = config.engine.model.weightBits;
    options.includeVector = config.engine.includeVector;
    options.groupSize = config.engine.model.groupSize;
    options.hasOffset = config.engine.model.useOffset;
    options.kvBudgetBytes = config.engine.kvBudgetBytes;
    options.kvBlockTokens = config.engine.kvBlockTokens;
    options.prefillChunkTokens = config.engine.prefillChunkTokens;
    options.policy = config.engine.policy;
    options.faults = config.engine.faults;
    const ReplayResult result =
        replayTrace(config.model, config.hw, options, replay);

    LoadRun run;
    run.requests.resize(result.requests.size());
    for (std::size_t i = 0; i < result.requests.size(); ++i) {
        const ReplayRequestResult &r = result.requests[i];
        RequestOutcome &outcome = run.requests[i];
        outcome.arrivalS = r.arrivalS;
        outcome.promptTokens = r.promptTokens;
        outcome.outputTokens = r.outputTokens;
        outcome.shed = r.shed;
        outcome.deadlineMiss = r.deadlineMiss;
        outcome.evictions = r.evictions;
        outcome.queueS = r.queueS;
        outcome.tokenTimesS = r.tokenTimesS;
        if (!r.tokenTimesS.empty())
            outcome.ttftS = r.tokenTimesS.front() - r.arrivalS;
    }
    run.queueDepth = result.queueDepth;
    run.stepSeconds = result.stepSeconds;
    run.prefillTokens = result.prefillTokens;
    run.decodeTokens = result.decodeTokens;
    return run;
}

} // namespace figlut::bench
