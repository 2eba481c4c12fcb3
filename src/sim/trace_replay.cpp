#include "sim/trace_replay.h"

#include <cmath>

#include "common/logging.h"
#include "serve/scheduler.h"

namespace figlut {

ReplayResult
replayTrace(const OptConfig &model, const HwConfig &hw,
            const ReplayOptions &options,
            const std::vector<ReplayRequest> &trace)
{
    FIGLUT_ASSERT(options.maxBatch > 0,
                  "replayTrace needs maxBatch >= 1, got ",
                  options.maxBatch);
    FIGLUT_ASSERT(options.kvBlockTokens > 0,
                  "replayTrace needs kvBlockTokens >= 1, got ",
                  options.kvBlockTokens);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        // A NaN arrival never compares <= the virtual clock, so the
        // replay would idle towards it forever.
        FIGLUT_ASSERT(std::isfinite(trace[i].arrivalS),
                      "replayTrace request ", i,
                      " has a non-finite arrival ", trace[i].arrivalS);
        FIGLUT_ASSERT(trace[i].outputTokens >= 1,
                      "replayTrace request ", i,
                      " has outputTokens == 0; a replay needs finite ",
                      "decode budgets");
        const Status deadline =
            serve::Scheduler::validateDeadline(trace[i].deadlineS);
        FIGLUT_ASSERT(deadline.ok(), "replayTrace request ", i, ": ",
                      deadline.message());
        FIGLUT_ASSERT(i == 0 ||
                          trace[i - 1].arrivalS <= trace[i].arrivalS,
                      "replayTrace trace must be sorted by arrival: ",
                      "request ", i, " at ", trace[i].arrivalS,
                      " follows ", trace[i - 1].arrivalS);
    }

    ReplayResult result;
    result.requests.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        result.requests[i].arrivalS = trace[i].arrivalS;
        result.requests[i].promptTokens = trace[i].promptTokens;
        result.requests[i].outputTokens = trace[i].outputTokens;
    }

    const Accelerator accelerator(hw);
    WorkloadOptions workload;
    workload.weightBits = options.weightBits;
    workload.includeVector = options.includeVector;
    workload.groupSize = options.groupSize;
    workload.hasOffset = options.hasOffset;

    // The engine's scheduler, over a shadow arena: same geometry,
    // budget, and injector, but blocks are only reserved and released
    // — no token is written, so no slab chunk is materialized.
    serve::SchedulerOptions sched;
    sched.maxBatch = options.maxBatch;
    sched.maxQueue = options.maxQueue;
    sched.prefillChunkTokens = options.prefillChunkTokens;
    sched.policy = options.policy;
    sched.arena.hidden = model.hidden;
    sched.arena.layers = model.layers;
    sched.arena.blockTokens = options.kvBlockTokens;
    sched.arena.budgetBytes = options.kvBudgetBytes;
    sched.faults = options.faults;
    serve::Scheduler scheduler(sched);

    std::vector<std::size_t> traceIndex; ///< scheduler handle -> trace
    traceIndex.reserve(trace.size());
    std::vector<char> started(trace.size(), 0);
    const auto outcome = [&](serve::Scheduler::Handle h)
        -> ReplayRequestResult & {
        return result.requests[traceIndex[h]];
    };

    double simT = 0.0;
    std::size_t next = 0;
    while (true) {
        // Arrivals up to the current virtual time join before the next
        // step, exactly like submits landing between two step() calls;
        // deadlines count from the arrival.
        while (next < trace.size() && trace[next].arrivalS <= simT) {
            serve::RequestOptions request;
            request.maxTokens = trace[next].outputTokens;
            request.promptTokens = trace[next].promptTokens;
            request.deadlineS = trace[next].deadlineS;
            const auto h =
                scheduler.submit(request, trace[next].arrivalS, simT);
            if (h.ok())
                traceIndex.push_back(next);
            else
                result.requests[next].shed = true;
            ++next;
        }
        if (scheduler.activeCount() == 0 && scheduler.queuedCount() == 0) {
            if (next == trace.size())
                break;
            simT = trace[next].arrivalS;
            continue;
        }

        // A dropped or evicted request's recorded tokens belong to a
        // life that did not finish.
        const double t0 = simT;
        const serve::Scheduler::StepPlan &plan = scheduler.planStep(t0);
        for (const serve::Scheduler::Handle h : plan.expired) {
            outcome(h).deadlineMiss = true;
            outcome(h).tokenTimesS.clear();
        }
        for (const serve::Scheduler::Handle h : plan.evicted) {
            outcome(h).evictions += 1;
            outcome(h).tokenTimesS.clear();
        }
        for (const serve::Scheduler::Handle h : plan.shed) {
            outcome(h).shed = true;
            outcome(h).tokenTimesS.clear();
        }
        if (plan.work.empty())
            continue; // governance-only step: nothing recorded

        // Price the ragged mixed prefill/decode batch at the columns'
        // causal contexts — exactly the engine's columnContexts — and
        // advance virtual time by the score.
        workload.batch = plan.columnContexts.size();
        const double stepS =
            accelerator
                .runWorkload(
                    decodeStepWorkload(model, workload, plan.columnContexts))
                .seconds;
        for (const serve::Scheduler::Work &w : plan.work) {
            const std::size_t i = traceIndex[w.handle];
            if (!started[i]) {
                result.requests[i].queueS = t0 - trace[i].arrivalS;
                started[i] = 1;
            }
        }
        simT += stepS;
        for (const serve::Scheduler::Work &w : plan.work) {
            if (w.prefill) {
                result.prefillTokens += w.columns;
            } else {
                result.decodeTokens += 1;
                outcome(w.handle).tokenTimesS.push_back(simT);
            }
        }
        scheduler.completeStep(plan, t0);

        result.stepSeconds.push_back(stepS);
        result.queueDepth.push_back(scheduler.queuedCount());
        ++result.steps;
    }
    result.endS = simT;
    return result;
}

} // namespace figlut
