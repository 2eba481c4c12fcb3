/**
 * @file
 * The serving schedule as one pure state machine: admission, the
 * deadline sweep, chunked prefill assignment, KV reservation, and the
 * degradation transitions (shed / evict-and-requeue) of a
 * continuously batched request stream.
 *
 * serve::Engine and sim::replayTrace() both run this Scheduler; they
 * differ only in their clock and in what a step *does*. The engine
 * executes the planned columns on the host (gather, layers, scatter)
 * under its EngineClock; the replay prices them on sim::Accelerator
 * and advances a virtual clock by the score. The Scheduler itself
 * never reads a clock: every call takes its time explicitly, which is
 * also how the two time bases stay apart — the engine measures
 * deadlines from submit time, the replay from the trace's arrivalS.
 *
 * One step, in order (planStep() then completeStep()):
 *
 *  1. Deadline sweep on the skewed clock (FaultInjector::clockSkewS
 *     of the completed-step index): active requests first, then the
 *     queue, both in order. Expired requests release their KV.
 *  2. FIFO admission into free batch slots (admitSeq bumped,
 *     lastActivityS stamped at the step time).
 *  3. Chunk assignment: a decoding request gets one column; prefilling
 *     requests share the per-step prefill budget in batch order, and
 *     one the budget cannot reach stalls (no columns, no reservation).
 *  4. The reservation pass: each working request, in batch order,
 *     reserves its held + new tokens in the paged arena; a shortfall
 *     (budget or injected fault) resolves through the policy:
 *
 *         Pending --reserve ok--------------------------> Committed
 *         Pending --reserve fails, policy finds victim--> retry
 *                    (victim: Pending -> Evicted | Shed)
 *         Pending --reserve fails, no victim------------> Shed (self)
 *
 *     Committed items are never victims, so the pass terminates; a
 *     Fault degrades exactly like NoCapacity, so even a
 *     fail-every-allocation injector degrades to sheds, not a loop.
 *  5. Transitions: shed requests end (Shed); evicted ones restart
 *     their life from scratch and rejoin the queue FRONT in admission
 *     order, ahead of never-admitted traffic. If no request is left
 *     with work, free slots are refilled at once.
 *
 * completeStep() then advances every working request's life (prefill
 * chunk or one decoded token, lastActivityS = step time), retires the
 * ones that reached their token budget (Finished), and refills the
 * freed slots from the queue.
 *
 * Per-request state is dense, indexed by the Handle submit() returns
 * (0, 1, 2, ... in submit order; rejected submits take none).
 */

#ifndef FIGLUT_SERVE_SCHEDULER_H
#define FIGLUT_SERVE_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "runtime/kv_arena.h"
#include "serve/request.h"

namespace figlut {
namespace serve {

/** What to do with live traffic when the KV budget runs out. */
enum class DegradationPolicy
{
    /**
     * Shed the most recently admitted request among those still
     * un-reserved this step (possibly the requester itself) — drop it
     * terminally with ResourceExhausted. Protects old traffic.
     */
    ShedNewest,
    /**
     * Evict the longest-idle un-reserved request (excluding the
     * requester): release its KV and re-queue it for a from-scratch
     * restart. Sheds the requester only when no victim remains.
     * Trades recompute for admission.
     */
    EvictLongestIdle,
};

/** Stable name of a DegradationPolicy ("shed-newest", ...). */
const char *degradationPolicyName(DegradationPolicy policy);

/** The scheduling knobs (a subset of EngineOptions / ReplayOptions). */
struct SchedulerOptions
{
    std::size_t maxBatch = 8;           ///< live requests per step
    std::size_t maxQueue = 64;          ///< waiting bound; reject beyond
    std::size_t prefillChunkTokens = 0; ///< per-step prompt budget (0 = all)
    DegradationPolicy policy = DegradationPolicy::ShedNewest;
    KvArena::Options arena;             ///< geometry and byte budget
    /** Allocation faults and deadline skew. Not owned. */
    FaultInjector *faults = nullptr;
};

/** The continuous-batching state machine shared by Engine and replay. */
class Scheduler
{
  public:
    using Handle = std::size_t;

    /** One working request of a planned step, in batch order. */
    struct Work
    {
        Handle handle = 0;
        /** GEMM columns this step: its prefill chunk, or 1 to decode. */
        std::size_t columns = 0;
        /** KV entries it held before this step. */
        std::size_t held = 0;
        /** The columns are prompt columns (false: one decode column). */
        bool prefill = false;
    };

    /** What one step does, before it runs. */
    struct StepPlan
    {
        /** The skewed time the deadline sweep ran at. */
        double deadlineNowS = 0.0;
        /** Dropped by the deadline sweep (active first, then queued). */
        std::vector<Handle> expired;
        /** Dropped terminally by the reservation pass, batch order. */
        std::vector<Handle> shed;
        /** Evicted and re-queued by the reservation pass, batch order. */
        std::vector<Handle> evicted;
        /** Requests with columns this step; empty = no work to run. */
        std::vector<Work> work;
        /** Causal context of every column in gather order: a column
         *  at sequence position p attends over p + 1 entries. */
        std::vector<std::size_t> columnContexts;
        /** Requests admitted from the queue while planning. */
        std::size_t admitted = 0;
    };

    explicit Scheduler(const SchedulerOptions &options);

    /** InvalidArgument unless deadlineS is finite and >= 0. */
    static Status validateDeadline(double deadlineS);

    /**
     * Submit a request: admitted at once when a slot is free and
     * nothing waits (FIFO fairness), queued when the queue has room,
     * rejected with ResourceExhausted otherwise; InvalidArgument for a
     * bad deadline. deadlineBaseS is the time its deadline counts
     * from; nowS stamps a direct admission.
     */
    Result<Handle> submit(const RequestOptions &request,
                          double deadlineBaseS, double nowS);

    /** Steps 1-5 of the file comment, at step-start time nowS. The
     *  returned plan stays valid until the next planStep(). */
    const StepPlan &planStep(double nowS);

    /**
     * Run the plan: advance the working requests' lives, retire the
     * finished ones and refill freed slots. onFinish(h) runs for each
     * finished request while its KV sequence is still held (the
     * engine's retained-KV hook). Returns the requests admitted.
     */
    std::size_t completeStep(
        const StepPlan &plan, double nowS,
        const std::function<void(Handle)> &onFinish = {});

    /** Cancel a live (non-terminal) request, releasing its KV. */
    void cancel(Handle h);

    /** Drop a live request's KV and prompt for good, and restart its
     *  token budget. */
    void resetKv(Handle h);

    RequestState state(Handle h) const { return records_[h].state; }
    /** KV entries held: prefilled + decoded in the current life. */
    std::size_t heldTokens(Handle h) const
    {
        return records_[h].prefilled + records_[h].decoded;
    }
    /** Prompt tokens still to prefill in the current life. */
    std::size_t remainingPrompt(Handle h) const;
    /** The request's arena sequence (kInvalidSeq when it holds none). */
    KvArena::SeqId sequence(Handle h) const { return records_[h].seq; }

    /** Requests in the batch (stalled prefills included). */
    std::size_t activeCount() const { return active_.size(); }
    std::size_t queuedCount() const { return queue_.size(); }
    /** The wait queue, next admission first. */
    const std::deque<Handle> &queue() const { return queue_; }
    /** Steps completed (steps that ran work); the skew step index. */
    std::size_t stepsCompleted() const { return steps_; }

    KvArena &arena() { return arena_; }
    const KvArena &arena() const { return arena_; }

    /**
     * Column contexts of the step the next planStep() would run if
     * nothing expired or was denied KV: the active requests plus the
     * queued ones that fit, through the same chunk assignment.
     */
    std::vector<std::size_t> prospectiveColumnContexts() const;

  private:
    /** The scheduling record of one request. */
    struct Record
    {
        RequestState state = RequestState::Queued;
        /** Admission counter value of the latest (re-)admission. */
        std::uint64_t admitSeq = 0;
        /** Step-start time of the last step that worked on it
         *  (admission time until then) — the eviction idle key. */
        double lastActivityS = 0.0;
        KvArena::SeqId seq = KvArena::kInvalidSeq;
        std::size_t prefilled = 0; ///< current life
        std::size_t decoded = 0;   ///< current life
        std::size_t promptTokens = 0;
        std::size_t maxTokens = 0; ///< 0 = unbounded
        double deadlineS = 0.0;    ///< 0 = none
        double deadlineBaseS = 0.0;
    };

    void admit(Handle h, double nowS);
    std::size_t admitFromQueue(double nowS);
    void release(Record &r);
    void sweepDeadlines(double nowS, std::vector<Handle> &expired);
    /** Chunk assignment, reservation pass and transitions. */
    void reserve(StepPlan &plan);

    SchedulerOptions options_;
    KvArena arena_;
    std::vector<Record> records_;
    std::vector<Handle> active_;
    std::deque<Handle> queue_;
    std::uint64_t admitCounter_ = 0;
    std::size_t steps_ = 0;
    StepPlan plan_;
    /** Per-step scratch of the reservation pass (kept for reuse). */
    std::vector<std::size_t> chunks_;
    std::vector<std::size_t> itemSlots_;
    std::vector<unsigned char> fate_;
};

} // namespace serve
} // namespace figlut

#endif // FIGLUT_SERVE_SCHEDULER_H
