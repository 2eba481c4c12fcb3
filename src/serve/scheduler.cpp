#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>

namespace figlut {
namespace serve {

namespace {

constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

/**
 * Chunk assignment, in place: cols[i] enters as the prompt tokens
 * batch item i still has to prefill (0 = it is decoding) and leaves as
 * its column count this step. A decoding item always gets 1 column and
 * never consumes the budget — chunking bounds prompt work per step
 * precisely so long prompts cannot starve live decoders. Prefilling
 * items share chunkTokens (0 = unbounded) in batch order, so one late
 * in the batch can be assigned 0 and stalls this step.
 */
void
planPrefillChunks(std::vector<std::size_t> &cols, std::size_t chunkTokens)
{
    std::size_t budget = chunkTokens == 0 ? kUnbounded : chunkTokens;
    for (std::size_t &c : cols) {
        if (c == 0) {
            c = 1;
            continue;
        }
        c = std::min(c, budget);
        budget -= c;
    }
}

/** One working request's view of the reservation pass. */
struct ReservationItem
{
    KvArena::SeqId seq = KvArena::kInvalidSeq;
    /** Token slots per layer this step needs block-backed. */
    std::size_t needTokens = 0;
    /** The EvictLongestIdle key. */
    double lastActivityS = 0.0;
    /** The ShedNewest key and the idle tie-break. */
    std::uint64_t admitSeq = 0;
};

enum Fate : unsigned char
{
    kPending,
    kCommitted,
    kEvicted,
    kShed,
};

constexpr std::size_t kNoVictim = kUnbounded;

/**
 * Pick the item that gives up its blocks so item i can reserve.
 * Pending items are the only candidates: earlier items already
 * resolved (committed blocks are never clawed back), so a candidate
 * is always i itself or a later batch column — which is what makes
 * the pass terminate.
 */
std::size_t
pickVictim(DegradationPolicy policy, const std::vector<unsigned char> &fate,
           const std::vector<ReservationItem> &items, std::size_t i)
{
    std::size_t victim = kNoVictim;
    for (std::size_t j = 0; j < items.size(); ++j) {
        if (fate[j] != kPending)
            continue;
        switch (policy) {
          case DegradationPolicy::ShedNewest:
            // Most recently admitted, the requester included.
            if (victim == kNoVictim ||
                items[j].admitSeq > items[victim].admitSeq)
                victim = j;
            break;
          case DegradationPolicy::EvictLongestIdle:
            // Longest idle *other* request; newest admission breaks
            // ties so the re-queue order stays deterministic.
            if (j == i)
                break;
            if (victim == kNoVictim ||
                items[j].lastActivityS < items[victim].lastActivityS ||
                (items[j].lastActivityS == items[victim].lastActivityS &&
                 items[j].admitSeq > items[victim].admitSeq))
                victim = j;
            break;
        }
    }
    return victim;
}

/**
 * The reservation pass: for each item in batch order, reserve its
 * needTokens, resolving NoCapacity/Fault through the policy until the
 * item commits or sheds. Releases every victim's and every shed
 * item's sequence. fate[i] receives each item's outcome.
 */
void
planStepReservations(KvArena &arena, DegradationPolicy policy,
                     const std::vector<ReservationItem> &items,
                     std::vector<unsigned char> &fate)
{
    fate.assign(items.size(), kPending);
    for (std::size_t i = 0; i < items.size(); ++i) {
        while (fate[i] == kPending) {
            if (arena.reserveTokens(items[i].seq, items[i].needTokens) ==
                KvArena::Reserve::Ok) {
                fate[i] = kCommitted;
                break;
            }
            // NoCapacity and an injected Fault degrade identically:
            // treating a fault as retryable would loop forever under a
            // fail-every-allocation injector.
            const std::size_t victim = pickVictim(policy, fate, items, i);
            if (victim == kNoVictim || victim == i) {
                // No one left to sacrifice (or the requester is the
                // sacrifice): shed i itself.
                arena.releaseSequence(items[i].seq);
                fate[i] = kShed;
                break;
            }
            arena.releaseSequence(items[victim].seq);
            fate[victim] = policy == DegradationPolicy::ShedNewest
                               ? kShed
                               : kEvicted;
        }
    }
}

} // namespace

const char *
degradationPolicyName(DegradationPolicy policy)
{
    switch (policy) {
      case DegradationPolicy::ShedNewest: return "shed-newest";
      case DegradationPolicy::EvictLongestIdle: return "evict-idle";
    }
    return "unknown";
}

Scheduler::Scheduler(const SchedulerOptions &options)
    : options_(options), arena_(options.arena, options.faults)
{}

Status
Scheduler::validateDeadline(double deadlineS)
{
    // The negated form also rejects NaN, which compares false with
    // everything and would otherwise expire on the first step.
    if (!(std::isfinite(deadlineS) && deadlineS >= 0.0))
        return Status::invalidArgument(
            "request deadlineS must be finite and >= 0, got ", deadlineS);
    return Status::okStatus();
}

Result<Scheduler::Handle>
Scheduler::submit(const RequestOptions &request, double deadlineBaseS,
                  double nowS)
{
    if (Status s = validateDeadline(request.deadlineS); !s.ok())
        return s;
    // A new request only bypasses the queue when the queue is empty —
    // earlier submits waiting for a slot keep their FIFO position even
    // if a cancellation just freed one (the next step admits them).
    const bool direct =
        active_.size() < options_.maxBatch && queue_.empty();
    if (!direct && queue_.size() >= options_.maxQueue)
        return Status::resourceExhausted(
            "engine at capacity: ", active_.size(), " live (maxBatch ",
            options_.maxBatch, ") and ", queue_.size(),
            " queued (maxQueue ", options_.maxQueue,
            "); retry after step() retires traffic");

    const Handle h = records_.size();
    Record r;
    r.promptTokens = request.promptTokens;
    r.maxTokens = request.maxTokens;
    r.deadlineS = request.deadlineS;
    r.deadlineBaseS = deadlineBaseS;
    records_.push_back(r);
    if (direct)
        admit(h, nowS);
    else
        queue_.push_back(h);
    return h;
}

void
Scheduler::admit(Handle h, double nowS)
{
    Record &r = records_[h];
    r.state = RequestState::Active;
    r.admitSeq = ++admitCounter_;
    r.lastActivityS = nowS;
    active_.push_back(h);
}

std::size_t
Scheduler::admitFromQueue(double nowS)
{
    std::size_t admitted = 0;
    while (active_.size() < options_.maxBatch && !queue_.empty()) {
        const Handle h = queue_.front();
        queue_.pop_front();
        admit(h, nowS);
        ++admitted;
    }
    return admitted;
}

void
Scheduler::release(Record &r)
{
    if (r.seq == KvArena::kInvalidSeq)
        return;
    arena_.releaseSequence(r.seq);
    r.seq = KvArena::kInvalidSeq;
}

std::size_t
Scheduler::remainingPrompt(Handle h) const
{
    const Record &r = records_[h];
    return r.promptTokens > r.prefilled ? r.promptTokens - r.prefilled : 0;
}

void
Scheduler::sweepDeadlines(double nowS, std::vector<Handle> &expired)
{
    const auto expires = [&](Handle h) {
        const Record &r = records_[h];
        return r.deadlineS > 0.0 && nowS > r.deadlineBaseS + r.deadlineS;
    };
    // Active columns first, then the queue, both in order.
    for (const Handle h : active_)
        if (expires(h))
            expired.push_back(h);
    for (const Handle h : queue_)
        if (expires(h))
            expired.push_back(h);
    if (expired.empty())
        return;
    for (const Handle h : expired) {
        release(records_[h]);
        records_[h].state = RequestState::DeadlineExceeded;
    }
    const auto gone = [&](Handle h) {
        return records_[h].state == RequestState::DeadlineExceeded;
    };
    active_.erase(std::remove_if(active_.begin(), active_.end(), gone),
                  active_.end());
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), gone),
                 queue_.end());
}

void
Scheduler::reserve(StepPlan &plan)
{
    chunks_.clear();
    for (const Handle h : active_)
        chunks_.push_back(remainingPrompt(h));
    planPrefillChunks(chunks_, options_.prefillChunkTokens);

    // The reservation view covers the working requests only: a
    // stalled prefill needs no new tokens and keeps its held blocks —
    // it is neither a requester nor a victim this step.
    std::vector<ReservationItem> items;
    items.reserve(active_.size());
    itemSlots_.clear();
    for (std::size_t a = 0; a < active_.size(); ++a) {
        if (chunks_[a] == 0)
            continue;
        Record &r = records_[active_[a]];
        if (r.seq == KvArena::kInvalidSeq)
            r.seq = arena_.createSequence();
        ReservationItem item;
        item.seq = r.seq;
        item.needTokens = r.prefilled + r.decoded + chunks_[a];
        item.lastActivityS = r.lastActivityS;
        item.admitSeq = r.admitSeq;
        items.push_back(item);
        itemSlots_.push_back(a);
    }
    planStepReservations(arena_, options_.policy, items, fate_);

    // The planner released every victim's sequence; apply the
    // request-side transitions, then compact the batch to the
    // requests still Active (stalled prefills included).
    for (std::size_t i = 0; i < itemSlots_.size(); ++i) {
        if (fate_[i] == kCommitted)
            continue;
        const Handle h = active_[itemSlots_[i]];
        Record &r = records_[h];
        r.seq = KvArena::kInvalidSeq;
        if (fate_[i] == kEvicted) {
            r.state = RequestState::Queued;
            r.prefilled = 0;
            r.decoded = 0;
            plan.evicted.push_back(h);
        } else {
            r.state = RequestState::Shed;
            plan.shed.push_back(h);
        }
    }

    std::size_t keep = 0;
    for (std::size_t a = 0; a < active_.size(); ++a) {
        const Handle h = active_[a];
        if (records_[h].state != RequestState::Active)
            continue;
        active_[keep++] = h;
        const std::size_t columns = chunks_[a];
        if (columns == 0)
            continue;
        Work w;
        w.handle = h;
        w.columns = columns;
        w.held = heldTokens(h);
        w.prefill = remainingPrompt(h) > 0;
        for (std::size_t j = 0; j < columns; ++j)
            plan.columnContexts.push_back(w.held + j + 1);
        plan.work.push_back(w);
    }
    active_.resize(keep);

    // Evicted requests rejoin the queue FRONT in admission order, ahead
    // of never-admitted traffic (they already waited once). Batch
    // order is admission order: admit() appends with a fresh admitSeq.
    queue_.insert(queue_.begin(), plan.evicted.begin(), plan.evicted.end());
}

const Scheduler::StepPlan &
Scheduler::planStep(double nowS)
{
    StepPlan &plan = plan_;
    plan.expired.clear();
    plan.shed.clear();
    plan.evicted.clear();
    plan.work.clear();
    plan.columnContexts.clear();
    // Injected skew shifts only the deadline clock: deadlines can fire
    // early or late while latency accounting stays on nowS.
    const double skewS = options_.faults != nullptr
                             ? options_.faults->clockSkewS(steps_)
                             : 0.0;
    plan.deadlineNowS = nowS + skewS;
    sweepDeadlines(plan.deadlineNowS, plan.expired);
    plan.admitted = admitFromQueue(nowS);
    if (active_.empty())
        return plan;
    reserve(plan);
    // Governance dropped every working column: refill now, the next
    // step re-assigns the chunk budget.
    if (plan.work.empty())
        plan.admitted += admitFromQueue(nowS);
    return plan;
}

std::size_t
Scheduler::completeStep(const StepPlan &plan, double nowS,
                        const std::function<void(Handle)> &onFinish)
{
    bool finished = false;
    for (const Work &w : plan.work) {
        Record &r = records_[w.handle];
        r.lastActivityS = nowS;
        if (w.prefill) {
            r.prefilled += w.columns;
            continue;
        }
        r.decoded += 1;
        if (r.maxTokens > 0 && r.decoded >= r.maxTokens) {
            if (onFinish)
                onFinish(w.handle);
            release(r);
            r.state = RequestState::Finished;
            finished = true;
        }
    }
    if (finished)
        active_.erase(std::remove_if(active_.begin(), active_.end(),
                                     [this](Handle h) {
                                         return records_[h].state ==
                                                RequestState::Finished;
                                     }),
                      active_.end());
    ++steps_;
    return admitFromQueue(nowS);
}

void
Scheduler::cancel(Handle h)
{
    Record &r = records_[h];
    if (r.state == RequestState::Active)
        active_.erase(std::find(active_.begin(), active_.end(), h));
    else
        queue_.erase(std::find(queue_.begin(), queue_.end(), h));
    release(r);
    r.state = RequestState::Cancelled;
}

void
Scheduler::resetKv(Handle h)
{
    Record &r = records_[h];
    if (r.seq != KvArena::kInvalidSeq)
        arena_.resetSequence(r.seq);
    r.promptTokens = 0;
    r.prefilled = 0;
    r.decoded = 0;
}

std::vector<std::size_t>
Scheduler::prospectiveColumnContexts() const
{
    std::vector<Handle> next(active_.begin(), active_.end());
    for (const Handle h : queue_) {
        if (next.size() >= options_.maxBatch)
            break;
        next.push_back(h);
    }
    std::vector<std::size_t> cols;
    cols.reserve(next.size());
    for (const Handle h : next)
        cols.push_back(remainingPrompt(h));
    planPrefillChunks(cols, options_.prefillChunkTokens);
    std::vector<std::size_t> contexts;
    for (std::size_t i = 0; i < next.size(); ++i) {
        const std::size_t held = heldTokens(next[i]);
        for (std::size_t j = 0; j < cols[i]; ++j)
            contexts.push_back(held + j + 1);
    }
    return contexts;
}

} // namespace serve
} // namespace figlut
