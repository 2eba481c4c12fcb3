#include "serve/engine.h"

#include <cmath>

#include "common/logging.h"
#include "model/synthetic.h"
#include "runtime/reference_ops.h"

namespace figlut {
namespace serve {

namespace {

/** Only the Simd backend consumes pre-packed keys; skip the
 *  materialization (roughly q bytes per weight) for Reference. */
ModelOptions
modelOptionsFor(const EngineOptions &options)
{
    ModelOptions model = options.model;
    model.packKeys = options.exec.backend == LutGemmBackend::Simd;
    return model;
}

/**
 * One fused-batch column's exact share of a step's kernel counters.
 * Every closed form (core/lut_gemm.cpp) is linear in the batch columns
 * with no cross-column or per-call constant term, so the totals divide
 * evenly; a remainder would mean the accounting gained a cross-column
 * term and per-request attribution is no longer exact. A request's
 * share is this times the columns it contributed (one decode column,
 * or its prefill chunk) — equal-per-request splits would misbill
 * mixed prefill/decode steps.
 */
LutGemmCounters
perColumnShare(const LutGemmCounters &total, std::size_t columns)
{
    auto split = [columns](uint64_t v) {
        FIGLUT_ASSERT(v % columns == 0,
                      "fused-step counter ", v,
                      " not divisible by live batch ", columns);
        return v / columns;
    };
    LutGemmCounters share;
    share.lutGenerations = split(total.lutGenerations);
    share.generatorAdds = split(total.generatorAdds);
    share.lutReads = split(total.lutReads);
    share.racAccumulates = split(total.racAccumulates);
    share.scaleMuls = split(total.scaleMuls);
    share.offsetOps = split(total.offsetOps);
    return share;
}

LutGemmCounters
scaleCounters(const LutGemmCounters &share, std::size_t columns)
{
    LutGemmCounters scaled;
    scaled.lutGenerations = share.lutGenerations * columns;
    scaled.generatorAdds = share.generatorAdds * columns;
    scaled.lutReads = share.lutReads * columns;
    scaled.racAccumulates = share.racAccumulates * columns;
    scaled.scaleMuls = share.scaleMuls * columns;
    scaled.offsetOps = share.offsetOps * columns;
    return scaled;
}

bool
countersEqual(const LutGemmCounters &a, const LutGemmCounters &b)
{
    return a.lutGenerations == b.lutGenerations &&
           a.generatorAdds == b.generatorAdds &&
           a.lutReads == b.lutReads &&
           a.racAccumulates == b.racAccumulates &&
           a.scaleMuls == b.scaleMuls && a.offsetOps == b.offsetOps;
}

void
accumulate(LutGemmCounters &into, const LutGemmCounters &add)
{
    into.lutGenerations += add.lutGenerations;
    into.generatorAdds += add.generatorAdds;
    into.lutReads += add.lutReads;
    into.racAccumulates += add.racAccumulates;
    into.scaleMuls += add.scaleMuls;
    into.offsetOps += add.offsetOps;
}

Status
validateEngineConfig(const OptConfig &model, const EngineOptions &options)
{
    if (model.hidden == 0 || model.layers == 0 || model.ffn == 0)
        return Status::invalidArgument(
            "Engine needs a non-empty OptConfig, got hidden=",
            model.hidden, " layers=", model.layers, " ffn=", model.ffn);
    if (model.heads == 0 || model.hidden % model.heads != 0)
        return Status::invalidArgument(
            "Engine needs hidden divisible by heads, got ", model.hidden,
            " / ", model.heads);
    if (options.model.weightBits < 1)
        return Status::invalidArgument(
            "Engine weightBits must be >= 1, got ",
            options.model.weightBits);
    if (options.maxBatch == 0)
        return Status::invalidArgument(
            "Engine maxBatch must be positive: a batch of 0 can never ",
            "decode a request");
    if (options.kvBlockTokens == 0)
        return Status::invalidArgument(
            "Engine kvBlockTokens must be >= 1: the KV arena cannot ",
            "page with empty blocks");
    if (options.kvBudgetBytes > 0) {
        // One decode step needs at least one block on every layer.
        const std::size_t blockBytes =
            options.kvBlockTokens * 2 * model.hidden * sizeof(double);
        const std::size_t floor = blockBytes * model.layers;
        if (options.kvBudgetBytes < floor)
            return Status::invalidArgument(
                "Engine kvBudgetBytes ", options.kvBudgetBytes,
                " cannot hold one block per layer (", model.layers,
                " layers x ", blockBytes, "-byte blocks = ", floor,
                " bytes); raise the budget or shrink kvBlockTokens");
    }
    return validateExecOptions(options.exec, options.model.mu);
}

SchedulerOptions
schedulerOptionsFor(const OptConfig &model, const EngineOptions &options)
{
    SchedulerOptions sched;
    sched.maxBatch = options.maxBatch;
    sched.maxQueue = options.maxQueue;
    sched.prefillChunkTokens = options.prefillChunkTokens;
    sched.policy = options.policy;
    sched.arena.hidden = model.hidden;
    sched.arena.layers = model.layers;
    sched.arena.blockTokens = options.kvBlockTokens;
    sched.arena.budgetBytes = options.kvBudgetBytes;
    sched.faults = options.faults;
    return sched;
}

/** Request ids are scheduler handles shifted by one (0 is never an id). */
RequestId
idOf(Scheduler::Handle h)
{
    return h + 1;
}

} // namespace

Result<std::unique_ptr<Engine>>
Engine::create(const OptConfig &model, const EngineOptions &options)
{
    if (Status s = validateEngineConfig(model, options); !s.ok())
        return s;
    return std::unique_ptr<Engine>(new Engine(model, options));
}

Engine::Engine(const OptConfig &model, const EngineOptions &options)
    : model_(model, modelOptionsFor(options)), options_(options),
      clock_(options.clock != nullptr ? options.clock : &ownedClock_),
      scheduler_(schedulerOptionsFor(model, options))
{
    options_.model.packKeys = model_.options().packKeys;
    // Only the semantic op order is needed to drive the numeric step;
    // the analytic view is rebuilt per call because the live batch and
    // its context lengths change between steps.
    WorkloadOptions opOrder;
    opOrder.batch = 1;
    opOrder.contextLen = 1;
    for (const auto &spec : layerSpecs(model_.config(), opOrder))
        layerOps_.push_back(spec.op);
}

Status
Engine::checkLive(RequestId id) const
{
    if (!known(id))
        return Status::notFound("unknown request id ", id);
    const RequestState state = scheduler_.state(id - 1);
    if (requestStateTerminal(state))
        return Status::failedPrecondition("request ", id,
                                          " already retired (",
                                          requestStateName(state), ")");
    return Status::okStatus();
}

Result<RequestId>
Engine::submit(const RequestOptions &request)
{
    const double nowS = clock_->now();
    // Deadlines count from submit time, which also stamps a direct
    // admission.
    const Result<Scheduler::Handle> h =
        scheduler_.submit(request, nowS, nowS);
    if (!h.ok())
        return h.status();

    Request req;
    req.options = request;
    req.submitTimeS = nowS;
    // The initial hidden state comes first in the request's RNG
    // stream; the prompt embeddings follow, but are materialized
    // lazily at the request's first work step (see prepareLife) so
    // queued traffic holds no prompt or KV bytes.
    Rng rng(request.seed);
    req.hidden = syntheticActivations(model_.config().hidden, 1, rng);
    requests_.push_back(std::move(req));
    return idOf(h.value());
}

Status
Engine::provideInput(RequestId id, const MatrixD &hidden)
{
    if (Status s = checkLive(id); !s.ok())
        return s;
    const std::size_t h = model_.config().hidden;
    if (hidden.rows() != h || hidden.cols() != 1)
        return Status::invalidArgument("request input must be ", h,
                                       "x1, got ", hidden.rows(), "x",
                                       hidden.cols());
    // A non-finite element would poison the whole fused batch: the
    // FIGLUT-I pre-alignment rejects it mid-step, failing every
    // batch-mate, and the FP path carries it into the shared LUTs.
    for (std::size_t r = 0; r < h; ++r)
        if (!std::isfinite(hidden(r, 0)))
            return Status::invalidArgument("request input element ", r,
                                           " is not finite: ",
                                           hidden(r, 0));
    requests_[id - 1].hidden = hidden;
    return Status::okStatus();
}

void
Engine::retainKv(Request &req, Scheduler::Handle h)
{
    const KvArena::SeqId seq = scheduler_.sequence(h);
    if (options_.retainFinishedKv && seq != KvArena::kInvalidSeq)
        req.retainedKv = scheduler_.arena().materialize(seq);
}

void
Engine::prepareLife(Request &req, Scheduler::Handle h)
{
    if (req.lifeReady)
        return;
    const std::size_t hidden = model_.config().hidden;
    // Replay the submit-time RNG stream: hidden state first, then the
    // prompt embeddings. On a preemption restart the redrawn hidden
    // replaces the evicted life's progress (the from-scratch
    // recompute); on a first admission the request still holds that
    // exact draw (or a provideInput override, which must win), so the
    // redraw is discarded.
    Rng rng(req.options.seed);
    MatrixD first = syntheticActivations(hidden, 1, rng);
    if (req.stats.preemptions > 0)
        req.hidden = std::move(first);
    const std::size_t prompt = scheduler_.remainingPrompt(h);
    if (prompt > 0)
        req.promptEmbeds = syntheticActivations(hidden, prompt, rng);
    req.lifeReady = true;
}

Result<StepStats>
Engine::step()
{
    if (scheduler_.activeCount() == 0 && scheduler_.queuedCount() == 0)
        return Status::failedPrecondition(
            "no live requests to decode; submit() first");

    StepStats stats;
    const double t0 = clock_->now();
    // Deadline sweep, admission, chunk assignment and the KV
    // reservation pass: after this, every planned column has its arena
    // slot block-backed, so the numeric step cannot fail.
    const Scheduler::StepPlan &plan = scheduler_.planStep(t0);
    stats.admitted = plan.admitted;
    for (const Scheduler::Handle h : plan.expired) {
        const RequestId id = idOf(h);
        requests_[h].terminal = Status::deadlineExceeded(
            "request ", id, " missed its ",
            requests_[h].options.deadlineS, "s deadline at t=",
            plan.deadlineNowS);
        stats.deadlineIds.push_back(id);
    }
    for (const Scheduler::Handle h : plan.evicted) {
        // The restart recomputes the life from the seed.
        Request &req = requests_[h];
        req.stats.preemptions += 1;
        req.promptEmbeds = MatrixD();
        req.lifeReady = false;
        req.restartPending = true;
        req.requeuedAtS = t0;
        stats.evictedIds.push_back(idOf(h));
    }
    for (const Scheduler::Handle h : plan.shed) {
        const RequestId id = idOf(h);
        requests_[h].terminal = Status::resourceExhausted(
            "request ", id, " shed: KV budget of ",
            options_.kvBudgetBytes, " bytes cannot back its next token ",
            "(policy ", degradationPolicyName(options_.policy), ")");
        stats.shedIds.push_back(id);
    }
    const KvArena &arena = scheduler_.arena();
    if (plan.work.empty()) {
        // Governance left nothing to compute (every request expired,
        // shed, evicted, or stalled): an empty step that does not
        // count toward stepsExecuted().
        stats.queueDepth = scheduler_.queuedCount();
        stats.kvBlocksInUse = arena.blocksInUse();
        stats.kvBytesInUse = arena.bytesInUse();
        return stats;
    }

    const OptConfig &cfg = model_.config();
    const std::size_t h = cfg.hidden;
    const std::size_t b = plan.work.size();
    stats.liveRequests = b;

    // First work step of a life: replay the seed (restart hidden
    // redraw + prompt embeddings). First work step ever: everything
    // before this instant was waiting (queue + admitted-but-idle), not
    // compute. A restarted life instead books its renewed wait into
    // restartSeconds.
    for (const Scheduler::Work &w : plan.work) {
        Request &req = requests_[w.handle];
        prepareLife(req, w.handle);
        if (!req.everWorked) {
            req.stats.queueSeconds = t0 - req.submitTimeS;
            req.everWorked = true;
        }
        if (req.restartPending) {
            req.stats.restartSeconds += t0 - req.requeuedAtS;
            req.restartPending = false;
        }
    }

    // Gather: each working request's columns are contiguous in the
    // fused batch — its next prefill chunk (prompt embedding columns,
    // from the prefilled position: a prefilling life has decoded
    // nothing, so that is `held`) while its prompt is unfinished, its
    // one decode column (the latest hidden state) after — so every
    // layer GEMM below runs once over the whole mixed-width batch.
    const std::size_t W = plan.columnContexts.size();
    MatrixD x(h, W);
    std::size_t base = 0;
    for (const Scheduler::Work &w : plan.work) {
        const Request &req = requests_[w.handle];
        if (w.prefill) {
            for (std::size_t j = 0; j < w.columns; ++j)
                for (std::size_t r = 0; r < h; ++r)
                    x(r, base + j) = req.promptEmbeds(r, w.held + j);
            stats.prefillIds.push_back(idOf(w.handle));
            stats.prefillTokens += w.columns;
        } else {
            for (std::size_t r = 0; r < h; ++r)
                x(r, base) = req.hidden(r, 0);
            stats.decodedIds.push_back(idOf(w.handle));
            stats.decodeTokens += 1;
        }
        base += w.columns;
    }
    stats.columnContexts = plan.columnContexts;

    const LutGemmConfig gemmCfg =
        makeGemmConfig(options_.exec, options_.model.mu);
    auto runGemm = [&](std::size_t l, LayerOp op, const MatrixD &in) {
        ++stats.gemmCalls;
        const QuantizedLayer &layer = model_.layer(l);
        // The pre-packed overload serves the Simd backend; Reference
        // gathers keys from the bit planes itself.
        if (gemmCfg.backend == LutGemmBackend::Simd)
            return lutGemm(layer.weights(op), in, gemmCfg,
                           layer.keys(op), &stats.counters, &ctx_);
        return lutGemm(layer.weights(op), in, gemmCfg, &stats.counters,
                       &ctx_);
    };

    // Same per-column arithmetic as a batch-1 step: the GEMM and every
    // vector op treat columns independently, so each request is
    // bit-identical to running alone (the differential suite pins
    // this) — and a prefill chunked any which way is bit-identical to
    // the whole prompt in one step (the prefill suite pins that).
    KvArena &kv = scheduler_.arena();
    MatrixD ln, qkv, attn, proj, ffn;
    std::vector<std::vector<KvTokenRef>> views(W);
    std::vector<KvTokenRef> full;
    for (std::size_t l = 0; l < model_.layers(); ++l) {
        for (const LayerOp op : layerOps_) {
            switch (op) {
              case LayerOp::LayerNorm1:
              case LayerOp::LayerNorm2:
                ln = referenceLayerNorm(x);
                break;
              case LayerOp::QkvProj:
                qkv = runGemm(l, op, ln);
                break;
              case LayerOp::Attention: {
                MatrixD q(h, W);
                std::size_t c0 = 0;
                for (const Scheduler::Work &w : plan.work) {
                    const KvArena::SeqId seq = scheduler_.sequence(w.handle);
                    // Every column's K/V go straight into reserved
                    // arena slots — then each column attends causally
                    // over the prefix ending at itself: position
                    // held + j sees held + j + 1 entries. For a decode
                    // column that prefix is the full sequence, exactly
                    // the old decode attention.
                    for (std::size_t j = 0; j < w.columns; ++j) {
                        const std::size_t c = c0 + j;
                        const KvArena::TokenSlot slot = kv.appendToken(seq, l);
                        for (std::size_t r = 0; r < h; ++r) {
                            q(r, c) = qkv(r, c);
                            slot.k[r] = qkv(h + r, c);
                            slot.v[r] = qkv(2 * h + r, c);
                        }
                    }
                    kv.tokenRefs(seq, l, full);
                    for (std::size_t j = 0; j < w.columns; ++j)
                        views[c0 + j].assign(
                            full.begin(),
                            full.begin() +
                                (full.size() - w.columns + j + 1));
                    c0 += w.columns;
                }
                attn = referenceDecodeAttention(q, views, cfg.heads);
                break;
              }
              case LayerOp::OutProj:
                proj = runGemm(l, op, attn);
                break;
              case LayerOp::Residual1:
              case LayerOp::Residual2:
                x = referenceResidualAdd(x, proj);
                break;
              case LayerOp::Fc1:
                ffn = runGemm(l, op, ln);
                break;
              case LayerOp::Gelu:
                ffn = options_.exec.lutGelu ? referenceGeluLut(ffn)
                                            : referenceGelu(ffn);
                break;
              case LayerOp::Fc2:
                proj = runGemm(l, op, ffn);
                break;
            }
        }
    }

    const double t1 = clock_->now();
    stats.seconds = t1 - t0;

    // Scatter + per-request accounting. Counter shares are
    // token-weighted: each request gets the per-column share times the
    // columns it contributed, and the shares must reassemble to the
    // step total exactly.
    const LutGemmCounters share = perColumnShare(stats.counters, W);
    LutGemmCounters reassembled;
    base = 0;
    for (const Scheduler::Work &w : plan.work) {
        Request &req = requests_[w.handle];
        const LutGemmCounters reqShare = scaleCounters(share, w.columns);
        accumulate(req.stats.counters, reqShare);
        accumulate(reassembled, reqShare);
        req.stats.gemmCalls += stats.gemmCalls;
        req.stats.decodeSeconds += stats.seconds;
        if (w.prefill) {
            req.stats.prefillTokens += w.columns;
            req.stats.prefillSeconds += stats.seconds;
            if (scheduler_.remainingPrompt(w.handle) == w.columns) {
                // Prefill complete: the final prompt column's output
                // is the first decode input; the embeddings are spent.
                for (std::size_t r = 0; r < h; ++r)
                    req.hidden(r, 0) = x(r, base + w.columns - 1);
                req.promptEmbeds = MatrixD();
            }
        } else {
            for (std::size_t r = 0; r < h; ++r)
                req.hidden(r, 0) = x(r, base);
            req.stats.tokensDecoded += 1;
            if (req.stats.tokensDecoded == 1)
                req.stats.ttftSeconds = t1 - req.submitTimeS;
        }
        base += w.columns;
    }
    FIGLUT_ASSERT(countersEqual(reassembled, stats.counters),
                  "token-weighted counter shares did not reassemble to ",
                  "the fused-step total");
    // Everything still queued sat out this step's work; count that
    // before completion refills the slots that retirement frees.
    for (const Scheduler::Handle q : scheduler_.queue())
        requests_[q].stats.queuedSteps += 1;
    stats.admitted += scheduler_.completeStep(
        plan, t0, [this, &stats](Scheduler::Handle done) {
            retainKv(requests_[done], done);
            ++stats.retired;
        });
    stats.queueDepth = scheduler_.queuedCount();
    stats.kvBlocksInUse = arena.blocksInUse();
    stats.kvBytesInUse = arena.bytesInUse();
    return stats;
}

Result<RequestSnapshot>
Engine::poll(RequestId id) const
{
    if (!known(id))
        return Status::notFound("unknown request id ", id);
    const Request &req = requests_[id - 1];
    RequestSnapshot snap;
    snap.id = id;
    snap.state = scheduler_.state(id - 1);
    snap.hidden = req.hidden;
    snap.kvLength = requestStateTerminal(snap.state)
                        ? req.retainedKv.length()
                        : scheduler_.heldTokens(id - 1);
    snap.stats = req.stats;
    snap.terminal = req.terminal;
    return snap;
}

Status
Engine::cancel(RequestId id)
{
    if (Status s = checkLive(id); !s.ok())
        return s;
    Request &req = requests_[id - 1];
    retainKv(req, id - 1);
    scheduler_.cancel(id - 1);
    req.terminal = Status::cancelled("request ", id,
                                     " cancelled by the client");
    return Status::okStatus();
}

Status
Engine::resetKv(RequestId id)
{
    if (Status s = checkLive(id); !s.ok())
        return s;
    // The prompt is gone for good, like the old contiguous clear():
    // a later life's prefill must not resurrect it (and a half-done
    // prefill stops here — the request decodes from its current
    // hidden state with an empty context).
    scheduler_.resetKv(id - 1);
    requests_[id - 1].promptEmbeds = MatrixD();
    return Status::okStatus();
}

Result<KvCache>
Engine::kvHistory(RequestId id) const
{
    if (!known(id))
        return Status::notFound("unknown request id ", id);
    const KvArena::SeqId seq = scheduler_.sequence(id - 1);
    if (seq != KvArena::kInvalidSeq)
        return scheduler_.arena().materialize(seq);
    return requests_[id - 1].retainedKv;
}

std::vector<KernelTask>
Engine::workloadTasks() const
{
    // step() admits from the queue before working, so the scored batch
    // is the *prospective* one: live requests plus the queued requests
    // the next step will admit into free slots.
    const std::vector<std::size_t> contextLens =
        scheduler_.prospectiveColumnContexts();
    if (contextLens.empty())
        return {};
    WorkloadOptions opts;
    opts.batch = contextLens.size();
    opts.weightBits = options_.model.weightBits;
    opts.includeVector = options_.includeVector;
    opts.groupSize = options_.model.groupSize;
    opts.hasOffset = options_.model.useOffset;
    return decodeStepWorkload(model_.config(), opts, contextLens);
}

WorkloadResult
Engine::simulate(const HwConfig &hw) const
{
    const Accelerator acc(hw);
    return acc.runWorkload(workloadTasks());
}

} // namespace serve
} // namespace figlut
