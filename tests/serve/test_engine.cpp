/**
 * @file
 * Tests for the request-level serving engine (serve/engine.h).
 *
 * The load-bearing suites are the differential ones, both against a
 * hand-rolled per-layer oracle (Reference-backend lutGemm + reference
 * vector ops, fresh resources every call, its own KV cache): an Engine
 * fed a lock-step batch through provideInput() must match the oracle
 * bit for bit, and an Engine decoding N concurrent requests with
 * ragged token budgets and staggered admission must match, per
 * request, N independent batch-1 oracle runs — hidden states, KV
 * histories and counter shares. Continuous batching is an
 * amortization, never a numerics change. The rest covers the
 * Status-based rejection paths (construction knobs, capacity,
 * lifecycle) and the live-batch analytic workload.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/synthetic.h"
#include "model/workload.h"
#include "runtime/reference_ops.h"
#include "serve/engine.h"

namespace figlut {
namespace serve {
namespace {

OptConfig
tinyConfig(std::size_t hidden, std::size_t layers, std::size_t heads,
           std::size_t ffn)
{
    OptConfig cfg;
    cfg.name = "OPT-serve-test";
    cfg.hidden = hidden;
    cfg.layers = layers;
    cfg.heads = heads;
    cfg.ffn = ffn;
    return cfg;
}

EngineOptions
tinyEngineOptions()
{
    EngineOptions opts;
    opts.model.bcqIterations = 0;
    opts.model.weightBits = 3;
    return opts;
}

void
expectCountersEqual(const LutGemmCounters &a, const LutGemmCounters &b)
{
    EXPECT_EQ(a.lutGenerations, b.lutGenerations);
    EXPECT_EQ(a.generatorAdds, b.generatorAdds);
    EXPECT_EQ(a.lutReads, b.lutReads);
    EXPECT_EQ(a.racAccumulates, b.racAccumulates);
    EXPECT_EQ(a.scaleMuls, b.scaleMuls);
    EXPECT_EQ(a.offsetOps, b.offsetOps);
}

void
expectTasksEqual(const std::vector<KernelTask> &a,
                 const std::vector<KernelTask> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << "task " << i;
        EXPECT_EQ(a[i].name, b[i].name) << "task " << i;
        if (a[i].kind == KernelTask::Kind::Gemm) {
            EXPECT_EQ(a[i].gemm.m, b[i].gemm.m) << "task " << i;
            EXPECT_EQ(a[i].gemm.n, b[i].gemm.n) << "task " << i;
            EXPECT_EQ(a[i].gemm.batch, b[i].gemm.batch) << "task " << i;
            EXPECT_EQ(a[i].gemm.weightBits, b[i].gemm.weightBits)
                << "task " << i;
            EXPECT_EQ(a[i].gemm.groupSize, b[i].gemm.groupSize)
                << "task " << i;
            EXPECT_EQ(a[i].gemm.hasOffset, b[i].gemm.hasOffset)
                << "task " << i;
        } else {
            EXPECT_EQ(a[i].vector.adds, b[i].vector.adds) << "task " << i;
            EXPECT_EQ(a[i].vector.muls, b[i].vector.muls) << "task " << i;
            EXPECT_EQ(a[i].vector.specials, b[i].vector.specials)
                << "task " << i;
        }
    }
}

/** Column b of m as an m.rows() x 1 matrix. */
MatrixD
column(const MatrixD &m, std::size_t b)
{
    MatrixD c(m.rows(), 1);
    for (std::size_t r = 0; r < m.rows(); ++r)
        c(r, 0) = m(r, b);
    return c;
}

/**
 * Hand-rolled decode step over the engine's own quantized weights:
 * per-layer Reference-backend lutGemm calls (no ExecutionContext, no
 * pre-packed keys) chained with the reference vector ops, appending
 * this step's K/V to its own cache (one column per sequence). It
 * shares nothing with the engine's fused path but the weights and the
 * kernels' arithmetic. Kernel counters accumulate into `counters`
 * when given.
 */
MatrixD
handRolledStep(const QuantizedModel &qm, const ExecOptions &exec,
               const MatrixD &input, KvCache &cache,
               LutGemmCounters *counters = nullptr)
{
    LutGemmConfig cfg = makeGemmConfig(exec, qm.options().mu);
    cfg.backend = LutGemmBackend::Reference;
    cfg.threads = 0;

    const OptConfig &model = qm.config();
    const std::size_t h = model.hidden;
    const std::size_t batch = input.cols();
    MatrixD x = input;
    for (std::size_t l = 0; l < qm.layers(); ++l) {
        const QuantizedLayer &layer = qm.layer(l);
        MatrixD ln = referenceLayerNorm(x);
        const MatrixD qkv = lutGemm(layer.qkv, ln, cfg, counters);
        MatrixD q(h, batch), k(h, batch), v(h, batch);
        for (std::size_t r = 0; r < h; ++r) {
            for (std::size_t b = 0; b < batch; ++b) {
                q(r, b) = qkv(r, b);
                k(r, b) = qkv(h + r, b);
                v(r, b) = qkv(2 * h + r, b);
            }
        }
        cache.append(l, std::move(k), std::move(v));
        const MatrixD attn = referenceDecodeAttention(
            q, cache.keys(l), cache.values(l), model.heads);
        MatrixD proj = lutGemm(layer.attnOut, attn, cfg, counters);
        x = referenceResidualAdd(x, proj);
        ln = referenceLayerNorm(x);
        MatrixD f = lutGemm(layer.fc1, ln, cfg, counters);
        f = referenceGelu(f);
        proj = lutGemm(layer.fc2, f, cfg, counters);
        x = referenceResidualAdd(x, proj);
    }
    return x;
}

/**
 * An Engine serving a lock-step batch — `batch` unbounded requests,
 * every step's columns injected with provideInput() — against the
 * hand-rolled oracle on the whole batch. Randomized OPT-125M-style
 * shapes, scaled down so the per-trial quantization stays in test
 * budget: the per-layer structure (4 GEMMs around
 * LN/attention/GELU/residuals) is the real one.
 */
TEST(Engine, DecodeStepBitIdenticalToHandRolledReference)
{
    Rng trialRng(2025);
    for (int trial = 0; trial < 4; ++trial) {
        const std::size_t heads = trial % 2 == 0 ? 2 : 4;
        std::size_t hidden =
            heads * static_cast<std::size_t>(trialRng.uniformInt(8, 16));
        if (trial == 0)
            hidden = 32; // QKV M = 96: a full 64-row tile plus a tail
        const std::size_t ffn =
            hidden * static_cast<std::size_t>(trialRng.uniformInt(2, 4));
        const std::size_t layers =
            static_cast<std::size_t>(trialRng.uniformInt(1, 2));
        const auto model = tinyConfig(hidden, layers, heads, ffn);

        EngineOptions opts;
        opts.model.weightBits =
            static_cast<int>(trialRng.uniformInt(2, 4));
        opts.model.groupSize = trial % 2 == 0 ? 0 : 16;
        opts.model.useOffset = trial % 2 == 1;
        opts.model.bcqIterations = 1;
        opts.model.mu = static_cast<int>(trialRng.uniformInt(3, 5));
        opts.model.seed = 7000 + static_cast<uint64_t>(trial);
        const auto batch =
            static_cast<std::size_t>(trialRng.uniformInt(1, 3));
        opts.maxBatch = batch;
        opts.maxQueue = 0;
        opts.exec.preAligned = trial % 2 == 0;
        opts.exec.threads = 2;

        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok()) << created.status().toString();
        Engine &engine = *created.value();
        std::vector<RequestId> ids;
        for (std::size_t b = 0; b < batch; ++b) {
            RequestOptions req;
            req.maxTokens = 0; // unbounded: the test drives every input
            const auto id = engine.submit(req);
            ASSERT_TRUE(id.ok()) << id.status().toString();
            ids.push_back(id.value());
        }

        Rng inputRng(99 + static_cast<uint64_t>(trial));
        MatrixD engineHidden =
            syntheticActivations(hidden, batch, inputRng);
        MatrixD refHidden = engineHidden;
        KvCache refKv(engine.model().layers());
        // Two steps so the second one attends over a real KV history.
        for (int step = 0; step < 2; ++step) {
            for (std::size_t b = 0; b < batch; ++b)
                ASSERT_TRUE(
                    engine.provideInput(ids[b], column(engineHidden, b))
                        .ok());
            const auto stats = engine.step();
            ASSERT_TRUE(stats.ok()) << stats.status().toString();
            for (std::size_t b = 0; b < batch; ++b) {
                const auto snap = engine.poll(ids[b]);
                ASSERT_TRUE(snap.ok()) << snap.status().toString();
                for (std::size_t r = 0; r < hidden; ++r)
                    engineHidden(r, b) = snap.value().hidden(r, 0);
            }
            refHidden = handRolledStep(engine.model(), opts.exec,
                                       refHidden, refKv);
            EXPECT_EQ(engineHidden, refHidden)
                << "trial " << trial << " step " << step;
            EXPECT_EQ(stats.value().gemmCalls,
                      4 * engine.model().layers())
                << "trial " << trial;
        }

        // Each request's KV history is its own column of the oracle's
        // batch cache: h x 1 snapshots per step and layer.
        for (std::size_t b = 0; b < batch; ++b) {
            KvCache expected(refKv.layers());
            for (std::size_t l = 0; l < refKv.layers(); ++l)
                for (std::size_t t = 0; t < refKv.length(); ++t)
                    expected.append(l, column(refKv.keys(l)[t], b),
                                    column(refKv.values(l)[t], b));
            const auto kv = engine.kvHistory(ids[b]);
            ASSERT_TRUE(kv.ok()) << kv.status().toString();
            EXPECT_EQ(kv.value(), expected)
                << "trial " << trial << " request " << b;
        }
    }
}

/**
 * One Engine serving N requests of different ages (ragged budgets, one
 * submitted mid-flight so it waits in the queue) against N independent
 * batch-1 runs of the hand-rolled oracle, self-fed from the same
 * seeds. Hidden states are compared per request after *every* fused
 * step, KV histories, counters, and stats at retirement.
 */
TEST(Engine, MatchesIndependentBatch1Runs)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 2; // forces the third request through the queue

    constexpr std::size_t kRequests = 3;
    const std::size_t budgets[kRequests] = {2, 4, 3};
    const uint64_t seeds[kRequests] = {101, 202, 303};

    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    Engine &engine = *created.value();

    // Reference trajectories: per request, the oracle at batch 1
    // self-fed from the request's synthetic initial hidden state.
    std::vector<std::vector<MatrixD>> refHidden(kRequests);
    std::vector<KvCache> refKv;
    std::vector<LutGemmCounters> refCounters(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        Rng rng(seeds[i]);
        MatrixD hidden = syntheticActivations(model.hidden, 1, rng);
        KvCache cache(engine.model().layers());
        for (std::size_t t = 0; t < budgets[i]; ++t) {
            hidden = handRolledStep(engine.model(), opts.exec, hidden,
                                    cache, &refCounters[i]);
            refHidden[i].push_back(hidden);
        }
        refKv.push_back(std::move(cache));
    }

    // Serve the same three requests concurrently: two up front, the
    // third submitted after the first fused step (it must queue until
    // request 0 retires, then join with a fresh KV while the others
    // are mid-sequence — the ragged case).

    RequestId ids[kRequests] = {};
    for (std::size_t i = 0; i < 2; ++i) {
        auto id = engine.submit({budgets[i], seeds[i]});
        ASSERT_TRUE(id.ok()) << id.status().toString();
        ids[i] = id.value();
    }

    std::size_t stepsRun = 0;
    while (engine.liveRequests() > 0 || engine.queuedRequests() > 0) {
        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok()) << stats.status().toString();
        ++stepsRun;
        if (stepsRun == 1) {
            auto id = engine.submit({budgets[2], seeds[2]});
            ASSERT_TRUE(id.ok()) << id.status().toString();
            ids[2] = id.value();
            // maxBatch 2 is full: request 2 waits in the queue.
            EXPECT_EQ(engine.queuedRequests(), 1u);
        }
        // After every fused step, every request seen so far matches
        // its solo trajectory at its own age.
        for (std::size_t i = 0; i < kRequests; ++i) {
            if (ids[i] == 0)
                continue;
            const auto snap = engine.poll(ids[i]);
            ASSERT_TRUE(snap.ok()) << snap.status().toString();
            const std::size_t age = snap.value().stats.tokensDecoded;
            EXPECT_EQ(snap.value().kvLength, age);
            if (age == 0)
                continue;
            EXPECT_EQ(snap.value().hidden, refHidden[i][age - 1])
                << "request " << i << " age " << age;
        }
        ASSERT_LT(stepsRun, 32u) << "engine failed to drain";
    }

    // Retirement: exact budgets, exact KV histories, exact per-request
    // counter shares, and sane timing/queue accounting.
    for (std::size_t i = 0; i < kRequests; ++i) {
        const auto snap = engine.poll(ids[i]);
        ASSERT_TRUE(snap.ok());
        EXPECT_EQ(snap.value().state, RequestState::Finished);
        EXPECT_EQ(snap.value().stats.tokensDecoded, budgets[i]);
        EXPECT_EQ(snap.value().stats.gemmCalls,
                  budgets[i] * 4 * model.layers);
        expectCountersEqual(snap.value().stats.counters, refCounters[i]);
        EXPECT_GT(snap.value().stats.decodeSeconds, 0.0);
        const auto kv = engine.kvHistory(ids[i]);
        ASSERT_TRUE(kv.ok());
        EXPECT_EQ(kv.value(), refKv[i]) << "request " << i;
    }
    // The late request actually waited.
    const auto late = engine.poll(ids[2]);
    ASSERT_TRUE(late.ok());
    EXPECT_GT(late.value().stats.queuedSteps, 0u);
    EXPECT_GE(late.value().stats.queueSeconds, 0.0);
}

TEST(Engine, CreateRejectsEachBadKnob)
{
    const auto model = tinyConfig(16, 1, 2, 32);
    const EngineOptions good = tinyEngineOptions();
    ASSERT_TRUE(Engine::create(model, good).ok());

    {
        EngineOptions o = good;
        o.exec.threads = kMaxLutGemmThreads + 1;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("threads"),
                  std::string::npos);
    }
    {
        EngineOptions o = good;
        o.model.mu = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("mu"), std::string::npos);
    }
    {
        EngineOptions o = good;
        o.model.mu = 1; // valid range, but hFFLUT needs mu >= 2
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("mu >= 2"),
                  std::string::npos);
    }
    for (const int bits : {1, 61}) {
        // Outside preAlign()'s range: rejected here, not at step().
        EngineOptions o = good;
        o.exec.preAligned = true;
        o.exec.alignFracBits = bits;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok()) << bits;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("alignFracBits"),
                  std::string::npos);
    }
    {
        EngineOptions o = good;
        o.maxBatch = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("maxBatch"),
                  std::string::npos);
    }
    {
        EngineOptions o = good;
        o.model.weightBits = 0;
        const auto r = Engine::create(model, o);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    }
    {
        const auto r = Engine::create(tinyConfig(0, 0, 0, 0), good);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    }
    {
        // hidden not divisible by heads
        const auto r = Engine::create(tinyConfig(10, 1, 3, 32), good);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("heads"), std::string::npos);
    }
}

TEST(Engine, SubmitRejectsOverCapacityTraffic)
{
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 1;
    opts.maxQueue = 1;
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    ASSERT_TRUE(engine.submit({1, 1}).ok()); // live
    ASSERT_TRUE(engine.submit({1, 2}).ok()); // queued
    const auto rejected = engine.submit({1, 3});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::ResourceExhausted);
    EXPECT_NE(rejected.status().message().find("maxBatch"),
              std::string::npos);

    // Retiring traffic frees capacity again.
    ASSERT_TRUE(engine.step().ok()); // decodes + retires the live one
    EXPECT_TRUE(engine.submit({1, 3}).ok());
}

TEST(Engine, LifecycleErrorsAreRecoverable)
{
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    // Nothing live: step() refuses without dying.
    const auto idle = engine.step();
    ASSERT_FALSE(idle.ok());
    EXPECT_EQ(idle.status().code(), StatusCode::FailedPrecondition);

    // Unknown ids.
    EXPECT_EQ(engine.poll(99).status().code(), StatusCode::NotFound);
    EXPECT_EQ(engine.cancel(99).code(), StatusCode::NotFound);
    EXPECT_EQ(engine.resetKv(99).code(), StatusCode::NotFound);
    EXPECT_EQ(engine.kvHistory(99).status().code(), StatusCode::NotFound);

    const auto id = engine.submit({1, 7});
    ASSERT_TRUE(id.ok());

    // Malformed injected input.
    const Status bad = engine.provideInput(id.value(), MatrixD(8, 1));
    EXPECT_EQ(bad.code(), StatusCode::InvalidArgument);

    // Finished requests reject further mutation but stay pollable.
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(id.value()).value().state,
              RequestState::Finished);
    EXPECT_EQ(engine.cancel(id.value()).code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(engine.resetKv(id.value()).code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(engine
                  .provideInput(id.value(),
                                MatrixD(16, 1))
                  .code(),
              StatusCode::FailedPrecondition);
}

/**
 * A NaN or infinite injected input is rejected at the boundary. Were
 * it accepted, the fused step would carry it into every batch-mate's
 * work: the FIGLUT-I pre-alignment throws mid-step, and the FIGLUT-F
 * path builds the shared LUTs from it. After the rejections, the
 * request and its batch-mate must finish exactly as on an engine that
 * never saw the bad input.
 */
TEST(Engine, NonFiniteInputIsRejectedAndTheBatchCompletes)
{
    const auto model = tinyConfig(16, 1, 2, 32);
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (const bool pre : {true, false}) {
        EngineOptions opts = tinyEngineOptions();
        opts.exec.preAligned = pre;
        MatrixD hidden[2][2];
        for (const bool poisoned : {false, true}) {
            auto created = Engine::create(model, opts);
            ASSERT_TRUE(created.ok());
            Engine &engine = *created.value();
            const auto a = engine.submit({3, 1});
            const auto b = engine.submit({3, 2});
            ASSERT_TRUE(a.ok());
            ASSERT_TRUE(b.ok());
            ASSERT_TRUE(engine.step().ok());
            if (poisoned) {
                for (const double v : bad) {
                    MatrixD input(16, 1, 0.5);
                    input(3, 0) = v;
                    EXPECT_EQ(engine.provideInput(a.value(), input).code(),
                              StatusCode::InvalidArgument)
                        << "pre=" << pre << " value=" << v;
                }
            }
            while (engine.liveRequests() > 0)
                ASSERT_TRUE(engine.step().ok()) << "pre=" << pre;
            const RequestId ids[] = {a.value(), b.value()};
            for (int i = 0; i < 2; ++i) {
                const auto snapshot = engine.poll(ids[i]);
                ASSERT_TRUE(snapshot.ok());
                EXPECT_EQ(snapshot.value().state, RequestState::Finished)
                    << "pre=" << pre;
                hidden[poisoned ? 1 : 0][i] = snapshot.value().hidden;
            }
        }
        EXPECT_EQ(hidden[1][0], hidden[0][0]) << "pre=" << pre;
        EXPECT_EQ(hidden[1][1], hidden[0][1]) << "pre=" << pre;
    }
}

TEST(Engine, CancelFreesTheSlotForQueuedTraffic)
{
    EngineOptions opts = tinyEngineOptions();
    opts.maxBatch = 1;
    auto created = Engine::create(tinyConfig(16, 1, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    const auto first = engine.submit({4, 1});
    const auto second = engine.submit({1, 2});
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(engine.liveRequests(), 1u);
    EXPECT_EQ(engine.queuedRequests(), 1u);

    ASSERT_TRUE(engine.cancel(first.value()).ok());
    EXPECT_EQ(engine.liveRequests(), 0u);
    EXPECT_EQ(engine.poll(first.value()).value().state,
              RequestState::Cancelled);

    // Admission stays FIFO: a submit after the cancellation must not
    // jump the earlier queued request into the freed slot.
    const auto third = engine.submit({1, 3});
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(engine.liveRequests(), 0u);
    EXPECT_EQ(engine.queuedRequests(), 2u);

    // With a free slot and a non-empty queue, the scored workload is
    // the prospective batch the next step will admit, not the (empty)
    // active set.
    EXPECT_FALSE(engine.workloadTasks().empty());

    // The next step admits the older request into the freed slot,
    // decodes + retires it, and refills the slot with the younger one
    // (which decodes from the following step).
    const auto stats = engine.step();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().admitted, 2u);
    EXPECT_EQ(stats.value().liveRequests, 1u);
    EXPECT_EQ(stats.value().retired, 1u);
    EXPECT_EQ(engine.poll(second.value()).value().state,
              RequestState::Finished);
    EXPECT_EQ(engine.poll(third.value()).value().state,
              RequestState::Active);
    EXPECT_EQ(engine.poll(third.value()).value().stats.tokensDecoded,
              0u);
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.poll(third.value()).value().state,
              RequestState::Finished);
}

/**
 * A reset with a non-trivial KV history must replay *every* later step
 * bit-identically, not just the first: the KV clear has to reach every
 * layer of the request's sequence.
 */
TEST(Engine, ResetKvRestartsARequestDeterministically)
{
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(tinyConfig(16, 2, 2, 32), opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    const auto id = engine.submit({0, 9}); // unbounded
    ASSERT_TRUE(id.ok());
    const MatrixD input = engine.poll(id.value()).value().hidden;

    constexpr std::size_t kSteps = 3;
    std::vector<MatrixD> firstLife;
    for (std::size_t t = 0; t < kSteps; ++t) {
        ASSERT_TRUE(engine.step().ok());
        firstLife.push_back(engine.poll(id.value()).value().hidden);
    }
    EXPECT_EQ(engine.poll(id.value()).value().kvLength, kSteps);
    const auto firstKv = engine.kvHistory(id.value());
    ASSERT_TRUE(firstKv.ok());

    ASSERT_TRUE(engine.resetKv(id.value()).ok());
    EXPECT_EQ(engine.poll(id.value()).value().kvLength, 0u);
    EXPECT_TRUE(engine.kvHistory(id.value()).value().empty());
    // Re-inject the first input, then let the request feed itself.
    ASSERT_TRUE(engine.provideInput(id.value(), input).ok());
    for (std::size_t t = 0; t < kSteps; ++t) {
        ASSERT_TRUE(engine.step().ok());
        EXPECT_EQ(engine.poll(id.value()).value().hidden, firstLife[t])
            << "step " << t;
    }
    EXPECT_EQ(engine.poll(id.value()).value().kvLength, kSteps);

    // The replayed KV history matches too, across both layers.
    const auto replayKv = engine.kvHistory(id.value());
    ASSERT_TRUE(replayKv.ok());
    EXPECT_EQ(replayKv.value().layers(), 2u);
    EXPECT_EQ(replayKv.value().length(), kSteps);
    EXPECT_GT(replayKv.value().bytes(), 0u);
    EXPECT_EQ(replayKv.value(), firstKv.value());

    ASSERT_TRUE(engine.cancel(id.value()).ok());
}

/**
 * Submits `count` unbounded requests, each self-fed from its own seed,
 * and returns their ids with the first-step inputs.
 */
std::vector<RequestId>
submitUnbounded(Engine &engine, std::size_t count,
                std::vector<MatrixD> &inputs)
{
    std::vector<RequestId> ids;
    for (std::size_t b = 0; b < count; ++b) {
        const auto id = engine.submit({0, 40 + b});
        EXPECT_TRUE(id.ok()) << id.status().toString();
        ids.push_back(id.value());
        inputs.push_back(engine.poll(id.value()).value().hidden);
    }
    return ids;
}

/**
 * A lock-step batch of two requests: every request's KV length grows
 * by one per fused step, and resetting them all restarts the sequence
 * — the same inputs reproduce the first step bit for bit.
 */
TEST(Engine, KvCacheGrowsAndResetRestartsTheSequence)
{
    auto created =
        Engine::create(tinyConfig(16, 1, 2, 32), tinyEngineOptions());
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    std::vector<MatrixD> inputs;
    const auto ids = submitUnbounded(engine, 2, inputs);

    std::vector<MatrixD> first;
    for (const auto id : ids)
        EXPECT_EQ(engine.poll(id).value().kvLength, 0u);
    ASSERT_TRUE(engine.step().ok());
    for (const auto id : ids) {
        EXPECT_EQ(engine.poll(id).value().kvLength, 1u);
        first.push_back(engine.poll(id).value().hidden);
    }
    ASSERT_TRUE(engine.step().ok());
    for (const auto id : ids)
        EXPECT_EQ(engine.poll(id).value().kvLength, 2u);

    for (std::size_t b = 0; b < ids.size(); ++b) {
        ASSERT_TRUE(engine.resetKv(ids[b]).ok());
        EXPECT_EQ(engine.poll(ids[b]).value().kvLength, 0u);
        ASSERT_TRUE(engine.provideInput(ids[b], inputs[b]).ok());
    }
    ASSERT_TRUE(engine.step().ok());
    for (std::size_t b = 0; b < ids.size(); ++b) {
        EXPECT_EQ(engine.poll(ids[b]).value().kvLength, 1u);
        EXPECT_EQ(engine.poll(ids[b]).value().hidden, first[b])
            << "request " << b;
    }
}

/**
 * Resetting every request of a two-layer, two-request batch after three
 * steps replays all three later steps bit-identically for each request,
 * and each request's KV history is rebuilt across both layers.
 */
TEST(Engine, ResetKvMidSequenceReplaysTheWholeSequence)
{
    auto created =
        Engine::create(tinyConfig(16, 2, 2, 32), tinyEngineOptions());
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();
    std::vector<MatrixD> inputs;
    const auto ids = submitUnbounded(engine, 2, inputs);

    constexpr std::size_t kSteps = 3;
    std::vector<std::vector<MatrixD>> firstLife(ids.size());
    for (std::size_t t = 0; t < kSteps; ++t) {
        ASSERT_TRUE(engine.step().ok());
        for (std::size_t b = 0; b < ids.size(); ++b)
            firstLife[b].push_back(engine.poll(ids[b]).value().hidden);
    }

    for (std::size_t b = 0; b < ids.size(); ++b) {
        EXPECT_EQ(engine.poll(ids[b]).value().kvLength, kSteps);
        ASSERT_TRUE(engine.resetKv(ids[b]).ok());
        ASSERT_TRUE(engine.provideInput(ids[b], inputs[b]).ok());
    }
    for (std::size_t t = 0; t < kSteps; ++t) {
        ASSERT_TRUE(engine.step().ok());
        for (std::size_t b = 0; b < ids.size(); ++b)
            EXPECT_EQ(engine.poll(ids[b]).value().hidden, firstLife[b][t])
                << "request " << b << " step " << t;
    }

    for (const auto id : ids) {
        EXPECT_EQ(engine.poll(id).value().kvLength, kSteps);
        const auto kv = engine.kvHistory(id);
        ASSERT_TRUE(kv.ok()) << kv.status().toString();
        EXPECT_EQ(kv.value().layers(), 2u);
        EXPECT_EQ(kv.value().length(), kSteps);
        EXPECT_GT(kv.value().bytes(), 0u);
    }
}

/**
 * QuantizedModelOptions::maxLayers truncates the materialized model,
 * and the engine's emitted workload follows the truncated config: the
 * next step's KernelTask list equals decodeStepWorkload for it,
 * element for element, carrying the quantization geometry onto every
 * GEMM.
 */
TEST(Engine, MaxLayersTruncatesModelAndWorkload)
{
    const auto model = tinyConfig(16, 5, 2, 32);
    for (const bool includeVector : {true, false}) {
        EngineOptions opts = tinyEngineOptions();
        opts.model.maxLayers = 2;
        opts.model.weightBits = 2;
        opts.model.groupSize = 16;
        opts.model.useOffset = false;
        opts.includeVector = includeVector;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok()) << created.status().toString();
        Engine &engine = *created.value();
        EXPECT_EQ(engine.model().layers(), 2u);
        EXPECT_EQ(engine.model().config().layers, 2u);
        EXPECT_GT(engine.model().storageBytes(), 0u);
        EXPECT_GT(engine.model().packedKeyBytes(), 0u);

        ASSERT_TRUE(engine.submit({2, 4}).ok());
        ASSERT_TRUE(engine.submit({2, 5}).ok());
        WorkloadOptions wl;
        wl.batch = 2;
        wl.weightBits = 2;
        wl.groupSize = 16;
        wl.hasOffset = false;
        wl.includeVector = includeVector;
        const auto tasks = engine.workloadTasks();
        expectTasksEqual(tasks,
                         decodeStepWorkload(engine.model().config(), wl,
                                            std::vector<std::size_t>{1, 1}));
        EXPECT_EQ(tasks.size(), (includeVector ? 10u : 4u) * 2u);

        const auto stats = engine.step();
        ASSERT_TRUE(stats.ok());
        EXPECT_EQ(stats.value().gemmCalls, 4u * 2u);
    }
}

TEST(Engine, WorkloadTasksTrackTheLiveRaggedBatch)
{
    const auto model = tinyConfig(16, 2, 2, 32);
    EngineOptions opts = tinyEngineOptions();
    auto created = Engine::create(model, opts);
    ASSERT_TRUE(created.ok());
    Engine &engine = *created.value();

    EXPECT_TRUE(engine.workloadTasks().empty());

    const auto shortReq = engine.submit({1, 1});
    const auto longReq = engine.submit({3, 2});
    ASSERT_TRUE(shortReq.ok());
    ASSERT_TRUE(longReq.ok());

    // Fresh batch: 2 live requests, both about to attend 1 entry.
    WorkloadOptions wl;
    wl.batch = 2;
    wl.weightBits = opts.model.weightBits;
    wl.groupSize = opts.model.groupSize;
    wl.hasOffset = opts.model.useOffset;
    auto tasks = engine.workloadTasks();
    auto expected =
        decodeStepWorkload(model, wl, std::vector<std::size_t>{1, 1});
    ASSERT_EQ(tasks.size(), expected.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].kind, expected[i].kind) << "task " << i;
        if (tasks[i].kind == KernelTask::Kind::Gemm) {
            EXPECT_EQ(tasks[i].gemm.batch, 2u);
        } else {
            EXPECT_EQ(tasks[i].vector.adds, expected[i].vector.adds)
                << "task " << i;
            EXPECT_EQ(tasks[i].vector.muls, expected[i].vector.muls)
                << "task " << i;
            EXPECT_EQ(tasks[i].vector.specials,
                      expected[i].vector.specials)
                << "task " << i;
        }
    }

    // One step retires the short request; the survivor is now one
    // batch column attending over 2 entries next step.
    ASSERT_TRUE(engine.step().ok());
    EXPECT_EQ(engine.liveRequests(), 1u);
    wl.batch = 1;
    tasks = engine.workloadTasks();
    expected =
        decodeStepWorkload(model, wl, std::vector<std::size_t>{2});
    ASSERT_EQ(tasks.size(), expected.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].kind == KernelTask::Kind::Vector) {
            EXPECT_EQ(tasks[i].vector.total(),
                      expected[i].vector.total())
                << "task " << i;
        }
    }

    // A request joining mid-flight widens the scored batch again:
    // one aged column (ctx 3 after this step) + one fresh column.
    // Budget 2, so it outlives the fused step below and the engine is
    // still live for the simulate() check at the end.
    ASSERT_TRUE(engine.step().ok());
    const auto joined = engine.submit({2, 3});
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(engine.queuedRequests(), 0u); // free slot, direct admit
    wl.batch = 2;
    tasks = engine.workloadTasks();
    expected =
        decodeStepWorkload(model, wl, std::vector<std::size_t>{3, 1});
    ASSERT_EQ(tasks.size(), expected.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].kind == KernelTask::Kind::Vector) {
            EXPECT_EQ(tasks[i].vector.total(),
                      expected[i].vector.total())
                << "task " << i;
        }
    }
    const auto fused = engine.step();
    ASSERT_TRUE(fused.ok());
    EXPECT_EQ(fused.value().liveRequests, 2u);

    // The scored workload is the emitted one.
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const auto sim = engine.simulate(hw);
    EXPECT_GT(sim.totalCycles, 0.0);
    const Accelerator acc(hw);
    const auto direct = acc.runWorkload(engine.workloadTasks());
    EXPECT_EQ(sim.totalCycles, direct.totalCycles);
}

TEST(Engine, BackendsAgreeOnTheFusedPath)
{
    // The fused step through Reference and Simd must be bit-identical
    // (Simd is the only backend consuming pre-packed keys). Hidden 24
    // makes the QKV GEMM 72 rows: a full 64-row tile plus a tail.
    const auto model = tinyConfig(24, 1, 2, 48);
    MatrixD outputs[2];
    const LutGemmBackend backends[] = {LutGemmBackend::Reference,
                                       LutGemmBackend::Simd};
    for (int i = 0; i < 2; ++i) {
        EngineOptions opts = tinyEngineOptions();
        opts.model.bcqIterations = 1;
        opts.exec.backend = backends[i];
        opts.exec.threads = 2;
        auto created = Engine::create(model, opts);
        ASSERT_TRUE(created.ok());
        Engine &engine = *created.value();
        if (backends[i] == LutGemmBackend::Simd)
            EXPECT_GT(engine.model().packedKeyBytes(), 0u);
        else
            EXPECT_EQ(engine.model().packedKeyBytes(), 0u);
        const auto a = engine.submit({2, 5});
        const auto b = engine.submit({2, 6});
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_TRUE(engine.step().ok());
        ASSERT_TRUE(engine.step().ok());
        outputs[i] = engine.poll(a.value()).value().hidden;
        EXPECT_EQ(engine.poll(b.value()).value().state,
                  RequestState::Finished);
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

} // namespace
} // namespace serve
} // namespace figlut
