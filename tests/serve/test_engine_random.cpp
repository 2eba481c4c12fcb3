/**
 * @file
 * Seeded, model-based random test of the Engine API: random
 * interleavings of submit, step, cancel, resetKv, provideInput and
 * poll (unknown ids, NaN inputs and invalid deadlines included) under
 * randomly drawn budgets, degradation policies, fault injectors,
 * deadlines and prefill chunk sizes, on a VirtualClock and a tiny
 * model. After every call the suite checks the item-level invariants
 * of the serving surface:
 *
 *  - no call throws, and every call's Status is the one the model
 *    predicts (NotFound for unknown ids, FailedPrecondition on retired
 *    requests, ResourceExhausted exactly when the queue is full);
 *  - liveRequests() + queuedRequests() equals the number of polled ids
 *    in Queued or Active;
 *  - every terminal state carries its matching Status code (Finished
 *    -> OK) and no live request carries an error;
 *  - arena().blocksInUse() equals layers x sum(ceil(kvLength /
 *    blockTokens)) over non-terminal requests — no block leaks and no
 *    request reads KV it does not hold;
 *  - a drained engine holds zero blocks.
 */

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/engine.h"

namespace figlut {
namespace serve {
namespace {

OptConfig
randomTestModel()
{
    OptConfig cfg;
    cfg.name = "OPT-random-test";
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.heads = 2;
    cfg.ffn = 16;
    return cfg;
}

/** One run's randomly drawn engine configuration. */
struct RandomConfig
{
    EngineOptions options;
    std::unique_ptr<CountingFaultInjector> faults;
    bool deadlines = false;
};

RandomConfig
drawConfig(Rng &rng, const OptConfig &model, VirtualClock &clock)
{
    RandomConfig cfg;
    EngineOptions &opts = cfg.options;
    opts.model.bcqIterations = 0;
    opts.model.weightBits = rng.flip() ? 2 : 3;
    opts.clock = &clock;
    opts.maxBatch = static_cast<std::size_t>(rng.uniformInt(1, 4));
    opts.maxQueue = static_cast<std::size_t>(rng.uniformInt(0, 4));
    const std::size_t chunks[] = {0, 2, 64};
    opts.prefillChunkTokens = chunks[rng.uniformInt(0, 2)];
    opts.kvBlockTokens = static_cast<std::size_t>(rng.uniformInt(1, 4));
    if (rng.uniformInt(0, 2) > 0) {
        // Between one and eight blocks per layer: tight enough that
        // the reservation pass sheds or evicts mid-run.
        const std::size_t blockBytes =
            opts.kvBlockTokens * 2 * model.hidden * sizeof(double);
        opts.kvBudgetBytes = blockBytes * model.layers *
                             static_cast<std::size_t>(rng.uniformInt(1, 8));
    }
    opts.policy = rng.flip() ? DegradationPolicy::EvictLongestIdle
                             : DegradationPolicy::ShedNewest;
    if (rng.flip()) {
        const std::uint64_t failEvery = rng.uniformInt(0, 1) == 0
                                            ? 0
                                            : rng.uniformInt(3, 9);
        cfg.faults = std::make_unique<CountingFaultInjector>(
            failEvery, rng.flip() ? 0.05 : 0.0);
        opts.faults = cfg.faults.get();
    }
    opts.retainFinishedKv = rng.flip();
    cfg.deadlines = rng.flip();
    return cfg;
}

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

StatusCode
expectedTerminalCode(RequestState state)
{
    switch (state) {
      case RequestState::Cancelled: return StatusCode::Cancelled;
      case RequestState::Shed: return StatusCode::ResourceExhausted;
      case RequestState::DeadlineExceeded:
        return StatusCode::DeadlineExceeded;
      default: return StatusCode::Ok;
    }
}

/** The engine plus the client's model of it: every id ever issued. */
class RandomClient
{
  public:
    explicit RandomClient(std::uint64_t seed)
        : rng_(seed), model_(randomTestModel()),
          cfg_(drawConfig(rng_, model_, clock_))
    {
        auto created = Engine::create(model_, cfg_.options);
        EXPECT_TRUE(created.ok()) << created.status().toString();
        if (created.ok())
            engine_ = std::move(created.value());
    }

    bool ready() const { return engine_ != nullptr; }

    /** Run one random API call and check the invariants after it. */
    void randomCall(std::size_t index)
    {
        const int op = static_cast<int>(rng_.uniformInt(0, 99));
        if (rng_.uniformInt(0, 3) == 0)
            clock_.advance(rng_.uniform(0.0, 0.02));
        if (op < 25)
            submit();
        else if (op < 60)
            step();
        else if (op < 68)
            cancel();
        else if (op < 74)
            resetKv();
        else if (op < 84)
            provideInput();
        else
            poll();
        checkInvariants(index);
    }

    /** Step until nothing is live or queued; cancel what is left. */
    void drain()
    {
        for (std::size_t i = 0; i < 400 && pending() > 0; ++i) {
            step();
            checkInvariants(i);
        }
        for (const RequestId id : ids_) {
            const auto snap = engine_->poll(id);
            ASSERT_TRUE(snap.ok());
            if (!requestStateTerminal(snap.value().state)) {
                EXPECT_TRUE(engine_->cancel(id).ok()) << id;
            }
        }
        checkInvariants(0);
        EXPECT_EQ(engine_->liveRequests(), 0u);
        EXPECT_EQ(engine_->queuedRequests(), 0u);
        EXPECT_EQ(engine_->arena().blocksInUse(), 0u);
        EXPECT_EQ(engine_->arena().bytesInUse(), 0u);
    }

  private:
    std::size_t pending() const
    {
        return engine_->liveRequests() + engine_->queuedRequests();
    }

    /** A known id most of the time, an unknown one otherwise. */
    RequestId pickId()
    {
        if (ids_.empty() || rng_.uniformInt(0, 5) == 0)
            return rng_.flip() ? 0 : ids_.size() + 1000;
        return ids_[rng_.uniformInt(0, ids_.size() - 1)];
    }

    bool known(RequestId id) const
    {
        return std::find(ids_.begin(), ids_.end(), id) != ids_.end();
    }

    RequestState stateOf(RequestId id) const
    {
        return engine_->poll(id).value().state;
    }

    void submit()
    {
        RequestOptions req;
        req.maxTokens = static_cast<std::size_t>(rng_.uniformInt(0, 4));
        if (req.maxTokens == 0 && rng_.uniformInt(0, 3) != 0)
            req.maxTokens = 1; // unbounded requests stay rare
        req.promptTokens = static_cast<std::size_t>(rng_.uniformInt(0, 6));
        req.seed = rng_.next();
        bool invalid = false;
        if (cfg_.deadlines && rng_.flip())
            req.deadlineS = rng_.uniform(0.005, 0.1);
        if (rng_.uniformInt(0, 15) == 0) {
            const double bad[] = {-1.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()};
            req.deadlineS = bad[rng_.uniformInt(0, 2)];
            invalid = true;
        }
        const bool direct = engine_->liveRequests() <
                                cfg_.options.maxBatch &&
                            engine_->queuedRequests() == 0;
        const bool full =
            !direct &&
            engine_->queuedRequests() >= cfg_.options.maxQueue;
        const auto id = engine_->submit(req);
        if (invalid) {
            EXPECT_EQ(id.status().code(), StatusCode::InvalidArgument);
            return;
        }
        if (full) {
            EXPECT_EQ(id.status().code(), StatusCode::ResourceExhausted);
            return;
        }
        ASSERT_TRUE(id.ok()) << id.status().toString();
        ids_.push_back(id.value());
        EXPECT_EQ(stateOf(id.value()),
                  direct ? RequestState::Active : RequestState::Queued);
    }

    void step()
    {
        const bool idle = pending() == 0;
        const auto stats = engine_->step();
        if (idle) {
            EXPECT_EQ(stats.status().code(),
                      StatusCode::FailedPrecondition);
            return;
        }
        ASSERT_TRUE(stats.ok()) << stats.status().toString();
        const StepStats &s = stats.value();
        EXPECT_EQ(s.kvBlocksInUse, engine_->arena().blocksInUse());
        EXPECT_EQ(s.queueDepth, engine_->queuedRequests());
        EXPECT_EQ(s.columnContexts.size(),
                  s.prefillTokens + s.decodeTokens);
        EXPECT_EQ(s.decodedIds.size(), s.decodeTokens);
        for (const RequestId id : s.shedIds)
            EXPECT_EQ(stateOf(id), RequestState::Shed) << id;
        for (const RequestId id : s.deadlineIds)
            EXPECT_EQ(stateOf(id), RequestState::DeadlineExceeded) << id;
        for (const RequestId id : s.evictedIds)
            EXPECT_GT(engine_->poll(id).value().stats.preemptions, 0u);
    }

    void cancel()
    {
        const RequestId id = pickId();
        const Status s = engine_->cancel(id);
        if (!known(id)) {
            EXPECT_EQ(s.code(), StatusCode::NotFound);
            return;
        }
        if (s.ok()) {
            EXPECT_EQ(stateOf(id), RequestState::Cancelled);
            return;
        }
        EXPECT_EQ(s.code(), StatusCode::FailedPrecondition);
        EXPECT_TRUE(requestStateTerminal(stateOf(id)));
    }

    void resetKv()
    {
        const RequestId id = pickId();
        const Status s = engine_->resetKv(id);
        if (!known(id)) {
            EXPECT_EQ(s.code(), StatusCode::NotFound);
            return;
        }
        if (requestStateTerminal(stateOf(id))) {
            EXPECT_EQ(s.code(), StatusCode::FailedPrecondition);
            return;
        }
        EXPECT_TRUE(s.ok()) << s.toString();
        EXPECT_EQ(engine_->poll(id).value().kvLength, 0u);
    }

    void provideInput()
    {
        const RequestId id = pickId();
        const std::size_t h = model_.hidden;
        const bool wrongShape = rng_.uniformInt(0, 9) == 0;
        MatrixD x(wrongShape ? h + 1 : h, 1);
        for (std::size_t r = 0; r < x.rows(); ++r)
            x(r, 0) = rng_.uniform(-1.0, 1.0);
        const bool nan = rng_.uniformInt(0, 3) == 0;
        if (nan)
            x(rng_.uniformInt(0, x.rows() - 1), 0) =
                rng_.flip() ? std::numeric_limits<double>::quiet_NaN()
                            : -std::numeric_limits<double>::infinity();
        const Status s = engine_->provideInput(id, x);
        if (!known(id))
            EXPECT_EQ(s.code(), StatusCode::NotFound);
        else if (requestStateTerminal(stateOf(id)))
            EXPECT_EQ(s.code(), StatusCode::FailedPrecondition);
        else if (wrongShape || nan)
            EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
        else
            EXPECT_TRUE(s.ok()) << s.toString();
    }

    void poll()
    {
        const RequestId id = pickId();
        const auto snap = engine_->poll(id);
        if (!known(id))
            EXPECT_EQ(snap.status().code(), StatusCode::NotFound);
        else
            EXPECT_TRUE(snap.ok());
        EXPECT_EQ(engine_->kvHistory(id).ok(), known(id));
    }

    void checkInvariants(std::size_t index)
    {
        SCOPED_TRACE("after call " + std::to_string(index));
        std::size_t pendingIds = 0, expectedBlocks = 0;
        const std::size_t bt = cfg_.options.kvBlockTokens;
        for (const RequestId id : ids_) {
            const auto snap = engine_->poll(id);
            ASSERT_TRUE(snap.ok()) << id;
            const RequestSnapshot &s = snap.value();
            EXPECT_EQ(s.terminal.code(), expectedTerminalCode(s.state))
                << id << " " << requestStateName(s.state);
            if (requestStateTerminal(s.state))
                continue;
            EXPECT_TRUE(s.state == RequestState::Queued ||
                        s.state == RequestState::Active)
                << requestStateName(s.state);
            ++pendingIds;
            expectedBlocks += model_.layers * ceilDiv(s.kvLength, bt);
        }
        EXPECT_EQ(pending(), pendingIds);
        EXPECT_EQ(engine_->arena().blocksInUse(), expectedBlocks);
    }

    Rng rng_;
    OptConfig model_;
    VirtualClock clock_;
    RandomConfig cfg_;
    std::unique_ptr<Engine> engine_;
    std::vector<RequestId> ids_;
};

class EngineRandomTest : public ::testing::TestWithParam<int>
{};

TEST_P(EngineRandomTest, InvariantsHoldUnderRandomCalls)
{
    RandomClient client(0x5EED0000u + static_cast<std::uint64_t>(GetParam()));
    ASSERT_TRUE(client.ready());
    try {
        for (std::size_t i = 0; i < 300; ++i) {
            client.randomCall(i);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        client.drain();
    } catch (const std::exception &e) {
        FAIL() << "engine call threw: " << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomTest, ::testing::Range(0, 24));

} // namespace
} // namespace serve
} // namespace figlut
