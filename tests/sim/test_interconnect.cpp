/**
 * @file
 * The simulator's interconnect cost model. The Accelerator prices one
 * combine per row-sharded GEMM task (b_eff style: latency + bytes over
 * effective bandwidth); these tests pin the closed form, its
 * monotonicity in the shard count, and that a sharded replay prices
 * the combine into every step.
 */

#include <gtest/gtest.h>

#include "figlut/figlut.h"

namespace figlut {
namespace {

OptConfig
tinyModel()
{
    OptConfig model;
    model.name = "OPT-shard-replay-test";
    model.hidden = 64;
    model.layers = 1;
    model.heads = 2;
    model.ffn = 128;
    return model;
}

HwConfig
testHw()
{
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    return hw;
}

KernelTask
gemmTask(std::size_t m, std::size_t n, std::size_t batch, int shards)
{
    GemmShape shape;
    shape.m = m;
    shape.n = n;
    shape.batch = batch;
    shape.weightBits = 4;
    KernelTask task = KernelTask::makeGemm("gemm", shape);
    task.shards = shards;
    return task;
}

TEST(InterconnectModel, UnshardedGemmPaysNoCombine)
{
    const Accelerator acc(testHw());
    const auto result = acc.runWorkload({gemmTask(64, 64, 4, 1)});
    EXPECT_EQ(result.commCycles, 0.0);
    EXPECT_EQ(result.commBytes, 0.0);
}

TEST(InterconnectModel, CombinePricesLatencyPlusBytesOverBandwidth)
{
    const HwConfig hw = testHw();
    const Accelerator acc(hw);
    const std::size_t m = 64, n = 48, batch = 4;
    const int shards = 3;
    const auto result =
        acc.runWorkload({gemmTask(m, n, batch, shards)});

    // Closed form: broadcast the activation panel to shards-1 remote
    // groups, gather their (shards-1)/shards share of the output rows.
    const double store = storageBits(hw.actFormat) / 8.0;
    const double remote = shards - 1;
    const double bytes =
        (static_cast<double>(n) * batch * remote +
         static_cast<double>(m) * batch * remote / shards) *
        store;
    const double commS =
        hw.interconnect.latencyS +
        bytes / hw.interconnect.bandwidthBytesPerS;
    EXPECT_DOUBLE_EQ(result.commBytes, bytes);
    EXPECT_DOUBLE_EQ(result.commCycles,
                     commS * hw.tech.freqMhz * 1e6);

    // The combine is additive on top of the identical compute.
    const auto unsharded = acc.runWorkload({gemmTask(m, n, batch, 1)});
    EXPECT_DOUBLE_EQ(result.gemmCycles, unsharded.gemmCycles);
    EXPECT_DOUBLE_EQ(result.totalCycles,
                     unsharded.totalCycles + result.commCycles);
}

TEST(InterconnectModel, CombineCostGrowsWithShardCount)
{
    const Accelerator acc(testHw());
    double lastComm = 0.0;
    for (const int shards : {1, 2, 4, 8}) {
        const auto result =
            acc.runWorkload({gemmTask(128, 128, 8, shards)});
        EXPECT_GE(result.commCycles, lastComm) << shards;
        if (shards > 1) {
            EXPECT_GT(result.commCycles, lastComm) << shards;
        }
        lastComm = result.commCycles;
    }
}

TEST(InterconnectModel, ValidationRejectsNonsense)
{
    HwConfig hw = testHw();
    hw.interconnect.latencyS = -1.0;
    EXPECT_THROW(hw.validate(), FatalError);
    hw = testHw();
    hw.interconnect.bandwidthBytesPerS = 0.0;
    EXPECT_THROW(hw.validate(), FatalError);
}

TEST(ShardReplay, ShardedReplayIsSlowerThanUnsharded)
{
    ReplayOptions options;
    options.maxBatch = 2;
    options.maxQueue = 4;
    const std::vector<ReplayRequest> trace{
        {0.0, 4, 3}, {0.0, 6, 2}, {1e-4, 3, 2}};
    const auto base =
        replayTrace(tinyModel(), testHw(), options, trace);
    options.shards = 4;
    const auto sharded =
        replayTrace(tinyModel(), testHw(), options, trace);
    // Same schedule shape, strictly more simulated time per step: the
    // comm term prices in, compute does not change.
    ASSERT_EQ(sharded.steps, base.steps);
    EXPECT_GT(sharded.endS, base.endS);
    for (std::size_t s = 0; s < base.stepSeconds.size(); ++s)
        EXPECT_GT(sharded.stepSeconds[s], base.stepSeconds[s]) << s;
}

} // namespace
} // namespace figlut
