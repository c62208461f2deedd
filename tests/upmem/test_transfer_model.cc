/** @file Host <-> DPU transfer cost model properties. */

#include <gtest/gtest.h>

#include "upmem/transfer_model.hh"

using namespace alphapim;
using namespace alphapim::upmem;

namespace
{

TransferConfig
testConfig()
{
    TransferConfig cfg;
    return cfg;
}

} // namespace

TEST(TransferModel, ZeroBytesIsFree)
{
    const auto cfg = testConfig();
    TransferModel model(cfg);
    EXPECT_EQ(model.scatterGather({0, 0, 0},
                                  TransferDirection::HostToDpu),
              0.0);
    EXPECT_EQ(model.broadcast(0, 64), 0.0);
}

TEST(TransferModel, MonotonicInBytes)
{
    const auto cfg = testConfig();
    TransferModel model(cfg);
    const auto t1 = model.uniformScatter(1024, 128,
                                         TransferDirection::HostToDpu);
    const auto t2 = model.uniformScatter(4096, 128,
                                         TransferDirection::HostToDpu);
    EXPECT_LT(t1, t2);
}

TEST(TransferModel, BroadcastCostIndependentOfDpuCountAcrossRanks)
{
    const auto cfg = testConfig();
    TransferModel model(cfg);
    // Full ranks transfer in parallel: broadcasting to 1 rank or 8
    // ranks costs the same bus time.
    const auto t64 = model.broadcast(1 << 20, 64);
    const auto t512 = model.broadcast(1 << 20, 512);
    EXPECT_NEAR(t64, t512, 1e-12);
}

TEST(TransferModel, ScatterPaysPerDpuSetup)
{
    auto cfg = testConfig();
    cfg.perDpuSetup = 1e-6;
    TransferModel model(cfg);
    const auto t_small = model.uniformScatter(64, 64,
                                              TransferDirection::HostToDpu);
    const auto t_many = model.uniformScatter(64, 2048,
                                             TransferDirection::HostToDpu);
    // 2048 distinct buffers dominate via setup cost.
    EXPECT_GT(t_many, t_small + 1.9e-3);
}

TEST(TransferModel, BroadcastBeatsScatterOfSameReplicatedData)
{
    const auto cfg = testConfig();
    TransferModel model(cfg);
    const Bytes vec = 1 << 20;
    const auto bcast = model.broadcast(vec, 2048);
    const auto scatter = model.uniformScatter(
        vec, 2048, TransferDirection::HostToDpu);
    // Replicating the same 1 MiB to every DPU via scatter pays both
    // per-DPU setup and the host copy of 2 GiB.
    EXPECT_LT(bcast, scatter);
}

TEST(TransferModel, RankPaddingUsesMaxBufferPerRank)
{
    const auto cfg = testConfig();
    TransferModel model(cfg);
    // One big buffer in the rank forces padding for all 64.
    std::vector<Bytes> skewed(64, 16);
    skewed[5] = 1 << 20;
    std::vector<Bytes> uniform(64, 16);
    const auto t_skewed =
        model.scatterGather(skewed, TransferDirection::HostToDpu);
    const auto t_uniform =
        model.scatterGather(uniform, TransferDirection::HostToDpu);
    EXPECT_GT(t_skewed, t_uniform * 10);
}

TEST(TransferModel, RetrieveDirectionUsesItsOwnBandwidth)
{
    auto cfg = testConfig();
    cfg.rankBwHostToDpu = 1e9;
    cfg.rankBwDpuToHost = 0.5e9;
    cfg.perDpuSetup = 0;
    cfg.launchLatency = 0;
    cfg.hostCopyBw = 1e18; // irrelevant
    TransferModel model(cfg);
    const auto down = model.uniformScatter(
        1 << 20, 64, TransferDirection::HostToDpu);
    const auto up = model.uniformScatter(
        1 << 20, 64, TransferDirection::DpuToHost);
    EXPECT_NEAR(up, 2.0 * down, 1e-9);
}

TEST(TransferModel, OutlivesATemporaryConfig)
{
    // The model keeps its own copy of the configuration, so one
    // built from a temporary stays valid after the temporary dies.
    TransferConfig named;
    named.dpusPerRank = 8;
    const TransferModel from_named(named);
    const TransferModel from_temporary{[] {
        TransferConfig cfg;
        cfg.dpusPerRank = 8;
        return cfg;
    }()};
    EXPECT_EQ(from_temporary.config().dpusPerRank, 8u);
    const std::vector<Bytes> sizes(64, 4096);
    EXPECT_EQ(from_temporary.scatterGather(
                  sizes, TransferDirection::HostToDpu),
              from_named.scatterGather(sizes,
                                       TransferDirection::HostToDpu));
}
