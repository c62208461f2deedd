/** @file Host merge / convergence cost model. */

#include <gtest/gtest.h>

#include "upmem/host_model.hh"

using namespace alphapim;
using namespace alphapim::upmem;

TEST(HostModel, MergeHasFloorOverhead)
{
    HostConfig cfg;
    HostModel model(cfg);
    EXPECT_GE(model.mergeTime(0, 0), cfg.passOverhead);
}

TEST(HostModel, MergeMonotonicInBytesAndOps)
{
    HostConfig cfg;
    HostModel model(cfg);
    EXPECT_LT(model.mergeTime(1 << 10, 100),
              model.mergeTime(1 << 24, 100));
    EXPECT_LT(model.mergeTime(1 << 10, 100),
              model.mergeTime(1 << 10, 1'000'000'000ull));
}

TEST(HostModel, MoreCoresMergeFaster)
{
    HostConfig few;
    few.cores = 2;
    HostConfig many;
    many.cores = 32;
    HostModel slow(few), fast(many);
    const std::uint64_t ops = 1'000'000'000ull;
    EXPECT_GT(slow.mergeTime(0, ops), fast.mergeTime(0, ops));
}

TEST(HostModel, ConvergenceScalesWithVector)
{
    HostConfig cfg;
    HostModel model(cfg);
    EXPECT_LT(model.convergenceTime(1 << 10),
              model.convergenceTime(1 << 26));
}

TEST(HostModel, OutlivesATemporaryConfig)
{
    // The model keeps its own copy of the configuration, so one
    // built from a temporary stays valid after the temporary dies.
    HostConfig named;
    named.cores = 3;
    const HostModel from_named(named);
    const HostModel from_temporary{[] {
        HostConfig cfg;
        cfg.cores = 3;
        return cfg;
    }()};
    EXPECT_EQ(from_temporary.config().cores, 3u);
    EXPECT_EQ(from_temporary.mergeTime(1 << 20, 1 << 20),
              from_named.mergeTime(1 << 20, 1 << 20));
}
