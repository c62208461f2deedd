/**
 * @file
 * PIM application tests: results must match the reference
 * implementations on random graphs for every strategy, and the
 * iteration logs must reflect the paper's structural expectations
 * (rising then falling frontier density, convergence, phase times).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "apps/graph_apps.hh"
#include "apps/reference_algorithms.hh"
#include "common/random.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"

using namespace alphapim;
using namespace alphapim::apps;

namespace
{

upmem::UpmemSystem
testSystem(unsigned dpus = 16)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpu.tasklets = 8;
    return upmem::UpmemSystem(cfg);
}

sparse::CooMatrix<float>
socialGraph(std::uint64_t seed)
{
    Rng rng(seed);
    const auto list = sparse::generateScaleMatched(600, 8, 25, rng);
    return sparse::edgeListToSymmetricCoo(list);
}

sparse::CooMatrix<float>
roadGraph(std::uint64_t seed)
{
    Rng rng(seed);
    const auto list = sparse::generateRoadLattice(400, 600, rng);
    return sparse::edgeListToSymmetricCoo(list);
}

struct StrategyCase
{
    core::MxvStrategy strategy;
};

class AppsAcrossStrategies
    : public testing::TestWithParam<StrategyCase>
{
};

std::string
strategyName(const testing::TestParamInfo<StrategyCase> &info)
{
    std::string s = core::mxvStrategyName(info.param.strategy);
    for (char &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

} // namespace

TEST_P(AppsAcrossStrategies, BfsMatchesReference)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(1);
    const NodeId source = sparse::largestComponentVertex(adj);
    AppConfig cfg;
    cfg.strategy = GetParam().strategy;

    const auto result = runBfs(sys, adj, source, cfg);
    const auto expected = referenceBfs(adj, source);
    EXPECT_EQ(result.levels, expected);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.iterations.size(), 1u);
    EXPECT_GT(result.total.total(), 0.0);
}

TEST_P(AppsAcrossStrategies, SsspMatchesReference)
{
    Rng rng(2);
    const auto pattern = socialGraph(2);
    const auto weighted =
        sparse::assignSymmetricWeights(pattern, 1, 32, rng);
    const auto sys = testSystem();
    const NodeId source = sparse::largestComponentVertex(pattern);
    AppConfig cfg;
    cfg.strategy = GetParam().strategy;

    const auto result = runSssp(sys, weighted, source, cfg);
    const auto expected = referenceSssp(weighted, source);
    ASSERT_EQ(result.distances.size(), expected.size());
    for (NodeId v = 0; v < expected.size(); ++v) {
        if (std::isinf(expected[v]))
            EXPECT_TRUE(std::isinf(result.distances[v]));
        else
            EXPECT_NEAR(result.distances[v], expected[v], 1e-3);
    }
    EXPECT_TRUE(result.converged);
}

TEST_P(AppsAcrossStrategies, PprMatchesReference)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(3);
    const NodeId source = sparse::largestComponentVertex(adj);
    AppConfig cfg;
    cfg.strategy = GetParam().strategy;
    cfg.pprIterations = 15;
    cfg.pprTolerance = 0.0; // fixed-iteration mode

    const auto result = runPpr(sys, adj, source, cfg);
    const auto expected = referencePpr(adj, source, cfg.pprAlpha, 15);
    ASSERT_EQ(result.ranks.size(), expected.size());
    for (NodeId v = 0; v < expected.size(); ++v)
        EXPECT_NEAR(result.ranks[v], expected[v], 1e-3);
    EXPECT_EQ(result.iterations.size(), 15u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AppsAcrossStrategies,
    testing::Values(StrategyCase{core::MxvStrategy::Adaptive},
                    StrategyCase{core::MxvStrategy::SpmspvOnly},
                    StrategyCase{core::MxvStrategy::SpmvOnly}),
    strategyName);

TEST(BfsBehaviour, FrontierDensityRisesThenFalls)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(4);
    const NodeId source = sparse::largestComponentVertex(adj);
    const auto result = runBfs(sys, adj, source);

    double peak = 0.0;
    for (const auto &log : result.iterations)
        peak = std::max(peak, log.inputDensity);
    // Scale-free frontier explodes beyond the initial density, then
    // the last iteration collapses.
    EXPECT_GT(peak, result.iterations.front().inputDensity);
    EXPECT_LT(result.iterations.back().outputDensity, peak);
}

TEST(BfsBehaviour, AdaptiveSwitchesOnDenseFrontier)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(5);
    const NodeId source = sparse::largestComponentVertex(adj);
    AppConfig cfg;
    cfg.switchThreshold = 0.10; // force an early switch
    const auto result = runBfs(sys, adj, source, cfg);
    EXPECT_GT(result.spmvLaunches, 0u);
    EXPECT_GT(result.spmspvLaunches, 0u);
}

TEST(BfsBehaviour, RoadGraphHasManyLowDensityIterations)
{
    const auto sys = testSystem(8);
    const auto adj = roadGraph(6);
    const NodeId source = sparse::largestComponentVertex(adj);
    const auto result = runBfs(sys, adj, source);
    EXPECT_GT(result.iterations.size(), 10u);
    double peak = 0.0;
    for (const auto &log : result.iterations)
        peak = std::max(peak, log.inputDensity);
    EXPECT_LT(peak, 0.35); // road frontiers stay sparse
}

TEST(SsspBehaviour, TakesAtLeastAsManyIterationsAsBfs)
{
    Rng rng(7);
    const auto pattern = socialGraph(7);
    const auto weighted =
        sparse::assignSymmetricWeights(pattern, 1, 64, rng);
    const auto sys = testSystem();
    const NodeId source = sparse::largestComponentVertex(pattern);
    const auto bfs = runBfs(sys, pattern, source);
    const auto sssp = runSssp(sys, weighted, source);
    EXPECT_GE(sssp.iterations.size(), bfs.iterations.size());
}

TEST(PprBehaviour, EarlyExitOnTolerance)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(8);
    const NodeId source = sparse::largestComponentVertex(adj);
    AppConfig cfg;
    cfg.pprIterations = 100;
    cfg.pprTolerance = 1e-2;
    const auto result = runPpr(sys, adj, source, cfg);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.iterations.size(), 100u);
}

TEST(PprBehaviour, FloatHeavyInstructionMix)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(9);
    const NodeId source = sparse::largestComponentVertex(adj);
    const auto ppr = runPpr(sys, adj, source);
    const auto bfs = runBfs(sys, adj, source);

    using upmem::OpClass;
    const auto ppr_fmul =
        ppr.profile.aggregate.instrByClass[static_cast<std::size_t>(
            OpClass::FloatMul)];
    const auto bfs_fmul =
        bfs.profile.aggregate.instrByClass[static_cast<std::size_t>(
            OpClass::FloatMul)];
    EXPECT_GT(ppr_fmul, 0u);
    EXPECT_EQ(bfs_fmul, 0u); // boolean semiring has no float work
}

TEST(PprBehaviour, RanksBitReproducibleOnBothPaths)
{
    // Per-DPU partial sums overlap across the DPUs of a 2D grid, and
    // float addition is not associative, so the ranks are
    // reproducible only when the host folds the DPUs in a fixed
    // order, whatever order the worker threads finish in.
    const auto sys = testSystem(256);
    const auto adj = socialGraph(3);
    const NodeId source = sparse::largestComponentVertex(adj);
    for (const auto strategy : {core::MxvStrategy::SpmvOnly,
                                core::MxvStrategy::SpmspvOnly}) {
        AppConfig cfg;
        cfg.strategy = strategy;
        cfg.pprIterations = 15;
        cfg.pprTolerance = 0.0;
        const auto first = runPpr(sys, adj, source, cfg);
        const auto second = runPpr(sys, adj, source, cfg);
        ASSERT_EQ(first.ranks.size(), second.ranks.size());
        EXPECT_EQ(std::memcmp(first.ranks.data(), second.ranks.data(),
                              first.ranks.size() * sizeof(float)),
                  0)
            << core::mxvStrategyName(strategy);
    }
}

TEST(AppAccounting, TotalsEqualIterationSums)
{
    const auto sys = testSystem();
    const auto adj = socialGraph(10);
    const NodeId source = sparse::largestComponentVertex(adj);
    const auto result = runBfs(sys, adj, source);

    core::PhaseTimes sum;
    std::uint64_t ops = 0;
    for (const auto &log : result.iterations) {
        sum += log.times;
        ops += log.semiringOps;
    }
    EXPECT_DOUBLE_EQ(sum.total(), result.total.total());
    EXPECT_EQ(ops, result.totalOps);
    EXPECT_EQ(result.spmspvLaunches + result.spmvLaunches,
              result.iterations.size());
}
