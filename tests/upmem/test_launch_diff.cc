/**
 * @file
 * Differential test of UpmemSystem::launchKernel. The oracle is the
 * plainest launcher: one RevolverScheduler::run per DPU, serially,
 * folded in DPU order. launchKernel claims DPUs in runs, reuses its
 * trace buffers across the DPUs of a run and copies the profile of a
 * DPU whose traces replay like its predecessor's; none of that may
 * change a number. The launch profile must match the oracle's
 * exactly, and so must every per-DPU profile as the imbalance
 * observer sees it, over launches mixing runs of identical DPUs,
 * DPUs that differ from their predecessor only in addresses,
 * distinct DPUs and empty DPUs right after long ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/imbalance.hh"
#include "profile_match.hh"
#include "random_traces.hh"
#include "telemetry/host_prof.hh"
#include "upmem/upmem_system.hh"

using namespace alphapim;
using namespace alphapim::upmem;
using alphapim::upmem::testing_support::randomTraces;
using alphapim::upmem::testing_support::sameProfile;

namespace
{

using DpuTraces = std::vector<TaskletTrace>;

/** Append one record through the recording API, with `addr` as its
 * address. */
void
appendRecord(TaskletTrace &trace, const TraceRecord &r,
             std::uint64_t addr)
{
    switch (r.kind) {
      case RecordKind::Ops:
        if (addr == traceNoAddr)
            trace.ops(r.cls, r.count);
        else
            trace.wramAccess(r.cls, r.count, addr, r.arg);
        break;
      case RecordKind::Dma:
        if (r.cls == OpClass::DmaRead)
            trace.dmaRead(r.arg, addr);
        else
            trace.dmaWrite(r.arg, addr);
        break;
      case RecordKind::Mutex:
        if (r.count == 1)
            trace.mutexLock(r.arg);
        else
            trace.mutexUnlock(r.arg);
        break;
      case RecordKind::Barrier:
        trace.barrier(r.arg);
        break;
    }
}

/** Copy of `traces` whose DMA records carry DPU-specific addresses:
 * a different input to the checker, the same input to replay. */
DpuTraces
withDmaAddresses(const DpuTraces &traces, unsigned dpu)
{
    DpuTraces out(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        std::uint64_t next = (std::uint64_t{dpu} + 1) << 20;
        for (const TraceRecord &r : traces[t].records()) {
            const bool dma = r.kind == RecordKind::Dma;
            appendRecord(out[t], r, dma ? next : r.addr);
            if (dma)
                next += 8 * ((r.arg + 7) / 8);
        }
    }
    return out;
}

/**
 * Traces of DPU `d`. Every group of 12 DPUs holds five identical
 * DPUs, one that differs from them only in DMA addresses, distinct
 * DPUs, and two empty DPUs right after a long one -- an empty DPU
 * replayed from a buffer that was not cleared would inherit the long
 * DPU's records.
 */
DpuTraces
tracesOf(unsigned d, unsigned tasklets, std::uint64_t seed)
{
    const std::uint64_t group = seed * 7919 + d / 12;
    switch (d % 12) {
      case 5:
        return withDmaAddresses(randomTraces(group, tasklets), d);
      case 6:
      case 7:
      case 11:
        return randomTraces(seed * 104729 + d + 1000003, tasklets);
      case 8:
        return randomTraces(seed * 15485863 + d, tasklets, true);
      case 9:
      case 10:
        return DpuTraces(tasklets);
      default:
        return randomTraces(group, tasklets);
    }
}

/** What a serial, memo-free launcher produces. */
struct Oracle
{
    std::vector<DpuProfile> profiles;
    LaunchProfile launch;
    /** Work of the replays launchKernel must still run. */
    ReplayWork work;
    /** DPUs launchKernel may serve from its predecessor's replay. */
    std::uint64_t memoHits = 0;
};

Oracle
serialLaunch(const DpuConfig &cfg, const std::vector<DpuTraces> &all)
{
    const RevolverScheduler scheduler(cfg);
    const auto n = static_cast<unsigned>(all.size());
    const unsigned run_len =
        std::max(1u, n / UpmemSystem::kLaunchRuns);
    Oracle o;
    for (unsigned d = 0; d < n; ++d) {
        const bool reused = d % run_len != 0 &&
                            sameReplayInput(all[d], all[d - 1]);
        ReplayWork work;
        o.profiles.push_back(scheduler.run(all[d], &work));
        if (reused) {
            ++o.memoHits;
        } else {
            o.work.windows += work.windows;
            o.work.dispatches += work.dispatches;
        }
        o.launch.add(o.profiles.back());
    }
    return o;
}

/** Exact comparison of two skew summaries. */
testing::AssertionResult
sameSkew(const char *what, const analysis::SkewStats &want,
         const analysis::SkewStats &got)
{
    if (want.count == got.count && want.mean == got.mean &&
        want.max == got.max && want.cov == got.cov &&
        want.gini == got.gini && want.p99 == got.p99)
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << what << " skew differs: mean " << want.mean << " vs "
           << got.mean << ", max " << want.max << " vs " << got.max;
}

/** Exact comparison of two launches' per-DPU analytics. */
void
expectSameImbalance(const analysis::LaunchImbalance &want,
                    const analysis::LaunchImbalance &got)
{
    EXPECT_EQ(want.dpus, got.dpus);
    EXPECT_TRUE(sameSkew("cycles", want.cycles, got.cycles));
    EXPECT_TRUE(sameSkew("active threads", want.activeThreads,
                         got.activeThreads));
    EXPECT_TRUE(sameSkew("memory stall", want.memStallFraction,
                         got.memStallFraction));
    EXPECT_EQ(want.stragglerDpu, got.stragglerDpu);
    EXPECT_EQ(want.stragglerCyclesOverMean,
              got.stragglerCyclesOverMean);
    EXPECT_EQ(want.stragglerStall, got.stragglerStall);
    EXPECT_EQ(want.stragglerStallFraction, got.stragglerStallFraction);
    EXPECT_EQ(want.rebalanceSpeedup, got.rebalanceSpeedup);
    EXPECT_EQ(want.totalInstructions, got.totalInstructions);
    EXPECT_EQ(want.mramBytes, got.mramBytes);
    EXPECT_EQ(want.roofline.opIntensity, got.roofline.opIntensity);
    EXPECT_EQ(want.roofline.achievedOpsPerSec,
              got.roofline.achievedOpsPerSec);
    EXPECT_EQ(want.roofline.memoryBound, got.roofline.memoryBound);
}

class LaunchDiff
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(LaunchDiff, MatchesSerialReplayInDpuOrder)
{
    const auto [num_dpus, tasklets] = GetParam();
    SystemConfig cfg;
    cfg.numDpus = num_dpus;
    cfg.dpu.tasklets = tasklets;

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::vector<DpuTraces> all;
        for (unsigned d = 0; d < num_dpus; ++d)
            all.push_back(tracesOf(d, tasklets, seed));
        const Oracle want = serialLaunch(cfg.dpu, all);

        auto &imbalance = analysis::imbalance();
        auto &prof = telemetry::hostProfiler();
        imbalance.setEnabled(true);
        imbalance.beginRun();
        prof.reset();
        prof.setEnabled(true);
        const LaunchProfile got = UpmemSystem(cfg).launchKernel(
            num_dpus, [&](unsigned d, std::vector<TaskletTrace> &tr) {
                for (unsigned t = 0; t < tasklets; ++t) {
                    for (const TraceRecord &r : all[d][t].records())
                        appendRecord(tr[t], r, r.addr);
                }
            });
        const telemetry::HostProfile work = prof.snapshot(0.0);
        const auto launches = imbalance.launches();
        prof.setEnabled(false);
        prof.reset();
        imbalance.setEnabled(false);
        imbalance.beginRun();

        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_TRUE(sameProfile(want.launch.aggregate, got.aggregate));
        EXPECT_EQ(want.launch.maxCycles, got.maxCycles);
        EXPECT_EQ(want.launch.activeDpus, got.activeDpus);
        ASSERT_EQ(launches.size(), 1u);
        expectSameImbalance(
            analysis::computeLaunchImbalance("", want.profiles, {},
                                             cfg.dpu),
            launches[0]);

        EXPECT_EQ(work.replayMemoHits, want.memoHits);
        EXPECT_EQ(work.replayWindows, want.work.windows);
        EXPECT_EQ(work.replayDispatches, want.work.dispatches);
        if (num_dpus / UpmemSystem::kLaunchRuns > 1) {
            EXPECT_GT(work.replayMemoHits, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    DpusByTasklets, LaunchDiff,
    testing::Combine(testing::Values(1u, 7u, 64u, 130u, 2048u),
                     testing::Values(1u, 16u, 24u)),
    [](const testing::TestParamInfo<LaunchDiff::ParamType> &info) {
        return std::to_string(std::get<0>(info.param)) + "dpus_" +
               std::to_string(std::get<1>(info.param)) + "tasklets";
    });

TEST(SameReplayInput, IgnoresAddressesOnly)
{
    const DpuTraces base = randomTraces(42, 4);
    EXPECT_TRUE(sameReplayInput(base, base));
    EXPECT_TRUE(sameReplayInput(base, withDmaAddresses(base, 3)));

    DpuTraces longer = base;
    longer[2].ops(OpClass::IntAdd, 1);
    EXPECT_FALSE(sameReplayInput(base, longer));

    DpuTraces wider = base;
    wider.emplace_back();
    EXPECT_FALSE(sameReplayInput(base, wider));

    DpuTraces a(1), b(1);
    a[0].dmaRead(64);
    b[0].dmaRead(72);
    EXPECT_FALSE(sameReplayInput(a, b));
    b[0].clear();
    b[0].dmaWrite(64);
    EXPECT_FALSE(sameReplayInput(a, b));
}

} // namespace
