/** @file System facade: launches, aggregation, kernel time. */

#include <atomic>

#include <gtest/gtest.h>

#include "telemetry/host_prof.hh"
#include "upmem/upmem_system.hh"

using namespace alphapim;
using namespace alphapim::upmem;

namespace
{

SystemConfig
smallConfig(unsigned dpus, unsigned tasklets = 4)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpu.tasklets = tasklets;
    return cfg;
}

} // namespace

TEST(UpmemSystem, LaunchAggregatesAcrossDpus)
{
    UpmemSystem sys(smallConfig(16));
    const auto profile = sys.launchKernel(
        16, [](unsigned dpu, std::vector<TaskletTrace> &traces) {
            traces[0].ops(OpClass::IntAdd, 10 * (dpu + 1));
        });
    // Slowest DPU has 160 adds.
    EXPECT_EQ(profile.aggregate.instrByClass[static_cast<std::size_t>(
                  OpClass::IntAdd)],
              10u * (16 * 17 / 2));
    EXPECT_EQ(profile.activeDpus, 16u);
    EXPECT_GT(profile.maxCycles, 0u);
}

TEST(UpmemSystem, KernelSecondsUsesClockAndOverhead)
{
    auto cfg = smallConfig(4);
    cfg.kernelLaunchOverhead = 1e-3;
    UpmemSystem sys(cfg);
    LaunchProfile profile;
    profile.maxCycles = 350'000; // 1 ms at 350 MHz
    EXPECT_NEAR(sys.kernelSeconds(profile), 2e-3, 1e-9);
}

TEST(UpmemSystem, GeneratorSeesEveryDpuExactlyOnce)
{
    UpmemSystem sys(smallConfig(64));
    std::vector<std::atomic<int>> hits(64);
    sys.launchKernel(64,
                     [&](unsigned dpu, std::vector<TaskletTrace> &) {
                         hits[dpu].fetch_add(1);
                     });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(UpmemSystem, TraceVectorPreSizedToTasklets)
{
    UpmemSystem sys(smallConfig(2, 7));
    sys.launchKernel(2,
                     [&](unsigned, std::vector<TaskletTrace> &traces) {
                         EXPECT_EQ(traces.size(), 7u);
                     });
}

TEST(UpmemSystem, HostProfilerCountsReplayWork)
{
    // One fast-path window per DPU (16 tasklets in long Ops runs),
    // then single dispatches for the trailing short runs.
    auto &prof = telemetry::hostProfiler();
    prof.reset();
    prof.setEnabled(true);
    UpmemSystem sys(smallConfig(8, 16));
    const auto launch = sys.launchKernel(
        8, [](unsigned, std::vector<TaskletTrace> &traces) {
            for (auto &t : traces) {
                t.ops(OpClass::IntAdd, 64);
                t.ops(OpClass::Move, 2);
            }
        });
    const telemetry::HostProfile s = prof.snapshot(0.0);
    prof.setEnabled(false);
    prof.reset();

    EXPECT_EQ(s.replayWindows, 8u);
    EXPECT_EQ(s.replayDispatches, 8u * 16u * 2u);
    EXPECT_EQ(launch.aggregate.issuedCycles, 8u * 16u * 66u);
}

TEST(UpmemSystemDeath, TooManyDpusRequested)
{
    UpmemSystem sys(smallConfig(4));
    EXPECT_DEATH(sys.launchKernel(
                     8, [](unsigned, std::vector<TaskletTrace> &) {}),
                 "more DPUs");
}

TEST(LaunchProfileTest, SequentialLaunchesAccumulate)
{
    LaunchProfile a, b;
    DpuProfile d;
    d.totalCycles = 100;
    d.issuedCycles = 80;
    a.add(d);
    b.add(d);
    a.add(b);
    EXPECT_EQ(a.maxCycles, 200u);
    EXPECT_EQ(a.aggregate.totalCycles, 200u);
    EXPECT_EQ(a.aggregate.issuedCycles, 160u);
}
