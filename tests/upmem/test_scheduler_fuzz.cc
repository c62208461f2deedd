/**
 * @file
 * Property-based fuzzing of the revolver scheduler: random but
 * well-formed tasklet traces must always satisfy the accounting,
 * ordering, and liveness invariants, deterministically.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "random_traces.hh"
#include "upmem/scheduler.hh"

using namespace alphapim;
using namespace alphapim::upmem;
using alphapim::upmem::testing_support::randomTraces;

namespace
{

Cycles
allStalls(const DpuProfile &p)
{
    Cycles total = 0;
    for (auto c : p.stallCycles)
        total += c;
    return total;
}

class SchedulerFuzz : public testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(SchedulerFuzz, InvariantsHold)
{
    const std::uint64_t seed = GetParam();
    for (unsigned tasklets : {1u, 3u, 8u, 16u}) {
        DpuConfig cfg;
        cfg.tasklets = std::max(tasklets, 1u);
        RevolverScheduler sched(cfg);
        const auto traces = randomTraces(seed, tasklets);

        const auto p = sched.run(traces);

        // 1. Cycle accounting is complete.
        EXPECT_EQ(p.totalCycles, p.issuedCycles + allStalls(p))
            << "seed " << seed << " tasklets " << tasklets;

        // 2. Every trace instruction was dispatched (spin retries
        //    may add lock instructions on top).
        std::uint64_t trace_instr = 0;
        std::uint64_t trace_unlocks = 0;
        for (const auto &t : traces) {
            trace_instr += t.instructionCount();
            for (const auto &r : t.records()) {
                if (r.kind == RecordKind::Mutex && r.count == 0)
                    ++trace_unlocks;
            }
        }
        EXPECT_GE(p.totalInstructions(), trace_instr);
        EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                      OpClass::MutexUnlock)],
                  trace_unlocks);

        // 3. Throughput bounds: at most one dispatch per cycle; at
        //    least one dispatch every revolverGap cycles while work
        //    remains (single tasklet lower bound).
        EXPECT_LE(p.issuedCycles, p.totalCycles);

        // 4. Thread activity bounded by the tasklet count.
        EXPECT_LE(p.avgActiveThreads(),
                  static_cast<double>(tasklets) + 1e-9);

        // 5. Determinism.
        const auto p2 = sched.run(traces);
        EXPECT_EQ(p.totalCycles, p2.totalCycles);
        EXPECT_EQ(p.issuedCycles, p2.issuedCycles);
        EXPECT_EQ(p.instrByClass, p2.instrByClass);
        EXPECT_EQ(p.stallCycles, p2.stallCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         testing::Range<std::uint64_t>(1, 25));

TEST(SchedulerFuzzEdge, ManyMutexesHighContention)
{
    DpuConfig cfg;
    cfg.tasklets = 16;
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(16);
    Rng rng(99);
    for (auto &t : traces) {
        for (int i = 0; i < 50; ++i) {
            const auto id =
                static_cast<std::uint32_t>(rng.nextBounded(2));
            t.mutexLock(id);
            t.ops(OpClass::IntAdd, 2);
            t.mutexUnlock(id);
        }
    }
    const auto p = sched.run(traces);
    // All critical sections execute; no deadlock or lost work.
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::MutexUnlock)],
              16u * 50u);
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::IntAdd)],
              16u * 50u * 2u);
}

TEST(SchedulerFuzzEdge, AlternatingBarriersAndWork)
{
    DpuConfig cfg;
    cfg.tasklets = 6;
    RevolverScheduler sched(cfg);
    std::vector<TaskletTrace> traces(6);
    for (unsigned t = 0; t < 6; ++t) {
        for (unsigned round = 0; round < 10; ++round) {
            traces[t].ops(OpClass::IntAdd, (t + 1) * (round + 1));
            traces[t].barrier(round % 3);
        }
    }
    const auto p = sched.run(traces);
    EXPECT_EQ(p.instrByClass[static_cast<std::size_t>(
                  OpClass::Barrier)],
              60u);
    EXPECT_EQ(p.totalCycles, p.issuedCycles + allStalls(p));
}
