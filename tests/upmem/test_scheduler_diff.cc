/**
 * @file
 * Differential test of the revolver scheduler. The oracle is a frozen
 * copy of the replay loop as it stood before the fast-path admission
 * count and the packed ready table: the same closed-form fast path,
 * but re-tested by a full tasklet scan before every dispatch, and an
 * earliest-ready pick that scans every tasklet's state. Every
 * DpuProfile field must match it exactly, the floating-point
 * active-thread integral included, over fuzzed traces whose long Ops
 * runs make fast-path windows fire, at several tasklet counts and
 * with every future-hardware knob setting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "profile_match.hh"
#include "random_traces.hh"
#include "upmem/scheduler.hh"

using namespace alphapim;
using namespace alphapim::upmem;
using alphapim::upmem::testing_support::randomTraces;
using alphapim::upmem::testing_support::sameProfile;

namespace reference
{

using namespace alphapim::upmem;

/** The replay loop before the O(1) admission and ready table. */
class ReferenceScheduler
{
  public:
    explicit ReferenceScheduler(const DpuConfig &cfg) : cfg_(cfg) {}

    DpuProfile run(const std::vector<TaskletTrace> &traces) const;

  private:
    DpuConfig cfg_;
};

// ---- Frozen copy of the reference replay loop: do not edit. ----

namespace
{

/** Why a tasklet's next dispatch is delayed. */
enum class WaitKind : std::uint8_t
{
    None,    ///< only the revolver gap holds it back
    Dma,     ///< waiting for a blocking DMA to complete
    Mutex,   ///< spinning on a held mutex
    Barrier, ///< parked at a barrier
};

constexpr Cycles farFuture = std::numeric_limits<Cycles>::max() / 4;

/** Mutable replay state of one tasklet. */
struct TaskletState
{
    std::size_t rec = 0;        ///< current record index
    std::uint32_t remaining = 0; ///< ops left in the current record
    Cycles ready = 0;           ///< earliest next dispatch cycle
    WaitKind wait = WaitKind::None;
    bool finished = false;
    Cycles finishTime = 0;      ///< cycle after its last dispatch
    Cycles blockedCycles = 0;   ///< DMA / barrier inactive time
    std::uint32_t sigState = 0; ///< RF bank signature LCG state
};

/** Cheap per-dispatch register-bank signature. */
std::uint32_t
nextBankSig(TaskletState &ts, unsigned bits)
{
    ts.sigState = ts.sigState * 1103515245u + 12345u;
    return (ts.sigState >> 16) & ((1u << bits) - 1u);
}

} // namespace

DpuProfile
ReferenceScheduler::run(const std::vector<TaskletTrace> &traces) const
{
    const auto num = static_cast<unsigned>(traces.size());
    ALPHA_ASSERT(num > 0 && num <= cfg_.maxTasklets,
                 "tasklet count outside the DPU's hardware limit");

    DpuProfile profile;

    std::vector<TaskletState> state(num);
    unsigned live = 0;
    for (unsigned t = 0; t < num; ++t) {
        state[t].sigState = 0x9e3779b9u * (t + 1);
        state[t].remaining = 0;
        if (traces[t].empty()) {
            state[t].finished = true;
        } else {
            ++live;
            const auto &first = traces[t].records()[0];
            state[t].remaining =
                first.kind == RecordKind::Ops ? first.count : 1;
        }
    }
    if (live == 0)
        return profile;


    struct BarrierInstance
    {
        unsigned instance = 0; ///< how many releases have happened
        unsigned arrived = 0;
        std::vector<unsigned> waiters;
    };
    // Flat tables sized by the largest id in the traces keep the
    // dispatch loop free of hash lookups.
    std::uint32_t max_mutex = 0, max_barrier = 0;
    for (unsigned t = 0; t < num; ++t) {
        for (const auto &r : traces[t].records()) {
            if (r.kind == RecordKind::Mutex)
                max_mutex = std::max(max_mutex, r.arg);
            else if (r.kind == RecordKind::Barrier)
                max_barrier = std::max(max_barrier, r.arg);
        }
    }
    std::vector<BarrierInstance> barriers(max_barrier + 1);
    std::vector<int> mutex_holder(max_mutex + 1, -1);

    // How many times each tasklet hits each barrier id, so instance
    // b of a barrier waits for exactly the tasklets that reach it
    // at least b+1 times.
    std::vector<unsigned> barrier_hits(
        static_cast<std::size_t>(num) * (max_barrier + 1), 0);
    for (unsigned t = 0; t < num; ++t) {
        for (const auto &r : traces[t].records()) {
            if (r.kind == RecordKind::Barrier)
                ++barrier_hits[t * (max_barrier + 1) + r.arg];
        }
    }

    /** Number of tasklets that participate in the given barrier
     * instance (arrive at least `instance + 1` times). */
    auto barrier_quorum = [&](std::uint32_t id, unsigned instance) {
        unsigned quorum = 0;
        for (unsigned t = 0; t < num; ++t) {
            if (barrier_hits[t * (max_barrier + 1) + id] > instance)
                ++quorum;
        }
        return quorum;
    };

    auto advance_record = [&](TaskletState &ts, unsigned t) {
        ++ts.rec;
        if (ts.rec >= traces[t].records().size()) {
            ts.finished = true;
            --live;
            return;
        }
        const auto &r = traces[t].records()[ts.rec];
        ts.remaining = r.kind == RecordKind::Ops ? r.count : 1;
    };

    auto count_instr = [&](OpClass cls) {
        ++profile.instrByClass[static_cast<std::size_t>(cls)];
    };

    // lastDispatch = cycle of the most recent dispatch; the first
    // dispatch happens at cycle 0.
    Cycles last_dispatch = 0;
    bool any_dispatch = false;
    std::uint32_t last_bank_sig = ~0u;
    bool last_was_alu = false;
    // The DPU has a single DMA engine: transfers from different
    // tasklets serialize, capping per-DPU MRAM bandwidth at
    // dmaBytesPerCycle.
    Cycles dma_engine_free = 0;
    // Outstanding work (e.g. a trailing DMA) can extend execution
    // past the final dispatch.
    Cycles horizon = 0;

    // ---- Fast path ----
    // When every non-blocked tasklet sits in a long Ops run and no
    // mutex spinner or barrier release can fire, dispatching is a
    // deterministic round-robin; whole rounds are retired in closed
    // form. Timing is exact (including the revolver-idle pattern);
    // only register-bank hazards are applied in expectation.
    auto try_fast_path = [&]() -> bool {
        unsigned runnable[32];
        unsigned k = 0;
        std::uint32_t min_remaining = ~0u;
        Cycles min_ready = farFuture;
        Cycles dma_wake = farFuture;
        unsigned alu_count = 0;
        for (unsigned t = 0; t < num; ++t) {
            const auto &ts = state[t];
            if (ts.finished || ts.wait == WaitKind::Barrier)
                continue;
            if (ts.wait == WaitKind::Mutex)
                return false;
            if (ts.wait == WaitKind::Dma) {
                dma_wake = std::min(dma_wake, ts.ready);
                continue;
            }
            const TraceRecord &r = traces[t].records()[ts.rec];
            if (r.kind != RecordKind::Ops)
                return false;
            runnable[k++] = t;
            min_remaining = std::min(min_remaining, ts.remaining);
            min_ready = std::min(min_ready, ts.ready);
            if (isAluClass(r.cls))
                ++alu_count;
        }
        if (k == 0 || min_remaining < 8)
            return false;

        const Cycles start = any_dispatch
            ? std::max(min_ready, last_dispatch + 1)
            : min_ready;
        if (dma_wake <= start)
            return false; // a DMA-waiter must be serviced first

        // Round length: packed when the pipeline can be full.
        const Cycles round = std::max<Cycles>(k, cfg_.revolverGap);
        std::uint64_t rounds = min_remaining;
        if (dma_wake != farFuture) {
            const std::uint64_t fit = (dma_wake - start) / round;
            rounds = std::min<std::uint64_t>(rounds, fit);
        }
        if (rounds < 8)
            return false;

        // Leading idle gap before the window is revolver-bound.
        if (any_dispatch && start > last_dispatch + 1) {
            profile.stallCycles[static_cast<std::size_t>(
                StallReason::Revolver)] +=
                start - last_dispatch - 1;
        }

        // Expected register-bank hazards in packed mode.
        Cycles hazards = 0;
        if (k >= cfg_.revolverGap && alu_count > 1) {
            const double alu_frac =
                static_cast<double>(alu_count) /
                static_cast<double>(k);
            hazards = static_cast<Cycles>(
                static_cast<double>(rounds * k) * alu_frac *
                alu_frac /
                static_cast<double>(1u << cfg_.rfBankBits));
        }

        const Cycles span = (rounds - 1) * round + k + hazards;
        if (k < cfg_.revolverGap) {
            profile.stallCycles[static_cast<std::size_t>(
                StallReason::Revolver)] +=
                (rounds - 1) * (round - k);
        }
        profile.stallCycles[static_cast<std::size_t>(
            StallReason::RfHazard)] += hazards;
        profile.issuedCycles += rounds * k;

        for (unsigned j = 0; j < k; ++j) {
            TaskletState &ts = state[runnable[j]];
            const TraceRecord &r =
                traces[runnable[j]].records()[ts.rec];
            profile.instrByClass[static_cast<std::size_t>(r.cls)] +=
                rounds;
            ts.remaining -= static_cast<std::uint32_t>(rounds);
            const Cycles own_last =
                start + (rounds - 1) * round + j + hazards;
            ts.finishTime = own_last + 1;
            ts.ready = own_last + cfg_.revolverGap;
            if (ts.remaining == 0)
                advance_record(ts, runnable[j]);
        }
        last_dispatch = start + span - 1;
        any_dispatch = true;
        last_was_alu = false; // window boundary: no carried hazard
        return true;
    };

    for (;;) {
        if (try_fast_path())
            continue;

        // Pick the earliest-ready unfinished, unparked tasklet.
        unsigned chosen = num;
        Cycles best_ready = farFuture;
        for (unsigned t = 0; t < num; ++t) {
            const auto &ts = state[t];
            if (ts.finished || ts.wait == WaitKind::Barrier)
                continue;
            if (ts.ready < best_ready) {
                best_ready = ts.ready;
                chosen = t;
            }
        }
        if (chosen == num) {
            ALPHA_ASSERT(live == 0,
                         "deadlock: live tasklets but none runnable");
            break;
        }

        TaskletState &ts = state[chosen];
        Cycles dispatch_at = ts.ready;
        if (any_dispatch)
            dispatch_at = std::max(dispatch_at, last_dispatch + 1);

        // Attribute the idle gap to the constraint that held the
        // earliest-ready tasklet.
        if (any_dispatch && dispatch_at > last_dispatch + 1) {
            const Cycles gap = dispatch_at - last_dispatch - 1;
            StallReason reason = StallReason::Revolver;
            if (ts.wait == WaitKind::Dma)
                reason = StallReason::Memory;
            else if (ts.wait == WaitKind::Mutex)
                reason = StallReason::Sync;
            profile.stallCycles[static_cast<std::size_t>(reason)] += gap;
        }

        const TraceRecord &r = traces[chosen].records()[ts.rec];

        // Register-file bank hazard: back-to-back ALU dispatches with
        // colliding signatures cost one bubble cycle.
        bool alu = r.kind == RecordKind::Ops && isAluClass(r.cls);
        if (alu) {
            const std::uint32_t sig = nextBankSig(ts, cfg_.rfBankBits);
            if (any_dispatch && last_was_alu &&
                dispatch_at == last_dispatch + 1 &&
                sig == last_bank_sig) {
                profile.stallCycles[static_cast<std::size_t>(
                    StallReason::RfHazard)] += 1;
                dispatch_at += 1;
            }
            last_bank_sig = sig;
        }
        last_was_alu = alu;

        // Dispatch.
        ++profile.issuedCycles;
        last_dispatch = dispatch_at;
        any_dispatch = true;
        ts.finishTime = dispatch_at + 1;
        ts.wait = WaitKind::None;

        switch (r.kind) {
          case RecordKind::Ops: {
            count_instr(r.cls);
            ts.ready = dispatch_at + cfg_.revolverGap;
            if (--ts.remaining == 0)
                advance_record(ts, chosen);
            break;
          }
          case RecordKind::Dma: {
            count_instr(r.cls);
            if (r.cls == OpClass::DmaRead)
                profile.mramReadBytes += r.arg;
            else
                profile.mramWriteBytes += r.arg;
            const auto xfer = static_cast<Cycles>(std::ceil(
                static_cast<double>(r.arg) / cfg_.dmaBytesPerCycle));
            const Cycles start =
                std::max(dispatch_at, dma_engine_free);
            dma_engine_free =
                start + cfg_.dmaEngineOverheadCycles + xfer;
            const Cycles complete = std::max(
                dispatch_at + cfg_.dmaSetupCycles + xfer,
                dma_engine_free);
            horizon = std::max(horizon, complete);
            const Cycles gap_ready = dispatch_at + cfg_.revolverGap;
            if (cfg_.nonBlockingDma) {
                // Future hardware: the tasklet keeps dispatching
                // while the transfer is in flight.
                ts.ready = gap_ready;
            } else {
                ts.ready = std::max(complete, gap_ready);
                if (complete > gap_ready) {
                    ts.wait = WaitKind::Dma;
                    ts.blockedCycles += complete - gap_ready;
                }
            }
            advance_record(ts, chosen);
            break;
          }
          case RecordKind::Mutex: {
            if (r.count == 1) {
                // Lock attempt.
                count_instr(OpClass::MutexLock);
                if (cfg_.hardwareAtomics) {
                    // Future hardware: single-instruction atomic
                    // update, no exclusion window.
                    ts.ready = dispatch_at + cfg_.revolverGap;
                    advance_record(ts, chosen);
                } else if (mutex_holder[r.arg] < 0) {
                    mutex_holder[r.arg] = static_cast<int>(chosen);
                    ts.ready = dispatch_at + cfg_.revolverGap;
                    advance_record(ts, chosen);
                } else {
                    // Spin: retry after the revolver gap; the record
                    // is not consumed.
                    ts.ready = dispatch_at + cfg_.revolverGap;
                    ts.wait = WaitKind::Mutex;
                }
            } else {
                count_instr(OpClass::MutexUnlock);
                if (!cfg_.hardwareAtomics) {
                    ALPHA_ASSERT(mutex_holder[r.arg] ==
                                     static_cast<int>(chosen),
                                 "unlock of a mutex the tasklet "
                                 "does not hold");
                    mutex_holder[r.arg] = -1;
                }
                ts.ready = dispatch_at + cfg_.revolverGap;
                advance_record(ts, chosen);
            }
            break;
          }
          case RecordKind::Barrier: {
            count_instr(OpClass::Barrier);
            auto &b = barriers[r.arg];
            ++b.arrived;
            const unsigned quorum = barrier_quorum(r.arg, b.instance);
            ALPHA_ASSERT(quorum > 0, "barrier with no participants");
            if (b.arrived >= quorum) {
                // Release everyone parked here (and this tasklet).
                for (unsigned w : b.waiters) {
                    TaskletState &ws = state[w];
                    ws.wait = WaitKind::None;
                    ws.blockedCycles +=
                        dispatch_at + 1 - ws.ready;
                    ws.ready = dispatch_at + cfg_.revolverGap;
                    advance_record(ws, w);
                }
                b.waiters.clear();
                b.arrived = 0;
                ++b.instance;
                ts.ready = dispatch_at + cfg_.revolverGap;
                advance_record(ts, chosen);
            } else {
                ts.wait = WaitKind::Barrier;
                ts.ready = dispatch_at + 1; // parked; reset on release
                b.waiters.push_back(chosen);
            }
            break;
          }
        }

        if (live == 0)
            break;
    }

    profile.totalCycles = any_dispatch ? last_dispatch + 1 : 0;
    if (horizon > profile.totalCycles) {
        // Drain outstanding DMAs: the tail is memory-stall time.
        profile.stallCycles[static_cast<std::size_t>(
            StallReason::Memory)] += horizon - profile.totalCycles;
        profile.totalCycles = horizon;
    }

    // Active-thread integral: a tasklet is active from launch until
    // its last dispatch, minus time parked on DMA or barriers.
    for (unsigned t = 0; t < num; ++t) {
        const auto &ts = state[t];
        if (ts.finishTime > ts.blockedCycles) {
            profile.activeThreadCycles += static_cast<double>(
                ts.finishTime - ts.blockedCycles);
        }
    }
    return profile;
}

// ---- End of the frozen copy. ----

} // namespace reference

namespace
{

/** Replay with both schedulers; the work counters must be coherent
 * with the profile. */
testing::AssertionResult
matchesReference(const DpuConfig &cfg,
                 const std::vector<TaskletTrace> &traces,
                 ReplayWork &work)
{
    const DpuProfile want =
        reference::ReferenceScheduler(cfg).run(traces);
    const DpuProfile got = RevolverScheduler(cfg).run(traces, &work);
    auto same = sameProfile(want, got);
    if (!same)
        return same;
    // Windows retire at least one instruction each; everything else
    // is a single dispatch.
    if (work.windows == 0 ? work.dispatches != got.issuedCycles
                          : work.dispatches >= got.issuedCycles) {
        return testing::AssertionFailure()
               << "work counters disagree with issuedCycles "
               << got.issuedCycles << ": " << work.windows
               << " windows, " << work.dispatches << " dispatches";
    }
    return testing::AssertionSuccess();
}

struct KnobSetting
{
    bool nonBlockingDma;
    bool hardwareAtomics;
};

std::string
knobName(const testing::TestParamInfo<KnobSetting> &info)
{
    return std::string(info.param.nonBlockingDma ? "NonBlockingDma"
                                                 : "BlockingDma") +
           (info.param.hardwareAtomics ? "_HwAtomics" : "_Mutexes");
}

class SchedulerDiff : public testing::TestWithParam<KnobSetting>
{
  protected:
    DpuConfig
    config(unsigned tasklets) const
    {
        DpuConfig cfg;
        cfg.tasklets = tasklets;
        cfg.nonBlockingDma = GetParam().nonBlockingDma;
        cfg.hardwareAtomics = GetParam().hardwareAtomics;
        return cfg;
    }
};

} // namespace

TEST_P(SchedulerDiff, FuzzedTracesMatchReference)
{
    constexpr std::uint64_t seeds = 200;
    for (unsigned tasklets : {1u, 11u, 16u, 24u}) {
        const DpuConfig cfg = config(tasklets);
        unsigned with_windows = 0, with_dispatches = 0;
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
            for (bool long_runs : {false, true}) {
                const auto traces =
                    randomTraces(seed, tasklets, long_runs);
                ReplayWork work;
                ASSERT_TRUE(matchesReference(cfg, traces, work))
                    << "seed " << seed << " tasklets " << tasklets
                    << (long_runs ? " long runs" : " short runs");
                with_windows += work.windows > 0;
                with_dispatches += work.dispatches > 0;
            }
        }
        // Both replay paths were exercised at this tasklet count.
        EXPECT_GT(with_windows, 0u) << "tasklets " << tasklets;
        EXPECT_GT(with_dispatches, 0u) << "tasklets " << tasklets;
    }
}

TEST_P(SchedulerDiff, UnevenBarrierQuorumsMatchReference)
{
    // Tasklet t reaches barrier 1 t+1 times, so later instances wait
    // for ever fewer participants, between long and short Ops runs.
    const DpuConfig cfg = config(12);
    std::vector<TaskletTrace> traces(12);
    for (unsigned t = 0; t < 12; ++t) {
        for (unsigned round = 0; round <= t; ++round) {
            traces[t].ops(OpClass::IntMul, 40 + 7 * t);
            traces[t].dmaRead(64 * (round + 1));
            traces[t].ops(OpClass::StoreWram, 3);
            traces[t].barrier(1);
        }
        traces[t].barrier(0);
        traces[t].ops(OpClass::Logic, 100);
    }
    ReplayWork work;
    EXPECT_TRUE(matchesReference(cfg, traces, work));
    EXPECT_GT(work.windows, 0u);
}

TEST_P(SchedulerDiff, ContendedMutexesMatchReference)
{
    const DpuConfig cfg = config(16);
    std::vector<TaskletTrace> traces(16);
    Rng rng(99);
    for (auto &t : traces) {
        t.ops(OpClass::FloatMul, 64);
        for (int i = 0; i < 50; ++i) {
            const auto id =
                static_cast<std::uint32_t>(rng.nextBounded(2));
            t.mutexLock(id);
            t.ops(OpClass::IntAdd, 2);
            t.mutexUnlock(id);
        }
    }
    ReplayWork work;
    EXPECT_TRUE(matchesReference(cfg, traces, work));
}

INSTANTIATE_TEST_SUITE_P(Knobs, SchedulerDiff,
                         testing::Values(KnobSetting{false, false},
                                         KnobSetting{true, false},
                                         KnobSetting{false, true},
                                         KnobSetting{true, true}),
                         knobName);
