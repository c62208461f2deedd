#include "scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace alphapim::upmem
{

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

/**
 * Mutable replay state of one tasklet. Its next dispatch cycle lives
 * in the run's packed ready table, so the earliest-ready pick reads
 * one contiguous array.
 */
struct TaskletState
{
    const TraceRecord *rec = nullptr; ///< current record
    const TraceRecord *end = nullptr; ///< one past the last record
    std::uint32_t remaining = 0; ///< ops left in the current record
    std::uint32_t sigState = 0; ///< RF bank signature LCG state
    WaitKind wait = WaitKind::None;
    bool finished = false;
    /** Cycle after its last dispatch; while parked at a barrier this
     * is the cycle the parking began. */
    Cycles finishTime = 0;
    Cycles blockedCycles = 0;   ///< DMA / barrier inactive time
};

/** Shortest fast-path window, in rounds. A tasklet with fewer ops
 * left in its Ops record cannot take part in one. */
constexpr std::uint32_t fastPathMinRun = 8;

/**
 * True when the tasklet alone rules out a fast-path window: it is
 * live, not parked on a barrier or a DMA, and either spins on a mutex
 * or sits on a non-Ops record or a short Ops remainder. A spinner's
 * current record is its Mutex lock, so the record test covers it.
 */
bool
blocksFastPath(const TaskletState &ts)
{
    return !ts.finished &&
           (ts.wait == WaitKind::None || ts.wait == WaitKind::Mutex) &&
           (ts.rec->kind != RecordKind::Ops ||
            ts.remaining < fastPathMinRun);
}

/** Cheap per-dispatch register-bank signature. */
std::uint32_t
nextBankSig(TaskletState &ts, unsigned bits)
{
    ts.sigState = ts.sigState * 1103515245u + 12345u;
    return (ts.sigState >> 16) & ((1u << bits) - 1u);
}

} // namespace

DpuProfile
RevolverScheduler::run(const std::vector<TaskletTrace> &traces,
                       ReplayWork *work) const
{
    const auto num = static_cast<unsigned>(traces.size());
    ALPHA_ASSERT(num > 0 && num <= cfg_.maxTasklets,
                 "tasklet count outside the DPU's hardware limit");

    DpuProfile profile;

    std::vector<TaskletState> state(num);
    // Earliest next dispatch cycle per tasklet; farFuture while the
    // tasklet is finished or parked at a barrier, so the pick below
    // needs no state test.
    std::vector<Cycles> ready(num, 0);
    unsigned live = 0;
    for (unsigned t = 0; t < num; ++t) {
        TaskletState &ts = state[t];
        ts.sigState = 0x9e3779b9u * (t + 1);
        ts.rec = traces[t].records().data();
        ts.end = ts.rec + traces[t].records().size();
        if (traces[t].empty()) {
            ts.finished = true;
            ready[t] = farFuture;
        } else {
            ++live;
            ts.remaining =
                ts.rec->kind == RecordKind::Ops ? ts.rec->count : 1;
        }
    }
    if (live == 0)
        return profile;

    // Tasklets for which blocksFastPath() holds. The fast path can
    // only fire while this is zero; every state change below keeps
    // it current in O(1).
    unsigned blockers = 0;
    for (const TaskletState &ts : state)
        blockers += blocksFastPath(ts);

    struct BarrierInstance
    {
        unsigned instance = 0; ///< how many releases have happened
        unsigned arrived = 0;
        std::vector<unsigned> waiters;
    };
    // One pass over the records sizes the mutex table and counts how
    // many times each tasklet hits each barrier id, so instance b of
    // a barrier waits for exactly the tasklets that reach it at least
    // b+1 times. Flat tables keep the dispatch loop free of hash
    // lookups.
    std::uint32_t mutexes = 0;
    std::vector<unsigned> barrier_hits; // [id * num + tasklet]
    for (unsigned t = 0; t < num; ++t) {
        for (const auto &r : traces[t].records()) {
            if (r.kind == RecordKind::Mutex) {
                mutexes = std::max(mutexes, r.arg + 1);
            } else if (r.kind == RecordKind::Barrier) {
                const std::size_t row = std::size_t{r.arg} * num;
                if (row >= barrier_hits.size())
                    barrier_hits.resize(row + num, 0);
                ++barrier_hits[row + t];
            }
        }
    }
    std::vector<BarrierInstance> barriers(barrier_hits.size() / num);
    std::vector<int> mutex_holder(mutexes, -1);

    /** Number of tasklets that participate in the given barrier
     * instance (arrive at least `instance + 1` times). */
    auto barrier_quorum = [&](std::uint32_t id, unsigned instance) {
        unsigned quorum = 0;
        for (unsigned t = 0; t < num; ++t) {
            if (barrier_hits[std::size_t{id} * num + t] > instance)
                ++quorum;
        }
        return quorum;
    };

    auto advance_record = [&](TaskletState &ts, unsigned t) {
        if (++ts.rec == ts.end) {
            ts.finished = true;
            ready[t] = farFuture;
            --live;
            return;
        }
        ts.remaining =
            ts.rec->kind == RecordKind::Ops ? ts.rec->count : 1;
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
    ReplayWork tally;

    // ---- Fast path ----
    // When every non-blocked tasklet sits in a long Ops run and no
    // mutex spinner or barrier release can fire, dispatching is a
    // deterministic round-robin; whole rounds are retired in closed
    // form. Timing is exact (including the revolver-idle pattern);
    // only register-bank hazards are applied in expectation.
    // Called only when `blockers` is zero, so every live tasklet not
    // parked on a barrier or a DMA is runnable with at least
    // fastPathMinRun ops left in an Ops record.
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
            if (ts.wait == WaitKind::Dma) {
                dma_wake = std::min(dma_wake, ready[t]);
                continue;
            }
            runnable[k++] = t;
            min_remaining = std::min(min_remaining, ts.remaining);
            min_ready = std::min(min_ready, ready[t]);
            if (isAluClass(ts.rec->cls))
                ++alu_count;
        }
        if (k == 0)
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
        if (rounds < fastPathMinRun)
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
            const unsigned t = runnable[j];
            TaskletState &ts = state[t];
            profile.instrByClass[static_cast<std::size_t>(
                ts.rec->cls)] += rounds;
            ts.remaining -= static_cast<std::uint32_t>(rounds);
            const Cycles own_last =
                start + (rounds - 1) * round + j + hazards;
            ts.finishTime = own_last + 1;
            ready[t] = own_last + cfg_.revolverGap;
            if (ts.remaining == 0)
                advance_record(ts, t);
            blockers += blocksFastPath(ts);
        }
        last_dispatch = start + span - 1;
        any_dispatch = true;
        last_was_alu = false; // window boundary: no carried hazard
        ++tally.windows;
        return true;
    };

    for (;;) {
        if (blockers == 0 && try_fast_path())
            continue;

        // Pick the earliest-ready tasklet, lowest index on ties.
        unsigned chosen = num;
        Cycles dispatch_at = farFuture;
        for (unsigned t = 0; t < num; ++t) {
            if (ready[t] < dispatch_at) {
                dispatch_at = ready[t];
                chosen = t;
            }
        }
        if (chosen == num) {
            ALPHA_ASSERT(live == 0,
                         "deadlock: live tasklets but none runnable");
            break;
        }

        TaskletState &ts = state[chosen];
        blockers -= blocksFastPath(ts);
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

        const TraceRecord &r = *ts.rec;

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
        ++tally.dispatches;
        last_dispatch = dispatch_at;
        any_dispatch = true;
        ts.finishTime = dispatch_at + 1;
        ts.wait = WaitKind::None;

        switch (r.kind) {
          case RecordKind::Ops: {
            count_instr(r.cls);
            ready[chosen] = dispatch_at + cfg_.revolverGap;
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
                ready[chosen] = gap_ready;
            } else {
                ready[chosen] = std::max(complete, gap_ready);
                if (complete > gap_ready) {
                    ts.wait = WaitKind::Dma;
                    ts.blockedCycles += complete - gap_ready;
                }
            }
            advance_record(ts, chosen);
            break;
          }
          case RecordKind::Mutex: {
            ready[chosen] = dispatch_at + cfg_.revolverGap;
            if (r.count == 1) {
                // Lock attempt.
                count_instr(OpClass::MutexLock);
                if (cfg_.hardwareAtomics) {
                    // Future hardware: single-instruction atomic
                    // update, no exclusion window.
                    advance_record(ts, chosen);
                } else if (mutex_holder[r.arg] < 0) {
                    mutex_holder[r.arg] = static_cast<int>(chosen);
                    advance_record(ts, chosen);
                } else {
                    // Spin: retry after the revolver gap; the record
                    // is not consumed.
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
                    ws.blockedCycles += dispatch_at + 1 - ws.finishTime;
                    ready[w] = dispatch_at + cfg_.revolverGap;
                    advance_record(ws, w);
                    blockers += blocksFastPath(ws);
                }
                b.waiters.clear();
                b.arrived = 0;
                ++b.instance;
                ready[chosen] = dispatch_at + cfg_.revolverGap;
                advance_record(ts, chosen);
            } else {
                // Parked until the release; finishTime keeps the
                // cycle the wait began.
                ts.wait = WaitKind::Barrier;
                ready[chosen] = farFuture;
                b.waiters.push_back(chosen);
            }
            break;
          }
        }
        blockers += blocksFastPath(ts);

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
    if (work)
        *work = tally;
    return profile;
}

bool
sameReplayInput(const std::vector<TaskletTrace> &a,
                const std::vector<TaskletTrace> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t) {
        const auto &ra = a[t].records();
        const auto &rb = b[t].records();
        if (ra.size() != rb.size())
            return false;
        for (std::size_t i = 0; i < ra.size(); ++i) {
            if (ra[i].kind != rb[i].kind || ra[i].cls != rb[i].cls ||
                ra[i].count != rb[i].count || ra[i].arg != rb[i].arg)
                return false;
        }
    }
    return true;
}

} // namespace alphapim::upmem
