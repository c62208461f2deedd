/**
 * @file
 * Replay engine for tasklet traces: models the DPU's fine-grained
 * multithreaded "revolver" pipeline and produces the timing and
 * profiling counters of one kernel execution on one DPU.
 *
 * Model summary (paper section 2.3.2 and PIMulator):
 *  - one instruction dispatched per cycle, in order, per DPU;
 *  - consecutive instructions of the same tasklet are at least
 *    `revolverGap` (11) cycles apart (14-stage pipeline without
 *    forwarding or interlocks);
 *  - MRAM DMA is blocking: the issuing tasklet cannot dispatch again
 *    until `dmaSetupCycles + bytes / dmaBytesPerCycle` have elapsed;
 *  - a contended mutex is acquired by spinning: each failed attempt
 *    occupies a dispatch slot with a MutexLock instruction;
 *  - barriers block arrivals until every participating tasklet has
 *    arrived;
 *  - back-to-back ALU instructions whose register-bank signatures
 *    collide pay a one-cycle structural hazard (even/odd register
 *    file banks).
 *
 * Idle dispatch slots are attributed to the constraint that delayed
 * the *earliest-ready* tasklet: DMA wait => Memory, mutex/barrier =>
 * Sync, otherwise the revolver gap itself => Revolver.
 */

#ifndef ALPHA_PIM_UPMEM_SCHEDULER_HH
#define ALPHA_PIM_UPMEM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "upmem/dpu_config.hh"
#include "upmem/profile.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem
{

/**
 * Host work done by one replay: deterministic counters of how the
 * replay loop reached its result. They describe the simulator, not
 * the simulated DPU, so they live outside DpuProfile.
 */
struct ReplayWork
{
    /** Closed-form fast-path windows retired. */
    std::uint64_t windows = 0;

    /** Instructions dispatched one at a time on the slow path. */
    std::uint64_t dispatches = 0;
};

/** Trace replayer for one DPU (stateless; reusable across DPUs). */
class RevolverScheduler
{
  public:
    /** @param cfg DPU microarchitecture parameters */
    explicit RevolverScheduler(const DpuConfig &cfg) : cfg_(cfg) {}

    /**
     * Replay the traces of one DPU's tasklets.
     *
     * @param traces one trace per tasklet (empty traces are allowed
     *               and model tasklets with no assigned work)
     * @param work when non-null, receives the replay's host work
     * @return profile with cycle counts, stalls, and instruction mix
     */
    DpuProfile run(const std::vector<TaskletTrace> &traces,
                   ReplayWork *work = nullptr) const;

  private:
    DpuConfig cfg_;
};

/**
 * True when two DPUs' traces are the same replay input: equal tasklet
 * counts and, record by record, equal kind, class, count and arg.
 * Those are the only record fields RevolverScheduler::run reads (it
 * ignores `addr`), and run() is a pure function of them and its
 * config, so equal inputs replay to equal profiles.
 */
bool sameReplayInput(const std::vector<TaskletTrace> &a,
                     const std::vector<TaskletTrace> &b);

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_SCHEDULER_HH
