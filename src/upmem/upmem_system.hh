/**
 * @file
 * Facade over the simulated UPMEM system: owns the configuration and
 * exposes kernel launches (trace generation + revolver replay across
 * all DPUs, host-parallelized), the transfer model, and the host
 * merge model. Kernel implementations in src/core build on this.
 */

#ifndef ALPHA_PIM_UPMEM_UPMEM_SYSTEM_HH
#define ALPHA_PIM_UPMEM_UPMEM_SYSTEM_HH

#include <functional>
#include <vector>

#include "common/types.hh"
#include "upmem/dpu_config.hh"
#include "upmem/host_model.hh"
#include "upmem/profile.hh"
#include "upmem/scheduler.hh"
#include "upmem/transfer_model.hh"

namespace alphapim::upmem
{

/**
 * The simulated PIM machine. One instance per experiment; cheap to
 * construct. Thread-safe for concurrent const use.
 */
class UpmemSystem
{
  public:
    /** Build a system with the given configuration. */
    explicit UpmemSystem(SystemConfig cfg);

    /** Full configuration. */
    const SystemConfig &config() const { return cfg_; }

    /** Number of DPUs allocated to kernels. */
    unsigned numDpus() const { return cfg_.numDpus; }

    /** Transfer cost model (host <-> MRAM). */
    const TransferModel &transfer() const { return transfer_; }

    /** Host-side merge cost model. */
    const HostModel &host() const { return host_; }

    /** A launch hands its DPUs to host workers in this many runs of
     * consecutive DPUs (fewer when it has fewer DPUs). */
    static constexpr unsigned kLaunchRuns = 64;

    /**
     * Launch a kernel: for each DPU, `generate(dpu, traces)` runs the
     * kernel functionally and records per-tasklet traces (the vector
     * arrives pre-sized to config().dpu.tasklets and cleared); the
     * traces are then replayed through the revolver scheduler, or,
     * when they are the same replay input as the previous DPU's in
     * its run (sameReplayInput), that DPU's profile is reused.
     *
     * DPUs are simulated concurrently on host threads, so `generate`
     * must only touch per-DPU state. Each run of DPUs is generated
     * in ascending DPU order on one thread.
     *
     * @return aggregated launch profile (kernel wall time is
     *         kernelSeconds(profile))
     */
    LaunchProfile launchKernel(
        unsigned num_dpus,
        const std::function<void(unsigned,
                                 std::vector<TaskletTrace> &)> &generate)
        const;

    /** Kernel wall-clock time of a launch, including launch overhead. */
    Seconds
    kernelSeconds(const LaunchProfile &profile) const
    {
        return cfg_.kernelLaunchOverhead +
               static_cast<double>(profile.maxCycles) / cfg_.dpu.clockHz;
    }

  private:
    SystemConfig cfg_;
    TransferModel transfer_;
    HostModel host_;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_UPMEM_SYSTEM_HH
