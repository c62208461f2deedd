/**
 * @file
 * Cost model for the host-CPU phases of a PIM launch: merging partial
 * results from DPUs (the paper's Merge phase, parallelized with
 * OpenMP on the real system) and per-iteration convergence checks.
 */

#ifndef ALPHA_PIM_UPMEM_HOST_MODEL_HH
#define ALPHA_PIM_UPMEM_HOST_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "upmem/dpu_config.hh"

namespace alphapim::upmem
{

/** Host-side merge / convergence cost model. */
class HostModel
{
  public:
    /** @param cfg host CPU parameters */
    explicit HostModel(const HostConfig &cfg) : cfg_(cfg) {}

    /**
     * Time for a parallel merge pass over `bytes` of partial results
     * performing `ops` combining operations.
     */
    Seconds
    mergeTime(Bytes bytes, std::uint64_t ops) const
    {
        const Seconds mem =
            static_cast<double>(bytes) / cfg_.memBandwidth;
        const Seconds compute =
            static_cast<double>(ops) /
            (cfg_.cores * cfg_.clockHz * cfg_.opsPerCycle);
        return cfg_.passOverhead + mem + compute;
    }

    /**
     * Time for the per-iteration convergence check: stream the new
     * and previous vectors once and compare.
     */
    Seconds
    convergenceTime(Bytes vector_bytes) const
    {
        return cfg_.passOverhead +
               2.0 * static_cast<double>(vector_bytes) /
                   cfg_.memBandwidth;
    }

    /** The configuration in use. */
    const HostConfig &config() const { return cfg_; }

  private:
    HostConfig cfg_;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_HOST_MODEL_HH
