/**
 * @file
 * Host <-> PIM-memory transfer cost model.
 *
 * Mirrors the UPMEM SDK's three transfer modes:
 *  - scatter ("push"): a distinct buffer per DPU, moved rank-parallel;
 *  - broadcast: one buffer replicated into every DPU's MRAM;
 *  - gather ("pull"): a distinct buffer retrieved from each DPU.
 *
 * Costs (DESIGN.md section 4.2):
 *  time = launchLatency
 *       + perDpuSetup * (#distinct buffers)      [transposition lib]
 *       + max( slowest rank's bus time, CPU-side copy time )
 *
 * where a rank's bus time is maxPerDpuBytes * dpusPerRank / rankBw
 * (the SDK pads parallel transfers to a common size per rank).
 */

#ifndef ALPHA_PIM_UPMEM_TRANSFER_MODEL_HH
#define ALPHA_PIM_UPMEM_TRANSFER_MODEL_HH

#include <vector>

#include "common/types.hh"
#include "upmem/dpu_config.hh"

namespace alphapim::upmem
{

/** Direction of a host <-> DPU transfer. */
enum class TransferDirection
{
    HostToDpu,
    DpuToHost,
};

/** Cost model for bulk transfers between host memory and MRAM. */
class TransferModel
{
  public:
    /** @param cfg transfer parameters */
    explicit TransferModel(const TransferConfig &cfg) : cfg_(cfg) {}

    /**
     * Scatter/gather with a distinct buffer per DPU.
     *
     * @param per_dpu_bytes buffer size per DPU (index = DPU id);
     *                      zero entries are skipped
     * @param dir transfer direction (bandwidths differ)
     */
    Seconds scatterGather(const std::vector<Bytes> &per_dpu_bytes,
                          TransferDirection dir) const;

    /**
     * Broadcast one buffer of `bytes` into `num_dpus` MRAMs.
     * The single source buffer avoids per-DPU setup, but every DPU's
     * copy must cross its rank bus.
     */
    Seconds broadcast(Bytes bytes, unsigned num_dpus) const;

    /** Convenience: scatter with a uniform per-DPU size. */
    Seconds uniformScatter(Bytes bytes_per_dpu, unsigned num_dpus,
                           TransferDirection dir) const;

    /** The configuration in use. */
    const TransferConfig &config() const { return cfg_; }

  private:
    double rankBandwidth(TransferDirection dir) const;

    TransferConfig cfg_;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_TRANSFER_MODEL_HH
