/**
 * @file
 * Shared machinery of the PIM matrix-vector kernels: the abstract
 * kernel interface used by applications and benches, work-splitting
 * helpers, and the WRAM budgeting rules that decide whether a kernel
 * accumulates its output (or caches its input vector) in scratchpad
 * or in MRAM.
 */

#ifndef ALPHA_PIM_CORE_KERNEL_BASE_HH
#define ALPHA_PIM_CORE_KERNEL_BASE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/device_block.hh"
#include "core/phase_times.hh"
#include "core/semiring.hh"
#include "sparse/partition_shares.hh"
#include "sparse/sparse_vector.hh"
#include "telemetry/host_prof.hh"
#include "upmem/upmem_system.hh"

namespace alphapim::core
{

/**
 * Export the partitioner's per-DPU assignment in the kernel-agnostic
 * form the imbalance observatory joins with per-DPU profiles. Kernels
 * publish this via analysis::imbalance().setLaunchContext() right
 * before each launch.
 */
std::vector<sparse::PartitionShare>
partitionShares(const std::vector<DeviceBlock> &blocks);

/** Which matrix-vector kernel family an implementation belongs to. */
enum class KernelKind
{
    SpMSpV, ///< compressed input vector
    SpMV,   ///< dense input vector
};

/**
 * Abstract PIM matrix-vector kernel y = A (*) x over a semiring.
 *
 * Implementations own the partitioned device image of A (built once,
 * amortized over iterations, and excluded from phase timing exactly
 * as the paper does) and model every launch's Load / Kernel /
 * Retrieve / Merge phases.
 */
template <Semiring S>
class PimMxvKernel
{
  public:
    using Value = typename S::Value;

    virtual ~PimMxvKernel() = default;

    /** Multiply against input vector x (compressed form). */
    virtual MxvResult<Value>
    run(const sparse::SparseVector<Value> &x) const = 0;

    /** Paper-style variant name ("CSC-2D", "COO", ...). */
    virtual const char *name() const = 0;

    /** SpMSpV or SpMV. */
    virtual KernelKind kind() const = 0;

    /** Number of matrix rows ( == columns for adjacency matrices). */
    virtual NodeId numRows() const = 0;

    /** Total modeled MRAM footprint of the partitioned matrix. */
    virtual Bytes matrixBytes() const = 0;
};

namespace detail
{

/** Compressed (index, value) pair size in MRAM. The matrix slice is
 * always stored with float values, so matrix streams use this
 * constant regardless of the semiring. */
inline constexpr Bytes pairBytes = sizeof(NodeId) + sizeof(float);

/** Compressed (index, value) pair size for vector entries of value
 * type V -- equals pairBytes for every 4-byte semiring, and grows
 * with the lane count for batched values. */
template <typename V>
inline constexpr Bytes vecPairBytes = sizeof(NodeId) + sizeof(V);

/** Stride of one value of type V in the padded MRAM input/output
 * images: the 8-byte DMA granularity, or the value size once it
 * exceeds it. 8 for every 4-byte semiring. */
template <typename V>
inline constexpr std::uint64_t valueStride =
    (sizeof(V) + 7ull) & ~7ull;

/** WRAM words (4 B) holding one value of type V; the register loads
 * a kernel charges to bring one value into play. */
template <typename V>
inline constexpr std::uint32_t valueWords = (sizeof(V) + 3) / 4;

/** Number of hardware mutexes used for output-group locking. */
inline constexpr unsigned outputMutexes = 32;

/** Barrier id used for the end-of-kernel rendezvous. */
inline constexpr std::uint32_t kernelBarrier = 0;

// ---- Modeled device address layout --------------------------------
//
// The kernels annotate their traces with the address ranges an
// equivalent hand-written UPMEM kernel would touch, so the
// pim-verify analyzer (src/analysis/) can check them against the
// execution model. The layout is deliberately simple: per-DPU MRAM
// holds the matrix slice at the bottom, the (padded, stride-8) input
// vector image in a middle region, and the (padded, stride-8) output
// image in a top region; WRAM reserves its first wramChunkBytes for
// the streaming staging buffer and accumulates output above it.

/** MRAM base of the partitioned matrix slice. */
inline constexpr std::uint64_t mramMatrixBase = 0;

/** MRAM base of the input-vector image (stride-8 padded entries). */
inline constexpr std::uint64_t mramInputBase = 32ull << 20;

/** MRAM base of the output image (stride-8 padded entries). */
inline constexpr std::uint64_t mramOutputBase = 48ull << 20;

/** WRAM address of the shared output accumulator / merge area. */
inline constexpr std::uint32_t wramOutputBase = 0x4000;

/** True when `elems` stride-8 entries fit a 16 MiB MRAM region, i.e.
 * the layout above can address them; kernels fall back to
 * unaddressed records otherwise. */
inline constexpr bool
mramRegionFits(std::uint64_t elems)
{
    return elems * 8 <= (16ull << 20);
}

/**
 * The 8-byte-aligned MRAM byte range backing elements [lo, hi) of a
 * packed array at `base`. Both ends are aligned *down*, so the
 * slices of consecutive [lo,hi) ranges stay disjoint -- exactly the
 * discipline a real UPMEM kernel needs for its write-back DMA, whose
 * transfers move whole 8-byte units.
 */
struct AlignedSlice
{
    std::uint64_t addr;
    Bytes bytes;
};

inline AlignedSlice
alignedSlice(std::uint64_t base, std::uint64_t lo, std::uint64_t hi,
             unsigned elem_bytes)
{
    const std::uint64_t begin = (base + lo * elem_bytes) & ~7ull;
    const std::uint64_t end = (base + hi * elem_bytes) & ~7ull;
    return {begin, end > begin ? end - begin : 0};
}

/** WRAM budget available for output accumulation. */
inline Bytes
wramOutputBudget(const upmem::DpuConfig &cfg)
{
    return cfg.wramBytes / 2;
}

/** WRAM budget available for caching the input vector. */
inline Bytes
wramInputBudget(const upmem::DpuConfig &cfg)
{
    return cfg.wramBytes / 4;
}

/**
 * Split `total` items into `parts` contiguous ranges of near-equal
 * size; returns the starts array (length parts + 1).
 */
std::vector<std::uint64_t> evenSplit(std::uint64_t total,
                                     unsigned parts);

/** ceil(log2(n + 1)): probe count of a binary search over n items. */
unsigned searchDepth(std::uint64_t n);

/**
 * One DPU's host-side share of a launch. Only the worker simulating
 * that DPU writes it, so a launch needs no lock; after the launch the
 * kernel folds all slots serially in DPU order (foldDpuSlots), which
 * fixes the order of floating-point accumulation across DPUs.
 */
template <typename V>
struct DpuSlot
{
    /** Nonzero outputs as (global row, value) pairs. */
    std::vector<std::pair<NodeId, V>> rows;

    /** Semiring add+mul operations the DPU performed. */
    std::uint64_t semiringOps = 0;

    /** Host merge operations its output costs. */
    std::uint64_t mergeOps = 0;

    /** Bytes retrieved from the DPU after the kernel. */
    Bytes retrieveBytes = 0;
};

/** Append the nonzero entries of a DPU's dense partial output, at
 * global row `row_base + r`, to its slot. */
template <Semiring S>
void
collectNonzeros(const std::vector<typename S::Value> &partial,
                NodeId row_base, DpuSlot<typename S::Value> &slot)
{
    for (NodeId r = 0; r < partial.size(); ++r) {
        if (!S::isZero(partial[r]))
            slot.rows.emplace_back(row_base + r, partial[r]);
    }
}

/**
 * Fold a launch's per-DPU slots into `result` serially in DPU order,
 * timed as host merge. With `accumulate` each row is semiring-added
 * into y (output slices that overlap across DPUs); otherwise it is
 * assigned (disjoint row slices). Sets result.semiringOps and one
 * retrieve size per DPU.
 *
 * @return the summed host merge operations
 */
template <Semiring S>
std::uint64_t
foldDpuSlots(const std::vector<DpuSlot<typename S::Value>> &slots,
             bool accumulate, MxvResult<typename S::Value> &result,
             std::vector<Bytes> &retrieve_bytes)
{
    telemetry::HostPhaseTimer timer(telemetry::HostPhase::HostMerge);
    std::uint64_t merge_ops = 0;
    retrieve_bytes.resize(slots.size());
    for (std::size_t d = 0; d < slots.size(); ++d) {
        const DpuSlot<typename S::Value> &slot = slots[d];
        for (const auto &[row, v] : slot.rows)
            result.y[row] = accumulate ? S::add(result.y[row], v) : v;
        result.semiringOps += slot.semiringOps;
        merge_ops += slot.mergeOps;
        retrieve_bytes[d] = slot.retrieveBytes;
    }
    return merge_ops;
}

} // namespace detail

} // namespace alphapim::core

#endif // ALPHA_PIM_CORE_KERNEL_BASE_HH
