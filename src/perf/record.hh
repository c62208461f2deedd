/**
 * @file
 * Run records: the parsed form of one `--json-out` JSONL line, the
 * encoder that produces those lines, and the loader that reads a
 * record set back for diffing. A record couples the run's identity
 * (bench, dataset, variant, dpus, seed), its manifest (provenance,
 * see manifest.hh), and its measurements -- the deterministic
 * model-time numbers plus the one genuinely noisy field, the host
 * wall-clock duration.
 */

#ifndef ALPHA_PIM_PERF_RECORD_HH
#define ALPHA_PIM_PERF_RECORD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/imbalance.hh"
#include "core/phase_times.hh"
#include "perf/manifest.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/timeline.hh"
#include "upmem/profile.hh"

namespace alphapim::perf
{

/** Pairing identity of a run: two records with equal keys measure
 * the same experiment and are mechanically comparable. */
struct RunKey
{
    std::string bench;
    std::string dataset;
    std::string variant;
    std::uint64_t dpus = 0;
    std::uint64_t seed = 0;

    bool operator<(const RunKey &o) const;
    bool operator==(const RunKey &o) const;

    /** "fig07/e-En/BFS-adaptive@256dpus" display form. */
    std::string str() const;
};

/** Execution-timeline summary of one run (schema v3): occupancy and
 * overlap from the reconstructed span timeline, critical-path
 * composition, and the what-if overlap bounds. */
struct TimelineSummary
{
    double windowSeconds = 0.0;
    std::uint64_t launches = 0;
    std::uint64_t ranks = 0;
    double rankOccupancyMean = 0.0;
    double rankOccupancyMin = 0.0;
    double dpuOccupancyMean = 0.0;
    double overlapFraction = 0.0;
    double idleFraction = 0.0;

    /** Fraction of the critical path spent in transfers. */
    double transferCriticalFraction = 0.0;

    /** Upper bounds on speedup from the what-if estimator. */
    double whatifRankOverlapSpeedup = 1.0;
    double whatifDoubleBufferSpeedup = 1.0;
    double whatifCombinedSpeedup = 1.0;
};

/** Load-imbalance & roofline summary of one run (schema v4): fleet
 * skew statistics over per-DPU cycles and partition shares, the
 * worst launch's straggler attribution, the Amdahl-style rebalance
 * bound, and the run's roofline position. */
struct ImbalanceSummary
{
    std::uint64_t launches = 0;

    /** Summed critical-DPU cycles over summed mean cycles. */
    double stragglerFactor = 1.0;
    double cyclesGini = 0.0;
    double cyclesCov = 0.0;
    double cyclesP99OverMean = 0.0;
    double nnzGini = 0.0;
    double nnzMaxOverMean = 0.0;

    /** Worst launch's straggler: kernel, DPU, excess and its
     * attribution to a stall reason and partition share. */
    std::string stragglerKernel;
    std::uint64_t stragglerDpu = 0;
    double stragglerCyclesOverMean = 1.0;
    std::string stragglerStall;
    double stragglerStallFraction = 0.0;
    double stragglerNnzOverMean = 0.0;

    /** Modeled kernel wall time vs the perfectly-leveled bound. */
    double kernelSeconds = 0.0;
    double leveledKernelSeconds = 0.0;

    /** Run roofline: intensity, achieved vs ceiling, classification. */
    double rooflineOpIntensity = 0.0;
    double rooflineAchievedOpsPerSec = 0.0;
    double rooflinePipelineCeilingOpsPerSec = 0.0;
    double rooflineRidgeIntensity = 0.0;
    double rooflineMemoryBoundFraction = 0.0;
};

/** Host-performance summary of one run (schema v5): where the
 * simulator's own wall seconds and bytes went. Every field is
 * wall-clock derived and therefore noisy -- the differ never
 * exact-compares this block; it uses bootstrap CIs like
 * wall_seconds. */
struct HostSummary
{
    /** Sum of the per-phase self seconds below. */
    double totalSeconds = 0.0;

    // Per-phase self wall seconds (see telemetry::HostPhase).
    double partitionBuildSeconds = 0.0;
    double traceRecordSeconds = 0.0;
    double replaySeconds = 0.0;
    double profileFoldSeconds = 0.0;
    double transferModelSeconds = 0.0;
    double hostMergeSeconds = 0.0;
    double analysisSeconds = 0.0;

    /** Throughput: replayed instruction slots per replay second and
     * generated trace records per trace-record second. */
    double replaySlotsPerSec = 0.0;
    double traceRecordsPerSec = 0.0;
    std::uint64_t replaySlots = 0;
    std::uint64_t traceRecords = 0;

    /** Replay work counters (exact, unlike the times): fast-path
     * windows and single dispatches of the replays run, and DPUs
     * whose replay was reused. 0 when parsed from a record that
     * predates them. */
    std::uint64_t replayWindows = 0;
    std::uint64_t replayDispatches = 0;
    std::uint64_t replayMemoHits = 0;

    /** Host seconds per modeled second (the simulation slowdown). */
    double slowdownFactor = 0.0;

    /** Memory footprint: peak RSS, live TaskletTrace high-water,
     * tracer and metrics buffer bytes at record time. */
    std::uint64_t peakRssBytes = 0;
    std::uint64_t taskletTraceBytesPeak = 0;
    std::uint64_t tracerBytes = 0;
    std::uint64_t metricsBytes = 0;
};

/** Query-serving summary of one run (schema v6): admission and
 * batching outcomes plus the model-time latency distribution of the
 * serving subsystem (src/serve/). Every field derives from the
 * deterministic model clock, so the differ exact-compares the whole
 * block and gates p95 latency and throughput regressions. */
struct ServeSummary
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0.0;
    std::uint64_t maxBatchSize = 0;
    std::uint64_t maxQueueDepth = 0;

    /** Model-second latency percentiles over completed queries. */
    double latencyP50 = 0.0;
    double latencyP95 = 0.0;
    double latencyP99 = 0.0;
    double latencyP999 = 0.0;
    double latencyMean = 0.0;

    /** Completed queries per model second of makespan. */
    double queriesPerSec = 0.0;

    /** First-arrival to last-completion model seconds. */
    double makespanSeconds = 0.0;
};

/** Per-run transfer-volume deltas (from the xfer.* counters). */
struct XferCounts
{
    std::uint64_t scatters = 0;
    std::uint64_t scatterBytes = 0;
    std::uint64_t gathers = 0;
    std::uint64_t gatherBytes = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t broadcastBytes = 0;
};

/** One parsed run record. */
struct RunRecord
{
    RunManifest manifest;
    RunKey key;
    std::uint64_t iterations = 0;
    core::PhaseTimes times; ///< deterministic model seconds

    /** Host wall-clock seconds of the run; < 0 when absent. Noisy:
     * the differ never exact-compares it. */
    double wallSeconds = -1.0;

    // ---- DPU profile (absent unless hasProfile) ----
    bool hasProfile = false;
    std::uint64_t totalCycles = 0;
    std::uint64_t issuedCycles = 0;
    std::uint64_t maxCycles = 0;
    std::uint64_t activeDpus = 0;
    double issuedFraction = 0.0;
    double avgActiveThreads = 0.0;
    std::map<std::string, double> stallFractions;
    std::map<std::string, std::uint64_t> instrByCategory;

    // ---- transfer volume (absent unless hasXfer) ----
    bool hasXfer = false;
    XferCounts xfer;

    // ---- execution timeline (absent unless hasTimeline; schema v3
    // records only -- v2 and older parse with hasTimeline false) ----
    bool hasTimeline = false;
    TimelineSummary timeline;

    // ---- load imbalance & roofline (absent unless hasImbalance;
    // schema v4 records only -- older schemas parse with
    // hasImbalance false) ----
    bool hasImbalance = false;
    ImbalanceSummary imbalance;

    // ---- host-performance profile (absent unless hasHost; schema
    // v5 records only -- older schemas parse with hasHost false) ----
    bool hasHost = false;
    HostSummary host;

    // ---- query-serving summary (absent unless hasServe; schema v6
    // records only -- older schemas parse with hasServe false) ----
    bool hasServe = false;
    ServeSummary serve;
};

/**
 * Encode one run record as a compact JSON object (one JSONL line,
 * without the trailing newline).
 *
 * @param manifest   provenance block (schema etc. already filled)
 * @param key        run identity
 * @param iterations iteration count (0 = n/a)
 * @param times      model-time phase breakdown
 * @param profile    DPU profile, or nullptr
 * @param xfer       per-run transfer deltas, or nullptr
 * @param wallSeconds host wall-clock duration; < 0 omits the field
 * @param timeline   execution-timeline summary, or nullptr
 * @param imbalance  load-imbalance & roofline summary, or nullptr
 * @param host       host-performance profile summary, or nullptr
 * @param serve      query-serving summary, or nullptr
 */
std::string encodeRunRecord(const RunManifest &manifest,
                            const RunKey &key,
                            std::uint64_t iterations,
                            const core::PhaseTimes &times,
                            const upmem::LaunchProfile *profile,
                            const XferCounts *xfer,
                            double wallSeconds,
                            const TimelineSummary *timeline = nullptr,
                            const ImbalanceSummary *imbalance = nullptr,
                            const HostSummary *host = nullptr,
                            const ServeSummary *serve = nullptr);

/** Parse one record line. Returns false (with *error set) on
 * malformed JSON or missing identity fields. */
bool parseRunRecord(const std::string &line, RunRecord &out,
                    std::string *error);

/** Condense a reconstructed timeline (and its computed stats) into
 * the record-level summary: occupancy/overlap plus the critical-path
 * transfer fraction and what-if speedup bounds. */
TimelineSummary summarizeTimeline(const telemetry::Timeline &timeline,
                                  const telemetry::TimelineStats &stats);

/** Condense the imbalance observer's run aggregate into the
 * record-level summary. */
ImbalanceSummary summarizeImbalance(const analysis::RunImbalance &run);

/** Condense a host-profiler snapshot into the record-level summary. */
HostSummary summarizeHost(const telemetry::HostProfile &profile);

/** A loaded record file. */
struct RecordSet
{
    std::string path;
    std::vector<RunRecord> records;

    /** Distinct schema tags seen ("" = legacy v1 records). */
    std::vector<std::string> schemas;

    /** Distinct git SHAs seen. */
    std::vector<std::string> gitShas;

    /** True when records carry more than one schema / revision --
     * the append-only --json-out footgun the differ warns about. */
    bool mixedSchemas() const { return schemas.size() > 1; }
    bool mixedShas() const { return gitShas.size() > 1; }
};

/** Load a JSONL record file. Returns false (with *error set) when
 * the file cannot be read or a line cannot be parsed. */
bool loadRecordSet(const std::string &path, RecordSet &out,
                   std::string *error);

} // namespace alphapim::perf

#endif // ALPHA_PIM_PERF_RECORD_HH
