#include "upmem_system.hh"

#include <algorithm>
#include <string>

#include "analysis/capture.hh"
#include "analysis/checker.hh"
#include "analysis/imbalance.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace alphapim::upmem
{

namespace
{

/** Metric names per stall reason (dots and underscores only). */
const char *
stallMetricName(StallReason reason)
{
    switch (reason) {
      case StallReason::Memory:
        return "dpu.stall.memory_cycles";
      case StallReason::Revolver:
        return "dpu.stall.revolver_cycles";
      case StallReason::RfHazard:
        return "dpu.stall.rf_hazard_cycles";
      case StallReason::Sync:
        return "dpu.stall.sync_cycles";
      default:
        return "dpu.stall.unknown_cycles";
    }
}

/** Fold one launch's aggregate profile into the metrics registry. */
void
recordLaunchMetrics(const LaunchProfile &launch,
                    const std::vector<Cycles> &per_dpu_cycles)
{
    auto &m = telemetry::metrics();
    m.addCounter("dpu.launches");
    m.addCounter("dpu.total_cycles", launch.aggregate.totalCycles);
    m.addCounter("dpu.issued_cycles", launch.aggregate.issuedCycles);
    for (unsigned r = 0;
         r < static_cast<unsigned>(StallReason::NumReasons); ++r) {
        const auto reason = static_cast<StallReason>(r);
        m.addCounter(stallMetricName(reason),
                     launch.aggregate.stallCycles[r]);
    }
    for (unsigned c = 0; c < numOpCategories; ++c) {
        const auto cat = static_cast<OpCategory>(c);
        m.addCounter(std::string("dpu.instr.") + opCategoryName(cat),
                     launch.aggregate.instructionsInCategory(cat));
    }
    // Per-DPU cycle distribution: the load-imbalance signal. Idle
    // DPUs contribute zero samples, which is exactly the imbalance.
    for (const Cycles c : per_dpu_cycles)
        m.addSample("dpu.cycles_per_launch", static_cast<double>(c));
    m.addSample("dpu.active_per_launch", launch.activeDpus);
}

} // namespace

UpmemSystem::UpmemSystem(SystemConfig cfg)
    : cfg_(cfg), transfer_(cfg_.transfer), host_(cfg_.host)
{
    ALPHA_ASSERT(cfg_.numDpus > 0, "system needs at least one DPU");
    ALPHA_ASSERT(cfg_.dpu.tasklets > 0 &&
                     cfg_.dpu.tasklets <= cfg_.dpu.maxTasklets,
                 "tasklet count outside hardware limits");
}

LaunchProfile
UpmemSystem::launchKernel(
    unsigned num_dpus,
    const std::function<void(unsigned, std::vector<TaskletTrace> &)>
        &generate) const
{
    ALPHA_ASSERT(num_dpus > 0 && num_dpus <= cfg_.numDpus,
                 "launch requests more DPUs than allocated");

    const bool tracing = telemetry::tracer().enabled();
    const bool sampling = telemetry::metrics().enabled();
    const bool checking = analysis::checker().enabled();
    const bool capturing = analysis::capture().enabled();
    // The model checker harvests traces without timing them; replay
    // is the dominant cost of a launch, so skip it when asked to.
    const bool replaying =
        !capturing || !analysis::capture().skipReplay();
    if (capturing)
        analysis::capture().beginLaunch(num_dpus);

    const RevolverScheduler scheduler(cfg_.dpu);
    LaunchProfile launch;
    // Each worker writes only its own slot; the profiles are folded
    // serially in DPU order afterwards so floating-point accumulation
    // (activeThreadCycles) is deterministic regardless of thread
    // count and scheduling -- run records are exact-compared by the
    // bench differ.
    std::vector<DpuProfile> per_dpu_profiles(num_dpus);
    std::vector<Cycles> per_dpu_cycles;
    if (tracing || sampling)
        per_dpu_cycles.assign(num_dpus, 0);

    const bool host_prof = telemetry::hostProfiler().enabled();

    // Workers claim DPUs in runs of consecutive DPUs. The split
    // depends only on the launch size, so which DPUs share a run --
    // and with it every replay reuse below -- is the same at any
    // thread count. A run records into one set of trace buffers,
    // cleared between DPUs but keeping their capacity, and keeps the
    // previous DPU's traces in a second set: when a DPU's traces are
    // the same replay input as its predecessor's, its profile is a
    // copy of that one instead of a fresh replay.
    const unsigned run_len = std::max(1u, num_dpus / kLaunchRuns);
    const unsigned runs = (num_dpus + run_len - 1) / run_len;
    parallelFor(runs, [&](std::size_t run) {
        const unsigned first = static_cast<unsigned>(run) * run_len;
        const unsigned last = std::min(num_dpus, first + run_len);
        std::vector<TaskletTrace> traces(cfg_.dpu.tasklets);
        std::vector<TaskletTrace> previous(cfg_.dpu.tasklets);
        std::uint64_t records = 0, slots = 0, memo_hits = 0;
        std::uint64_t windows = 0, dispatches = 0;
        for (unsigned dpu = first; dpu < last; ++dpu) {
            {
                telemetry::HostPhaseTimer timer(
                    telemetry::HostPhase::TraceRecord);
                for (TaskletTrace &trace : traces)
                    trace.clear();
                generate(dpu, traces);
            }
            if (host_prof) {
                for (const TaskletTrace &trace : traces)
                    records += trace.records().size();
            }
            if (checking) {
                telemetry::HostPhaseTimer timer(
                    telemetry::HostPhase::Analysis);
                analysis::checker().analyzeDpu(dpu, traces, cfg_.dpu);
            }
            if (capturing) {
                telemetry::HostPhaseTimer timer(
                    telemetry::HostPhase::Analysis);
                analysis::capture().captureDpu(dpu, traces);
            }
            if (replaying) {
                telemetry::HostPhaseTimer timer(
                    telemetry::HostPhase::Replay);
                if (dpu > first && sameReplayInput(traces, previous)) {
                    per_dpu_profiles[dpu] = per_dpu_profiles[dpu - 1];
                    ++memo_hits;
                } else {
                    ReplayWork work;
                    per_dpu_profiles[dpu] = scheduler.run(traces, &work);
                    windows += work.windows;
                    dispatches += work.dispatches;
                }
                traces.swap(previous);
            }
            slots += per_dpu_profiles[dpu].totalCycles;
            if (!per_dpu_cycles.empty())
                per_dpu_cycles[dpu] = per_dpu_profiles[dpu].totalCycles;
        }
        if (host_prof) {
            // Both buffer sets are live for the whole run.
            std::uint64_t bytes = 0;
            for (unsigned t = 0; t < cfg_.dpu.tasklets; ++t) {
                bytes += (traces[t].records().capacity() +
                          previous[t].records().capacity()) *
                         sizeof(TraceRecord);
            }
            auto &prof = telemetry::hostProfiler();
            prof.addTraceRecords(records);
            prof.noteTaskletTraceBytes(bytes);
            prof.addReplaySlots(slots);
            prof.addReplayWork(windows, dispatches, memo_hits);
        }
    });
    {
        telemetry::HostPhaseTimer timer(
            telemetry::HostPhase::ProfileFold);
        for (const DpuProfile &profile : per_dpu_profiles)
            launch.add(profile);
    }

    telemetry::HostPhaseTimer analysis_timer(
        telemetry::HostPhase::Analysis);
    if (analysis::imbalance().enabled())
        analysis::imbalance().recordLaunch(per_dpu_profiles, cfg_.dpu);
    if (sampling)
        recordLaunchMetrics(launch, per_dpu_cycles);
    if (tracing) {
        auto &t = telemetry::tracer();
        const Seconds start = t.now() + cfg_.kernelLaunchOverhead;
        const unsigned shown =
            std::min(num_dpus, t.dpuTrackLimit());
        for (unsigned d = 0; d < shown; ++d) {
            if (per_dpu_cycles[d] == 0)
                continue;
            t.nameTrack(telemetry::dpuTrack(d),
                        "dpu " + std::to_string(d));
            // Stall composition and DMA traffic ride on the span so
            // alphapim_explain can draw the per-DPU heatmap lane and
            // roofline chart from the trace alone.
            const DpuProfile &p = per_dpu_profiles[d];
            t.completeEvent(
                telemetry::dpuTrack(d), "kernel", "dpu", start,
                static_cast<double>(per_dpu_cycles[d]) /
                    cfg_.dpu.clockHz,
                {telemetry::arg("cycles", per_dpu_cycles[d]),
                 telemetry::arg("dpu",
                                static_cast<std::uint64_t>(d)),
                 telemetry::arg(
                     "rank",
                     static_cast<std::uint64_t>(
                         d / cfg_.transfer.dpusPerRank)),
                 telemetry::arg("issued", p.issuedCycles),
                 telemetry::arg(
                     "stall_memory",
                     p.stallCycles[static_cast<std::size_t>(
                         StallReason::Memory)]),
                 telemetry::arg(
                     "stall_revolver",
                     p.stallCycles[static_cast<std::size_t>(
                         StallReason::Revolver)]),
                 telemetry::arg(
                     "stall_rf_hazard",
                     p.stallCycles[static_cast<std::size_t>(
                         StallReason::RfHazard)]),
                 telemetry::arg(
                     "stall_sync",
                     p.stallCycles[static_cast<std::size_t>(
                         StallReason::Sync)]),
                 telemetry::arg("instr", p.totalInstructions()),
                 telemetry::arg("mram_bytes",
                                p.mramReadBytes + p.mramWriteBytes)});
        }
        if (shown < num_dpus) {
            debugLog("telemetry",
                     "trace shows %u of %u DPU tracks (raise the "
                     "dpu-track limit to see more)",
                     shown, num_dpus);
        }
        t.advance(kernelSeconds(launch));
    }
    return launch;
}

} // namespace alphapim::upmem
