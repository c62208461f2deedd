#include "record.hh"

#include <algorithm>
#include <fstream>
#include <tuple>

#include "analysis/critical_path.hh"
#include "core/result_json.hh"

namespace alphapim::perf
{

bool
RunKey::operator<(const RunKey &o) const
{
    return std::tie(bench, dataset, variant, dpus, seed) <
           std::tie(o.bench, o.dataset, o.variant, o.dpus, o.seed);
}

bool
RunKey::operator==(const RunKey &o) const
{
    return std::tie(bench, dataset, variant, dpus, seed) ==
           std::tie(o.bench, o.dataset, o.variant, o.dpus, o.seed);
}

std::string
RunKey::str() const
{
    return bench + "/" + dataset + "/" + variant + "@" +
           std::to_string(dpus) + "dpus";
}

std::string
encodeRunRecord(const RunManifest &manifest, const RunKey &key,
                std::uint64_t iterations,
                const core::PhaseTimes &times,
                const upmem::LaunchProfile *profile,
                const XferCounts *xfer, double wallSeconds,
                const TimelineSummary *timeline,
                const ImbalanceSummary *imbalance,
                const HostSummary *host, const ServeSummary *serve)
{
    telemetry::JsonWriter w;
    w.beginObject();
    writeManifestFields(w, manifest);
    w.key("bench").value(key.bench);
    w.key("dataset").value(key.dataset);
    w.key("variant").value(key.variant);
    w.key("dpus").value(key.dpus);
    w.key("seed").value(key.seed);
    w.key("iterations").value(iterations);
    if (wallSeconds >= 0.0)
        w.key("wall_seconds").value(wallSeconds);
    w.key("times");
    core::writePhaseTimes(w, times);
    if (profile) {
        w.key("profile");
        core::writeLaunchProfile(w, *profile);
    }
    if (xfer) {
        w.key("xfer").beginObject();
        w.key("scatters").value(xfer->scatters);
        w.key("scatter_bytes").value(xfer->scatterBytes);
        w.key("gathers").value(xfer->gathers);
        w.key("gather_bytes").value(xfer->gatherBytes);
        w.key("broadcasts").value(xfer->broadcasts);
        w.key("broadcast_bytes").value(xfer->broadcastBytes);
        w.endObject();
    }
    if (timeline) {
        w.key("timeline").beginObject();
        w.key("window_seconds").value(timeline->windowSeconds);
        w.key("launches").value(timeline->launches);
        w.key("ranks").value(timeline->ranks);
        w.key("rank_occupancy_mean")
            .value(timeline->rankOccupancyMean);
        w.key("rank_occupancy_min")
            .value(timeline->rankOccupancyMin);
        w.key("dpu_occupancy_mean")
            .value(timeline->dpuOccupancyMean);
        w.key("overlap_fraction").value(timeline->overlapFraction);
        w.key("idle_fraction").value(timeline->idleFraction);
        w.key("transfer_critical_fraction")
            .value(timeline->transferCriticalFraction);
        w.key("whatif_rank_overlap_speedup")
            .value(timeline->whatifRankOverlapSpeedup);
        w.key("whatif_double_buffer_speedup")
            .value(timeline->whatifDoubleBufferSpeedup);
        w.key("whatif_combined_speedup")
            .value(timeline->whatifCombinedSpeedup);
        w.endObject();
    }
    if (imbalance) {
        w.key("imbalance").beginObject();
        w.key("launches").value(imbalance->launches);
        w.key("straggler_factor").value(imbalance->stragglerFactor);
        w.key("cycles_gini").value(imbalance->cyclesGini);
        w.key("cycles_cov").value(imbalance->cyclesCov);
        w.key("cycles_p99_over_mean")
            .value(imbalance->cyclesP99OverMean);
        w.key("nnz_gini").value(imbalance->nnzGini);
        w.key("nnz_max_over_mean").value(imbalance->nnzMaxOverMean);
        w.key("straggler_kernel").value(imbalance->stragglerKernel);
        w.key("straggler_dpu").value(imbalance->stragglerDpu);
        w.key("straggler_cycles_over_mean")
            .value(imbalance->stragglerCyclesOverMean);
        w.key("straggler_stall").value(imbalance->stragglerStall);
        w.key("straggler_stall_fraction")
            .value(imbalance->stragglerStallFraction);
        w.key("straggler_nnz_over_mean")
            .value(imbalance->stragglerNnzOverMean);
        w.key("kernel_seconds").value(imbalance->kernelSeconds);
        w.key("leveled_kernel_seconds")
            .value(imbalance->leveledKernelSeconds);
        w.key("roofline").beginObject();
        w.key("op_intensity").value(imbalance->rooflineOpIntensity);
        w.key("achieved_ops_per_sec")
            .value(imbalance->rooflineAchievedOpsPerSec);
        w.key("pipeline_ceiling_ops_per_sec")
            .value(imbalance->rooflinePipelineCeilingOpsPerSec);
        w.key("ridge_intensity")
            .value(imbalance->rooflineRidgeIntensity);
        w.key("memory_bound_fraction")
            .value(imbalance->rooflineMemoryBoundFraction);
        w.endObject();
        w.endObject();
    }
    if (host) {
        w.key("host").beginObject();
        w.key("total_seconds").value(host->totalSeconds);
        w.key("partition_build_seconds")
            .value(host->partitionBuildSeconds);
        w.key("trace_record_seconds")
            .value(host->traceRecordSeconds);
        w.key("replay_seconds").value(host->replaySeconds);
        w.key("profile_fold_seconds")
            .value(host->profileFoldSeconds);
        w.key("transfer_model_seconds")
            .value(host->transferModelSeconds);
        w.key("host_merge_seconds").value(host->hostMergeSeconds);
        w.key("analysis_seconds").value(host->analysisSeconds);
        w.key("replay_slots_per_sec")
            .value(host->replaySlotsPerSec);
        w.key("trace_records_per_sec")
            .value(host->traceRecordsPerSec);
        w.key("replay_slots").value(host->replaySlots);
        w.key("trace_records").value(host->traceRecords);
        w.key("replay_windows").value(host->replayWindows);
        w.key("replay_dispatches").value(host->replayDispatches);
        w.key("replay_memo_hits").value(host->replayMemoHits);
        w.key("slowdown_factor").value(host->slowdownFactor);
        w.key("peak_rss_bytes").value(host->peakRssBytes);
        w.key("tasklet_trace_bytes_peak")
            .value(host->taskletTraceBytesPeak);
        w.key("tracer_bytes").value(host->tracerBytes);
        w.key("metrics_bytes").value(host->metricsBytes);
        w.endObject();
    }
    if (serve) {
        w.key("serve").beginObject();
        w.key("submitted").value(serve->submitted);
        w.key("admitted").value(serve->admitted);
        w.key("rejected").value(serve->rejected);
        w.key("completed").value(serve->completed);
        w.key("batches").value(serve->batches);
        w.key("mean_batch_size").value(serve->meanBatchSize);
        w.key("max_batch_size").value(serve->maxBatchSize);
        w.key("max_queue_depth").value(serve->maxQueueDepth);
        w.key("latency_p50").value(serve->latencyP50);
        w.key("latency_p95").value(serve->latencyP95);
        w.key("latency_p99").value(serve->latencyP99);
        w.key("latency_p999").value(serve->latencyP999);
        w.key("latency_mean").value(serve->latencyMean);
        w.key("queries_per_sec").value(serve->queriesPerSec);
        w.key("makespan_seconds").value(serve->makespanSeconds);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

namespace
{

double
numberField(const telemetry::JsonValue &obj, const char *key,
            double fallback = 0.0)
{
    const auto *v = obj.find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::uint64_t
uintField(const telemetry::JsonValue &obj, const char *key)
{
    return static_cast<std::uint64_t>(numberField(obj, key));
}

std::string
stringField(const telemetry::JsonValue &obj, const char *key)
{
    const auto *v = obj.find(key);
    return v && v->isString() ? v->asString() : std::string();
}

} // namespace

bool
parseRunRecord(const std::string &line, RunRecord &out,
               std::string *error)
{
    telemetry::JsonValue doc;
    if (!telemetry::JsonValue::parse(line, doc, error))
        return false;
    if (!doc.isObject()) {
        if (error)
            *error = "record is not a JSON object";
        return false;
    }

    out = RunRecord();
    out.manifest = parseManifestFields(doc);

    const auto *bench = doc.find("bench");
    const auto *dataset = doc.find("dataset");
    const auto *variant = doc.find("variant");
    if (!bench || !bench->isString() || !dataset ||
        !dataset->isString() || !variant || !variant->isString()) {
        if (error)
            *error = "record lacks bench/dataset/variant identity";
        return false;
    }
    out.key.bench = bench->asString();
    out.key.dataset = dataset->asString();
    out.key.variant = variant->asString();
    out.key.dpus = uintField(doc, "dpus");
    out.key.seed = uintField(doc, "seed");
    out.iterations = uintField(doc, "iterations");
    out.wallSeconds = numberField(doc, "wall_seconds", -1.0);

    if (const auto *times = doc.find("times");
        times && times->isObject()) {
        out.times.load = numberField(*times, "load");
        out.times.kernel = numberField(*times, "kernel");
        out.times.retrieve = numberField(*times, "retrieve");
        out.times.merge = numberField(*times, "merge");
    }

    if (const auto *p = doc.find("profile"); p && p->isObject()) {
        out.hasProfile = true;
        out.totalCycles = uintField(*p, "total_cycles");
        out.issuedCycles = uintField(*p, "issued_cycles");
        out.maxCycles = uintField(*p, "max_cycles");
        out.activeDpus = uintField(*p, "active_dpus");
        out.issuedFraction = numberField(*p, "issued_fraction");
        out.avgActiveThreads =
            numberField(*p, "avg_active_threads");
        if (const auto *sf = p->find("stall_fractions");
            sf && sf->isObject()) {
            for (const auto &[name, v] : sf->members())
                out.stallFractions[name] = v.asNumber();
        }
        if (const auto *mix = p->find("instr_by_category");
            mix && mix->isObject()) {
            for (const auto &[name, v] : mix->members())
                out.instrByCategory[name] =
                    static_cast<std::uint64_t>(v.asNumber());
        }
    }

    if (const auto *t = doc.find("timeline"); t && t->isObject()) {
        out.hasTimeline = true;
        out.timeline.windowSeconds =
            numberField(*t, "window_seconds");
        out.timeline.launches = uintField(*t, "launches");
        out.timeline.ranks = uintField(*t, "ranks");
        out.timeline.rankOccupancyMean =
            numberField(*t, "rank_occupancy_mean");
        out.timeline.rankOccupancyMin =
            numberField(*t, "rank_occupancy_min");
        out.timeline.dpuOccupancyMean =
            numberField(*t, "dpu_occupancy_mean");
        out.timeline.overlapFraction =
            numberField(*t, "overlap_fraction");
        out.timeline.idleFraction =
            numberField(*t, "idle_fraction");
        out.timeline.transferCriticalFraction =
            numberField(*t, "transfer_critical_fraction");
        out.timeline.whatifRankOverlapSpeedup =
            numberField(*t, "whatif_rank_overlap_speedup", 1.0);
        out.timeline.whatifDoubleBufferSpeedup =
            numberField(*t, "whatif_double_buffer_speedup", 1.0);
        out.timeline.whatifCombinedSpeedup =
            numberField(*t, "whatif_combined_speedup", 1.0);
    }

    if (const auto *i = doc.find("imbalance"); i && i->isObject()) {
        out.hasImbalance = true;
        auto &s = out.imbalance;
        s.launches = uintField(*i, "launches");
        s.stragglerFactor = numberField(*i, "straggler_factor", 1.0);
        s.cyclesGini = numberField(*i, "cycles_gini");
        s.cyclesCov = numberField(*i, "cycles_cov");
        s.cyclesP99OverMean =
            numberField(*i, "cycles_p99_over_mean", 1.0);
        s.nnzGini = numberField(*i, "nnz_gini");
        s.nnzMaxOverMean = numberField(*i, "nnz_max_over_mean", 1.0);
        s.stragglerKernel = stringField(*i, "straggler_kernel");
        s.stragglerDpu = uintField(*i, "straggler_dpu");
        s.stragglerCyclesOverMean =
            numberField(*i, "straggler_cycles_over_mean", 1.0);
        s.stragglerStall = stringField(*i, "straggler_stall");
        s.stragglerStallFraction =
            numberField(*i, "straggler_stall_fraction");
        s.stragglerNnzOverMean =
            numberField(*i, "straggler_nnz_over_mean");
        s.kernelSeconds = numberField(*i, "kernel_seconds");
        s.leveledKernelSeconds =
            numberField(*i, "leveled_kernel_seconds");
        if (const auto *r = i->find("roofline");
            r && r->isObject()) {
            s.rooflineOpIntensity = numberField(*r, "op_intensity");
            s.rooflineAchievedOpsPerSec =
                numberField(*r, "achieved_ops_per_sec");
            s.rooflinePipelineCeilingOpsPerSec =
                numberField(*r, "pipeline_ceiling_ops_per_sec");
            s.rooflineRidgeIntensity =
                numberField(*r, "ridge_intensity");
            s.rooflineMemoryBoundFraction =
                numberField(*r, "memory_bound_fraction");
        }
    }

    if (const auto *h = doc.find("host"); h && h->isObject()) {
        out.hasHost = true;
        auto &s = out.host;
        s.totalSeconds = numberField(*h, "total_seconds");
        s.partitionBuildSeconds =
            numberField(*h, "partition_build_seconds");
        s.traceRecordSeconds =
            numberField(*h, "trace_record_seconds");
        s.replaySeconds = numberField(*h, "replay_seconds");
        s.profileFoldSeconds =
            numberField(*h, "profile_fold_seconds");
        s.transferModelSeconds =
            numberField(*h, "transfer_model_seconds");
        s.hostMergeSeconds = numberField(*h, "host_merge_seconds");
        s.analysisSeconds = numberField(*h, "analysis_seconds");
        s.replaySlotsPerSec =
            numberField(*h, "replay_slots_per_sec");
        s.traceRecordsPerSec =
            numberField(*h, "trace_records_per_sec");
        s.replaySlots = uintField(*h, "replay_slots");
        s.traceRecords = uintField(*h, "trace_records");
        s.replayWindows = uintField(*h, "replay_windows");
        s.replayDispatches = uintField(*h, "replay_dispatches");
        s.replayMemoHits = uintField(*h, "replay_memo_hits");
        s.slowdownFactor = numberField(*h, "slowdown_factor");
        s.peakRssBytes = uintField(*h, "peak_rss_bytes");
        s.taskletTraceBytesPeak =
            uintField(*h, "tasklet_trace_bytes_peak");
        s.tracerBytes = uintField(*h, "tracer_bytes");
        s.metricsBytes = uintField(*h, "metrics_bytes");
    }

    if (const auto *sv = doc.find("serve"); sv && sv->isObject()) {
        out.hasServe = true;
        auto &s = out.serve;
        s.submitted = uintField(*sv, "submitted");
        s.admitted = uintField(*sv, "admitted");
        s.rejected = uintField(*sv, "rejected");
        s.completed = uintField(*sv, "completed");
        s.batches = uintField(*sv, "batches");
        s.meanBatchSize = numberField(*sv, "mean_batch_size");
        s.maxBatchSize = uintField(*sv, "max_batch_size");
        s.maxQueueDepth = uintField(*sv, "max_queue_depth");
        s.latencyP50 = numberField(*sv, "latency_p50");
        s.latencyP95 = numberField(*sv, "latency_p95");
        s.latencyP99 = numberField(*sv, "latency_p99");
        s.latencyP999 = numberField(*sv, "latency_p999");
        s.latencyMean = numberField(*sv, "latency_mean");
        s.queriesPerSec = numberField(*sv, "queries_per_sec");
        s.makespanSeconds = numberField(*sv, "makespan_seconds");
    }

    if (const auto *x = doc.find("xfer"); x && x->isObject()) {
        out.hasXfer = true;
        out.xfer.scatters = uintField(*x, "scatters");
        out.xfer.scatterBytes = uintField(*x, "scatter_bytes");
        out.xfer.gathers = uintField(*x, "gathers");
        out.xfer.gatherBytes = uintField(*x, "gather_bytes");
        out.xfer.broadcasts = uintField(*x, "broadcasts");
        out.xfer.broadcastBytes = uintField(*x, "broadcast_bytes");
    }
    return true;
}

TimelineSummary
summarizeTimeline(const telemetry::Timeline &timeline,
                  const telemetry::TimelineStats &stats)
{
    TimelineSummary s;
    s.windowSeconds = stats.windowSeconds;
    s.launches = static_cast<std::uint64_t>(stats.launches);
    s.ranks = static_cast<std::uint64_t>(stats.ranks);
    s.rankOccupancyMean = stats.rankOccupancyMean;
    s.rankOccupancyMin = stats.rankOccupancyMin;
    s.dpuOccupancyMean = stats.dpuOccupancyMean;
    s.overlapFraction = stats.overlapFraction;
    s.idleFraction = stats.idleFraction;

    const analysis::LaunchDag dag =
        analysis::buildLaunchDag(timeline);
    const analysis::CriticalPath path =
        analysis::computeCriticalPath(dag);
    s.transferCriticalFraction = path.transferFraction();

    const analysis::WhatIf whatif =
        analysis::estimateOverlap(analysis::launchPhases(timeline));
    s.whatifRankOverlapSpeedup = whatif.rankOverlapSpeedup();
    s.whatifDoubleBufferSpeedup = whatif.doubleBufferSpeedup();
    s.whatifCombinedSpeedup = whatif.combinedSpeedup();
    return s;
}

ImbalanceSummary
summarizeImbalance(const analysis::RunImbalance &run)
{
    ImbalanceSummary s;
    s.launches = static_cast<std::uint64_t>(run.launches);
    s.stragglerFactor = run.stragglerFactor;
    s.cyclesGini = run.cyclesGini;
    s.cyclesCov = run.cyclesCov;
    s.cyclesP99OverMean = run.cyclesP99OverMean;
    s.nnzGini = run.nnzGini;
    s.nnzMaxOverMean = run.nnzMaxOverMean;
    s.stragglerKernel = run.stragglerKernel;
    s.stragglerDpu = run.stragglerDpu;
    s.stragglerCyclesOverMean = run.stragglerCyclesOverMean;
    s.stragglerStall = run.stragglerStall;
    s.stragglerStallFraction = run.stragglerStallFraction;
    s.stragglerNnzOverMean = run.stragglerNnzOverMean;
    s.kernelSeconds = run.kernelSeconds;
    s.leveledKernelSeconds = run.leveledKernelSeconds;
    s.rooflineOpIntensity = run.roofline.opIntensity;
    s.rooflineAchievedOpsPerSec = run.roofline.achievedOpsPerSec;
    s.rooflinePipelineCeilingOpsPerSec =
        run.roofline.pipelineCeilingOpsPerSec;
    s.rooflineRidgeIntensity = run.roofline.ridgeIntensity;
    s.rooflineMemoryBoundFraction = run.roofline.memoryBoundFraction;
    return s;
}

HostSummary
summarizeHost(const telemetry::HostProfile &profile)
{
    using telemetry::HostPhase;
    const auto phase = [&](HostPhase p) {
        return profile.phaseSeconds[static_cast<unsigned>(p)];
    };
    HostSummary s;
    s.totalSeconds = profile.totalSeconds;
    s.partitionBuildSeconds = phase(HostPhase::PartitionBuild);
    s.traceRecordSeconds = phase(HostPhase::TraceRecord);
    s.replaySeconds = phase(HostPhase::Replay);
    s.profileFoldSeconds = phase(HostPhase::ProfileFold);
    s.transferModelSeconds = phase(HostPhase::TransferModel);
    s.hostMergeSeconds = phase(HostPhase::HostMerge);
    s.analysisSeconds = phase(HostPhase::Analysis);
    s.replaySlotsPerSec = profile.replaySlotsPerSec;
    s.traceRecordsPerSec = profile.traceRecordsPerSec;
    s.replaySlots = profile.replaySlots;
    s.traceRecords = profile.traceRecords;
    s.replayWindows = profile.replayWindows;
    s.replayDispatches = profile.replayDispatches;
    s.replayMemoHits = profile.replayMemoHits;
    s.slowdownFactor = profile.slowdownFactor;
    s.peakRssBytes = profile.peakRssBytes;
    s.taskletTraceBytesPeak = profile.taskletTraceBytesPeak;
    s.tracerBytes = profile.tracerBytes;
    s.metricsBytes = profile.metricsBytes;
    return s;
}

bool
loadRecordSet(const std::string &path, RecordSet &out,
              std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    out = RecordSet();
    out.path = path;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        RunRecord rec;
        std::string parse_error;
        if (!parseRunRecord(line, rec, &parse_error)) {
            if (error)
                *error = path + ":" + std::to_string(lineno) + ": " +
                         parse_error;
            return false;
        }
        out.records.push_back(std::move(rec));
    }
    auto unique_of = [&](auto get) {
        std::vector<std::string> seen;
        for (const auto &r : out.records) {
            const std::string v = get(r);
            if (std::find(seen.begin(), seen.end(), v) == seen.end())
                seen.push_back(v);
        }
        return seen;
    };
    out.schemas = unique_of(
        [](const RunRecord &r) { return r.manifest.schema; });
    out.gitShas = unique_of(
        [](const RunRecord &r) { return r.manifest.gitSha; });
    return true;
}

} // namespace alphapim::perf
