#include "telemetry/host_prof.hh"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace alphapim::telemetry
{

namespace
{

/** Innermost live timer on this thread (self-time attribution). */
thread_local HostPhaseTimer *currentTimer = nullptr;

/** Parse one "Vm...:  <kB> kB" line out of /proc/self/status. */
std::uint64_t
procStatusKb(const char *field)
{
#ifdef __linux__
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    const std::size_t fieldLen = std::strlen(field);
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, field, fieldLen) != 0 ||
            line[fieldLen] != ':')
            continue;
        const char *p = line + fieldLen + 1;
        while (*p && !std::isdigit(static_cast<unsigned char>(*p)))
            ++p;
        kb = std::strtoull(p, nullptr, 10);
        break;
    }
    std::fclose(f);
    return kb;
#else
    (void)field;
    return 0;
#endif
}

} // namespace

const char *
hostPhaseName(HostPhase phase)
{
    switch (phase) {
    case HostPhase::PartitionBuild:
        return "partition_build";
    case HostPhase::TraceRecord:
        return "trace_record";
    case HostPhase::Replay:
        return "replay";
    case HostPhase::ProfileFold:
        return "profile_fold";
    case HostPhase::TransferModel:
        return "transfer_model";
    case HostPhase::HostMerge:
        return "host_merge";
    case HostPhase::Analysis:
        return "analysis";
    }
    return "unknown";
}

void
HostProfiler::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
HostProfiler::reset()
{
    for (unsigned p = 0; p < kHostPhaseCount; ++p) {
        phaseNanos_[p].store(0, std::memory_order_relaxed);
        phaseCalls_[p].store(0, std::memory_order_relaxed);
    }
    replaySlots_.store(0, std::memory_order_relaxed);
    replayWindows_.store(0, std::memory_order_relaxed);
    replayDispatches_.store(0, std::memory_order_relaxed);
    replayMemoHits_.store(0, std::memory_order_relaxed);
    traceRecords_.store(0, std::memory_order_relaxed);
    taskletTraceBytesPeak_.store(0, std::memory_order_relaxed);
}

void
HostProfiler::addPhaseNanos(HostPhase phase, std::uint64_t ns)
{
    const unsigned p = static_cast<unsigned>(phase);
    phaseNanos_[p].fetch_add(ns, std::memory_order_relaxed);
    phaseCalls_[p].fetch_add(1, std::memory_order_relaxed);
}

void
HostProfiler::addReplaySlots(std::uint64_t slots)
{
    replaySlots_.fetch_add(slots, std::memory_order_relaxed);
}

void
HostProfiler::addReplayWork(std::uint64_t windows,
                            std::uint64_t dispatches,
                            std::uint64_t memoHits)
{
    replayWindows_.fetch_add(windows, std::memory_order_relaxed);
    replayDispatches_.fetch_add(dispatches, std::memory_order_relaxed);
    replayMemoHits_.fetch_add(memoHits, std::memory_order_relaxed);
}

void
HostProfiler::addTraceRecords(std::uint64_t records)
{
    traceRecords_.fetch_add(records, std::memory_order_relaxed);
}

void
HostProfiler::noteTaskletTraceBytes(std::uint64_t bytes)
{
    std::uint64_t seen =
        taskletTraceBytesPeak_.load(std::memory_order_relaxed);
    while (bytes > seen &&
           !taskletTraceBytesPeak_.compare_exchange_weak(
               seen, bytes, std::memory_order_relaxed))
        ;
}

double
HostProfiler::phaseSeconds(HostPhase phase) const
{
    const unsigned p = static_cast<unsigned>(phase);
    return static_cast<double>(
               phaseNanos_[p].load(std::memory_order_relaxed)) *
           1e-9;
}

std::uint64_t
HostProfiler::phaseCalls(HostPhase phase) const
{
    const unsigned p = static_cast<unsigned>(phase);
    return phaseCalls_[p].load(std::memory_order_relaxed);
}

HostProfile
HostProfiler::snapshot(double modelSeconds) const
{
    HostProfile prof;
    for (unsigned p = 0; p < kHostPhaseCount; ++p) {
        prof.phaseSeconds[p] =
            static_cast<double>(
                phaseNanos_[p].load(std::memory_order_relaxed)) *
            1e-9;
        prof.phaseCalls[p] =
            phaseCalls_[p].load(std::memory_order_relaxed);
        prof.totalSeconds += prof.phaseSeconds[p];
    }
    prof.replaySlots = replaySlots_.load(std::memory_order_relaxed);
    prof.replayWindows =
        replayWindows_.load(std::memory_order_relaxed);
    prof.replayDispatches =
        replayDispatches_.load(std::memory_order_relaxed);
    prof.replayMemoHits =
        replayMemoHits_.load(std::memory_order_relaxed);
    prof.traceRecords =
        traceRecords_.load(std::memory_order_relaxed);
    prof.taskletTraceBytesPeak =
        taskletTraceBytesPeak_.load(std::memory_order_relaxed);
    prof.tracerBytes = tracer().approxBytes();
    prof.metricsBytes = metrics().approxBytes();
    prof.peakRssBytes = peakRssBytes();
    prof.currentRssBytes = currentRssBytes();

    const double replaySec =
        prof.phaseSeconds[static_cast<unsigned>(HostPhase::Replay)];
    if (replaySec > 0.0)
        prof.replaySlotsPerSec =
            static_cast<double>(prof.replaySlots) / replaySec;
    const double recordSec = prof.phaseSeconds[static_cast<unsigned>(
        HostPhase::TraceRecord)];
    if (recordSec > 0.0)
        prof.traceRecordsPerSec =
            static_cast<double>(prof.traceRecords) / recordSec;
    prof.modelSeconds = modelSeconds;
    if (modelSeconds > 0.0)
        prof.slowdownFactor = prof.totalSeconds / modelSeconds;
    return prof;
}

std::uint64_t
HostProfiler::currentRssBytes()
{
    return procStatusKb("VmRSS") * 1024;
}

std::uint64_t
HostProfiler::peakRssBytes()
{
    return procStatusKb("VmHWM") * 1024;
}

HostProfiler &
hostProfiler()
{
    static HostProfiler instance;
    return instance;
}

HostPhaseTimer::HostPhaseTimer(HostPhase phase)
    : active_(hostProfiler().enabled()), phase_(phase)
{
    if (!active_)
        return;
    parent_ = currentTimer;
    currentTimer = this;
    start_ = std::chrono::steady_clock::now();
}

HostPhaseTimer::~HostPhaseTimer()
{
    if (!active_)
        return;
    const auto end = std::chrono::steady_clock::now();
    const std::uint64_t elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             start_)
            .count());
    const std::uint64_t self =
        elapsed > childNanos_ ? elapsed - childNanos_ : 0;
    hostProfiler().addPhaseNanos(phase_, self);
    currentTimer = parent_;
    if (parent_)
        parent_->childNanos_ += elapsed;
}

HostProfile
publishHostProfile(double modelSeconds)
{
    HostProfiler &prof = hostProfiler();
    if (!prof.enabled())
        return {};
    const HostProfile s = prof.snapshot(modelSeconds);

    MetricsRegistry &m = metrics();
    for (unsigned p = 0; p < kHostPhaseCount; ++p) {
        const std::string base =
            std::string("host.phase.") +
            hostPhaseName(static_cast<HostPhase>(p));
        m.setScalar(base + ".seconds", s.phaseSeconds[p]);
        m.setScalar(base + ".calls",
                    static_cast<double>(s.phaseCalls[p]));
    }
    m.setScalar("host.total_seconds", s.totalSeconds);
    m.setScalar("host.replay_slots",
                static_cast<double>(s.replaySlots));
    m.setScalar("host.replay_windows",
                static_cast<double>(s.replayWindows));
    m.setScalar("host.replay_dispatches",
                static_cast<double>(s.replayDispatches));
    m.setScalar("host.replay_memo_hits",
                static_cast<double>(s.replayMemoHits));
    m.setScalar("host.trace_records",
                static_cast<double>(s.traceRecords));
    m.setScalar("host.replay_slots_per_sec", s.replaySlotsPerSec);
    m.setScalar("host.trace_records_per_sec", s.traceRecordsPerSec);
    m.setScalar("host.slowdown_factor", s.slowdownFactor);
    m.setScalar("host.mem.tasklet_trace_bytes_peak",
                static_cast<double>(s.taskletTraceBytesPeak));
    m.setScalar("host.mem.tracer_bytes",
                static_cast<double>(s.tracerBytes));
    m.setScalar("host.mem.metrics_bytes",
                static_cast<double>(s.metricsBytes));
    m.setScalar("host.mem.peak_rss_bytes",
                static_cast<double>(s.peakRssBytes));
    m.setScalar("host.mem.current_rss_bytes",
                static_cast<double>(s.currentRssBytes));

    Tracer &t = tracer();
    if (t.enabled()) {
        std::vector<TraceArg> args;
        args.reserve(kHostPhaseCount + 16);
        for (unsigned p = 0; p < kHostPhaseCount; ++p)
            args.push_back(arg(
                std::string(hostPhaseName(
                    static_cast<HostPhase>(p))) +
                    "_seconds",
                s.phaseSeconds[p]));
        args.push_back(arg("total_seconds", s.totalSeconds));
        args.push_back(arg("model_seconds", s.modelSeconds));
        args.push_back(arg("slowdown_factor", s.slowdownFactor));
        args.push_back(arg("replay_slots", s.replaySlots));
        args.push_back(arg("replay_windows", s.replayWindows));
        args.push_back(arg("replay_dispatches", s.replayDispatches));
        args.push_back(arg("replay_memo_hits", s.replayMemoHits));
        args.push_back(arg("trace_records", s.traceRecords));
        args.push_back(
            arg("replay_slots_per_sec", s.replaySlotsPerSec));
        args.push_back(
            arg("trace_records_per_sec", s.traceRecordsPerSec));
        args.push_back(arg("tasklet_trace_bytes_peak",
                           s.taskletTraceBytesPeak));
        args.push_back(arg("peak_rss_bytes", s.peakRssBytes));
        args.push_back(
            arg("current_rss_bytes", s.currentRssBytes));
        // Telemetry health riders: downstream readers (explain) warn
        // when spans or distribution samples were dropped.
        args.push_back(
            arg("trace_dropped_spans", t.droppedEvents()));
        args.push_back(arg("metrics_samples_dropped",
                           m.totalSamplesDropped()));
        t.instantEvent(engineTrack, "host_profile", "host", t.now(),
                       std::move(args));
    }
    return s;
}

} // namespace alphapim::telemetry
