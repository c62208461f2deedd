/**
 * @file
 * Host block of the run-record schema (v5): a record carrying a
 * HostSummary survives encodeRunRecord() -> parseRunRecord() field
 * for field; summarizeHost() condenses a profiler snapshot
 * faithfully; and records from the older v2/v3/v4 schemas keep
 * parsing with the block absent-but-valid.
 */

#include <gtest/gtest.h>

#include "perf/manifest.hh"
#include "perf/record.hh"
#include "telemetry/host_prof.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

HostSummary
sampleHost()
{
    HostSummary h;
    h.totalSeconds = 2.125;
    h.partitionBuildSeconds = 0.25;
    h.traceRecordSeconds = 0.5;
    h.replaySeconds = 0.875;
    h.profileFoldSeconds = 0.125;
    h.transferModelSeconds = 0.0625;
    h.hostMergeSeconds = 0.1875;
    h.analysisSeconds = 0.125;
    h.replaySlotsPerSec = 1.6e8;
    h.traceRecordsPerSec = 4.2e7;
    h.replaySlots = 140000000;
    h.traceRecords = 21000000;
    h.replayWindows = 3000;
    h.replayDispatches = 90000000;
    h.replayMemoHits = 1900;
    h.slowdownFactor = 96500.0;
    h.peakRssBytes = 268435456;
    h.taskletTraceBytesPeak = 8388608;
    h.tracerBytes = 1048576;
    h.metricsBytes = 262144;
    return h;
}

RunKey
sampleKey()
{
    RunKey key;
    key.bench = "fig09";
    key.dataset = "e-En";
    key.variant = "spmv";
    key.dpus = 256;
    key.seed = 42;
    return key;
}

} // namespace

TEST(RunRecordHost, EncodeParseRoundTrip)
{
    const HostSummary h = sampleHost();
    core::PhaseTimes times;
    times.kernel = 0.0022;

    const std::string line =
        encodeRunRecord(currentManifest(), sampleKey(), 3, times,
                        nullptr, nullptr, 2.2, nullptr, nullptr, &h);

    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    ASSERT_TRUE(r.hasHost);
    const HostSummary &b = r.host;
    EXPECT_DOUBLE_EQ(b.totalSeconds, 2.125);
    EXPECT_DOUBLE_EQ(b.partitionBuildSeconds, 0.25);
    EXPECT_DOUBLE_EQ(b.traceRecordSeconds, 0.5);
    EXPECT_DOUBLE_EQ(b.replaySeconds, 0.875);
    EXPECT_DOUBLE_EQ(b.profileFoldSeconds, 0.125);
    EXPECT_DOUBLE_EQ(b.transferModelSeconds, 0.0625);
    EXPECT_DOUBLE_EQ(b.hostMergeSeconds, 0.1875);
    EXPECT_DOUBLE_EQ(b.analysisSeconds, 0.125);
    EXPECT_DOUBLE_EQ(b.replaySlotsPerSec, 1.6e8);
    EXPECT_DOUBLE_EQ(b.traceRecordsPerSec, 4.2e7);
    EXPECT_EQ(b.replaySlots, 140000000u);
    EXPECT_EQ(b.traceRecords, 21000000u);
    EXPECT_EQ(b.replayWindows, 3000u);
    EXPECT_EQ(b.replayDispatches, 90000000u);
    EXPECT_EQ(b.replayMemoHits, 1900u);
    EXPECT_DOUBLE_EQ(b.slowdownFactor, 96500.0);
    EXPECT_EQ(b.peakRssBytes, 268435456u);
    EXPECT_EQ(b.taskletTraceBytesPeak, 8388608u);
    EXPECT_EQ(b.tracerBytes, 1048576u);
    EXPECT_EQ(b.metricsBytes, 262144u);
}

TEST(RunRecordHost, OmittedBlockStaysAbsent)
{
    core::PhaseTimes times;
    times.kernel = 0.25;
    const std::string line =
        encodeRunRecord(currentManifest(), sampleKey(), 0, times,
                        nullptr, nullptr, -1.0, nullptr, nullptr,
                        nullptr);
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    EXPECT_FALSE(r.hasHost);
}

TEST(RunRecordHost, OlderSchemasParseWithoutTheBlock)
{
    // Hand-written lines as the older encoders emitted them: no host
    // object anywhere.
    const std::string v2 =
        "{\"schema\":\"alpha-pim-run-v2\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02}}";
    const std::string v4 =
        "{\"schema\":\"alpha-pim-run-v4\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02},"
        "\"imbalance\":{\"launches\":3,\"straggler_factor\":1.5,"
        "\"cycles_gini\":0.1,\"cycles_cov\":0.2,"
        "\"cycles_p99_over_mean\":1.3,\"nnz_gini\":0.1,"
        "\"nnz_max_over_mean\":1.4,\"straggler_kernel\":\"CSC-2D\","
        "\"straggler_dpu\":7,\"straggler_cycles_over_mean\":1.5,"
        "\"straggler_stall\":\"memory\","
        "\"straggler_stall_fraction\":0.5,"
        "\"straggler_nnz_over_mean\":1.4,\"kernel_seconds\":0.4,"
        "\"leveled_kernel_seconds\":0.3}}";

    RunRecord r2, r4;
    std::string error;
    ASSERT_TRUE(parseRunRecord(v2, r2, &error)) << error;
    EXPECT_FALSE(r2.hasHost);

    ASSERT_TRUE(parseRunRecord(v4, r4, &error)) << error;
    EXPECT_FALSE(r4.hasHost);
    ASSERT_TRUE(r4.hasImbalance);
    EXPECT_DOUBLE_EQ(r4.imbalance.stragglerFactor, 1.5);
}

TEST(RunRecordHost, HostBlockWithoutReplayCountersParsesAsZero)
{
    // A v6 host block as written before the replay work counters.
    const std::string line =
        "{\"schema\":\"alpha-pim-run-v6\",\"git_sha\":\"abc\","
        "\"bench\":\"fig09\",\"dataset\":\"e-En\","
        "\"variant\":\"spmv\",\"dpus\":256,\"seed\":42,"
        "\"times\":{\"load\":0.1,\"kernel\":0.4,"
        "\"retrieve\":0.08,\"merge\":0.02},"
        "\"host\":{\"total_seconds\":1.5,\"replay_seconds\":1.0,"
        "\"replay_slots\":5000,\"trace_records\":70}}";
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    ASSERT_TRUE(r.hasHost);
    EXPECT_EQ(r.host.replaySlots, 5000u);
    EXPECT_EQ(r.host.replayWindows, 0u);
    EXPECT_EQ(r.host.replayDispatches, 0u);
    EXPECT_EQ(r.host.replayMemoHits, 0u);
}

TEST(RunRecordHost, SummarizeCopiesTheSnapshot)
{
    telemetry::HostProfile p;
    using telemetry::HostPhase;
    p.phaseSeconds[static_cast<unsigned>(
        HostPhase::PartitionBuild)] = 0.1;
    p.phaseSeconds[static_cast<unsigned>(HostPhase::TraceRecord)] =
        0.2;
    p.phaseSeconds[static_cast<unsigned>(HostPhase::Replay)] = 0.4;
    p.phaseSeconds[static_cast<unsigned>(HostPhase::ProfileFold)] =
        0.05;
    p.phaseSeconds[static_cast<unsigned>(HostPhase::TransferModel)] =
        0.03;
    p.phaseSeconds[static_cast<unsigned>(HostPhase::HostMerge)] =
        0.07;
    p.phaseSeconds[static_cast<unsigned>(HostPhase::Analysis)] =
        0.15;
    p.totalSeconds = 1.0;
    p.replaySlots = 4000000;
    p.traceRecords = 800000;
    p.replayWindows = 12;
    p.replayDispatches = 345;
    p.replayMemoHits = 6;
    p.replaySlotsPerSec = 1e7;
    p.traceRecordsPerSec = 4e6;
    p.slowdownFactor = 50000.0;
    p.peakRssBytes = 123456789;
    p.taskletTraceBytesPeak = 4194304;
    p.tracerBytes = 65536;
    p.metricsBytes = 32768;

    const HostSummary s = summarizeHost(p);
    EXPECT_DOUBLE_EQ(s.totalSeconds, 1.0);
    EXPECT_DOUBLE_EQ(s.partitionBuildSeconds, 0.1);
    EXPECT_DOUBLE_EQ(s.traceRecordSeconds, 0.2);
    EXPECT_DOUBLE_EQ(s.replaySeconds, 0.4);
    EXPECT_DOUBLE_EQ(s.profileFoldSeconds, 0.05);
    EXPECT_DOUBLE_EQ(s.transferModelSeconds, 0.03);
    EXPECT_DOUBLE_EQ(s.hostMergeSeconds, 0.07);
    EXPECT_DOUBLE_EQ(s.analysisSeconds, 0.15);
    EXPECT_DOUBLE_EQ(s.replaySlotsPerSec, 1e7);
    EXPECT_DOUBLE_EQ(s.traceRecordsPerSec, 4e6);
    EXPECT_EQ(s.replaySlots, 4000000u);
    EXPECT_EQ(s.traceRecords, 800000u);
    EXPECT_EQ(s.replayWindows, 12u);
    EXPECT_EQ(s.replayDispatches, 345u);
    EXPECT_EQ(s.replayMemoHits, 6u);
    EXPECT_DOUBLE_EQ(s.slowdownFactor, 50000.0);
    EXPECT_EQ(s.peakRssBytes, 123456789u);
    EXPECT_EQ(s.taskletTraceBytesPeak, 4194304u);
    EXPECT_EQ(s.tracerBytes, 65536u);
    EXPECT_EQ(s.metricsBytes, 32768u);
}
