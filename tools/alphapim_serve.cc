/**
 * @file
 * alphapim_serve: front-end for the graph query serving subsystem.
 *
 * Loads one dataset into a resident ServeEngine, generates a seeded
 * multi-tenant query workload (open-loop Poisson arrivals or a
 * closed loop of think-free clients), serves it under the chosen
 * scheduling policy, and prints the admission / batching / latency
 * summary. Everything runs on the simulator's model clock, so the
 * same (seed, options) pair prints the same numbers on any machine.
 *
 * Examples:
 *   alphapim_serve --dataset e-En --queries 32 --scheduler batching
 *   alphapim_serve --mode closed --clients 8 --mix bfs,sssp
 *   alphapim_serve --rate 2000 --scheduler fifo --json-out out.jsonl
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "perf/build_info.hh"
#include "perf/fingerprint.hh"
#include "perf/manifest.hh"
#include "perf/record.hh"
#include "serve/loadgen.hh"
#include "sparse/datasets.hh"
#include "sparse/generators.hh"
#include "sparse/mmio.hh"
#include "telemetry/telemetry.hh"
#include "upmem/dpu_config.hh"

using namespace alphapim;

namespace
{

/** DPU-count limit of --dpus: far above any UPMEM system (2560
 * DPUs), low enough that a typo cannot exhaust host memory. */
constexpr std::uint64_t kMaxDpus = 1u << 16;

/** Smallest --scale (datasets scale by a factor in (0, 1] and
 * never shrink below 64 vertices, which 1e-6 already reaches). */
constexpr double kMinScale = 1e-6;

/** Limit of the query, client and queue counts. */
constexpr std::uint64_t kMaxCount = 1u << 20;

struct ServeCliOptions
{
    std::string dataset;
    std::string mtx;
    std::string mode = "open";
    std::string scheduler = "batching";
    std::string mixList = "bfs";
    std::string strategy = "adaptive";
    std::string metricsOut;
    std::string jsonOut;
    std::string logLevel;
    double scale = 0.25;
    double rate = 0.0;
    unsigned dpus = 256;
    unsigned tasklets = 16;
    unsigned queueCapacity = 64;
    unsigned queries = 64;
    unsigned clients = 4;
    unsigned queriesPerClient = 8;
    unsigned tenants = 4;
    std::uint64_t seed = 42;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: alphapim_serve [options]\n"
        "  --dataset ABBREV        bundled Table 2 dataset\n"
        "  --mtx FILE              Matrix Market graph instead\n"
        "  --scale X               dataset generation scale\n"
        "  --dpus N                DPUs (default 256)\n"
        "  --tasklets N            tasklets per DPU (default 16)\n"
        "  --scheduler fifo|batching\n"
        "  --queue-capacity N      admission bound (default 64)\n"
        "  --mode open|closed      load generation mode\n"
        "  --queries N             open loop: total queries\n"
        "  --rate X                open loop: arrivals per model\n"
        "                          second (0 = burst at t=0)\n"
        "  --clients N             closed loop: concurrent clients\n"
        "  --queries-per-client N  closed loop: queries per client\n"
        "  --tenants N             tenant pool size\n"
        "  --mix LIST              comma list of bfs,sssp,ppr,cc\n"
        "  --strategy adaptive|costmodel|spmspv|spmv\n"
        "  --seed N                workload seed\n"
        "  --json-out FILE         append one schema-tagged run\n"
        "                          record (JSONL) for bench-diff\n"
        "  --metrics-out FILE      metrics registry dump (JSONL)\n"
        "  --version               print git SHA + build type\n"
        "  --log-level LEVEL       silent|normal|verbose\n"
        "Every flag also accepts the --flag=value spelling.\n");
    std::exit(2);
}

ServeCliOptions
parseCli(int argc, char **argv)
{
    ServeCliOptions opt;
    CliArgs args(argc, argv, [](const std::string &) { usage(); });
    while (args.next()) {
        const std::string &arg = args.arg();
        auto next = [&]() -> const char * { return args.value(); };
        if (arg == "--dataset")
            opt.dataset = next();
        else if (arg == "--mtx")
            opt.mtx = next();
        else if (arg == "--mode")
            opt.mode = next();
        else if (arg == "--scheduler")
            opt.scheduler = next();
        else if (arg == "--mix")
            opt.mixList = next();
        else if (arg == "--strategy")
            opt.strategy = next();
        else if (arg == "--metrics-out")
            opt.metricsOut = next();
        else if (arg == "--json-out")
            opt.jsonOut = next();
        else if (arg == "--log-level")
            opt.logLevel = next();
        else if (arg == "--scale")
            opt.scale = args.doubleValue(kMinScale, 1.0);
        else if (arg == "--rate")
            opt.rate = args.doubleValue(0.0, HUGE_VAL);
        else if (arg == "--dpus")
            opt.dpus = static_cast<unsigned>(
                args.unsignedValue(1, kMaxDpus));
        else if (arg == "--tasklets")
            opt.tasklets = static_cast<unsigned>(args.unsignedValue(
                1, upmem::DpuConfig{}.maxTasklets));
        else if (arg == "--queue-capacity")
            opt.queueCapacity = static_cast<unsigned>(
                args.unsignedValue(1, kMaxCount));
        else if (arg == "--queries")
            opt.queries = static_cast<unsigned>(
                args.unsignedValue(1, kMaxCount));
        else if (arg == "--clients")
            opt.clients = static_cast<unsigned>(
                args.unsignedValue(1, kMaxCount));
        else if (arg == "--queries-per-client")
            opt.queriesPerClient = static_cast<unsigned>(
                args.unsignedValue(1, kMaxCount));
        else if (arg == "--tenants")
            opt.tenants = static_cast<unsigned>(
                args.unsignedValue(1, kMaxCount));
        else if (arg == "--seed")
            opt.seed = args.unsignedValue(
                0, std::numeric_limits<std::uint64_t>::max());
        else if (arg == "--version") {
            std::printf("alphapim_serve %s (%s%s%s)\n",
                        perf::gitSha(), perf::buildType(),
                        perf::buildFlags()[0] ? ", " : "",
                        perf::buildFlags());
            std::exit(0);
        } else
            usage();
    }
    if (opt.dataset.empty() && opt.mtx.empty())
        opt.dataset = "e-En";
    if (opt.mode != "open" && opt.mode != "closed")
        fatal("--mode: expected open or closed, got '%s'",
              opt.mode.c_str());
    if (opt.mode == "closed" && opt.clients > opt.queueCapacity) {
        // Every closed-loop client keeps one query queued.
        std::fprintf(stderr,
                     "--clients %u exceeds --queue-capacity %u\n",
                     opt.clients, opt.queueCapacity);
        usage();
    }
    if (!opt.logLevel.empty() &&
        !setLogLevelByName(opt.logLevel.c_str()))
        fatal("unknown log level '%s'", opt.logLevel.c_str());
    if (!opt.metricsOut.empty() || !opt.jsonOut.empty())
        telemetry::metrics().setEnabled(true);
    return opt;
}

core::MxvStrategy
parseStrategy(const std::string &name)
{
    if (name == "adaptive")
        return core::MxvStrategy::Adaptive;
    if (name == "costmodel")
        return core::MxvStrategy::CostModel;
    if (name == "spmspv")
        return core::MxvStrategy::SpmspvOnly;
    if (name == "spmv")
        return core::MxvStrategy::SpmvOnly;
    fatal("unknown strategy '%s'", name.c_str());
}

std::vector<serve::ServeAlgo>
parseMix(const std::string &list)
{
    std::vector<serve::ServeAlgo> mix;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string name = list.substr(pos, comma - pos);
        serve::ServeAlgo algo;
        if (!serve::parseServeAlgo(name, algo))
            fatal("--mix: unknown algorithm '%s'", name.c_str());
        mix.push_back(algo);
        pos = comma + 1;
    }
    if (mix.empty())
        fatal("--mix: empty algorithm list");
    return mix;
}

} // namespace

int
main(int argc, char **argv)
{
    const ServeCliOptions opt = parseCli(argc, argv);
    const std::vector<serve::ServeAlgo> mix = parseMix(opt.mixList);

    // ---- graph ----
    sparse::CooMatrix<float> adjacency;
    std::string graph_name;
    if (!opt.mtx.empty()) {
        adjacency = sparse::readMatrixMarketFile(opt.mtx);
        if (adjacency.numRows() != adjacency.numCols())
            fatal("graph matrix must be square");
        graph_name = opt.mtx;
    } else {
        const auto data =
            sparse::buildDataset(opt.dataset, opt.scale, opt.seed);
        adjacency = data.adjacency;
        graph_name = data.spec.name;
    }
    const bool has_sssp =
        std::find(mix.begin(), mix.end(), serve::ServeAlgo::Sssp) !=
        mix.end();
    if (has_sssp) {
        // SSSP queries want non-unit weights; the other algorithms
        // only read the structure (BFS/CC) or renormalize (PPR), so
        // one weighted matrix serves the whole mix.
        Rng rng(opt.seed);
        adjacency = sparse::assignSymmetricWeights(adjacency, 1.0f,
                                                   64.0f, rng);
    }

    // ---- engine ----
    upmem::SystemConfig sys_cfg;
    sys_cfg.numDpus = opt.dpus;
    sys_cfg.dpu.tasklets = opt.tasklets;
    const upmem::UpmemSystem sys(sys_cfg);

    serve::ServeOptions serve_opt;
    serve_opt.dpus = opt.dpus;
    serve_opt.queueCapacity = opt.queueCapacity;
    if (!serve::parseSchedulerKind(opt.scheduler,
                                   serve_opt.scheduler))
        fatal("unknown scheduler '%s'", opt.scheduler.c_str());
    serve::ServeEngine engine(sys, serve_opt);
    engine.loadDataset(graph_name, adjacency);

    serve::LoadGenOptions load;
    load.seed = opt.seed;
    load.dataset = graph_name;
    load.tenants = opt.tenants;
    load.mix = mix;
    load.strategy = parseStrategy(opt.strategy);
    load.queries = opt.queries;
    load.arrivalRate = opt.rate;
    load.clients = opt.clients;
    load.queriesPerClient = opt.queriesPerClient;

    // ---- workload ----
    const auto wall_start = std::chrono::steady_clock::now();
    if (opt.mode == "open") {
        serve::runOpenLoop(
            engine,
            serve::openLoopQueries(load,
                                   engine.datasetRows(graph_name)));
    } else {
        serve::runClosedLoop(engine, load,
                             engine.datasetRows(graph_name));
    }
    const double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    const perf::ServeSummary s = engine.summary();
    std::printf("serve %s (%s, %s scheduler): %llu submitted, "
                "%llu admitted, %llu rejected\n",
                graph_name.c_str(), opt.mode.c_str(),
                engine.schedulerName(),
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(s.rejected));
    std::printf("batches %llu (mean size %.2f, max %llu), "
                "peak queue depth %llu\n",
                static_cast<unsigned long long>(s.batches),
                s.meanBatchSize,
                static_cast<unsigned long long>(s.maxBatchSize),
                static_cast<unsigned long long>(s.maxQueueDepth));
    TextTable lat("model-time latency (ms)");
    lat.setHeader({"p50", "p95", "p99", "p999", "mean"});
    lat.addRow({TextTable::num(toMillis(s.latencyP50), 3),
                TextTable::num(toMillis(s.latencyP95), 3),
                TextTable::num(toMillis(s.latencyP99), 3),
                TextTable::num(toMillis(s.latencyP999), 3),
                TextTable::num(toMillis(s.latencyMean), 3)});
    lat.print();
    std::printf("throughput %.1f queries/s over %.3f ms makespan\n",
                s.queriesPerSec, toMillis(s.makespanSeconds));

    if (!opt.jsonOut.empty()) {
        perf::RunManifest manifest = perf::currentManifest();
        manifest.datasetFingerprint =
            perf::datasetFingerprint(adjacency);
        manifest.addConfig("scale", opt.scale);
        manifest.addConfig(
            "tasklets", static_cast<std::uint64_t>(opt.tasklets));
        manifest.addConfig(
            "queue_capacity",
            static_cast<std::uint64_t>(opt.queueCapacity));
        manifest.addConfig(
            "tenants", static_cast<std::uint64_t>(opt.tenants));

        perf::RunKey key;
        key.bench = "serve";
        key.dataset = opt.mtx.empty() ? opt.dataset : opt.mtx;
        key.variant = opt.mode + "/" + opt.scheduler + "/" +
                      opt.mixList + "/" + opt.strategy;
        key.dpus = opt.dpus;
        key.seed = opt.seed;

        telemetry::appendJsonlRecord(
            opt.jsonOut,
            perf::encodeRunRecord(manifest, key,
                                  engine.servedIterations(),
                                  engine.phaseTotals(), nullptr,
                                  nullptr, wall_seconds, nullptr,
                                  nullptr, nullptr, &s));
    }
    if (!opt.metricsOut.empty())
        telemetry::writeMetricsFile(opt.metricsOut);
    return 0;
}
