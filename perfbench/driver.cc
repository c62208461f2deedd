/**
 * @file
 * Host-performance benchmark driver. One invocation runs one workload
 * from a seed: it generates the inputs and builds the resident state,
 * then repeats the workload's fixed query set for the requested number
 * of seconds. Every output is checked against the host reference
 * algorithms, and every model number must repeat exactly across passes
 * (and between the traced and untraced halves of a traced run).
 *
 *   alphapim_perfbench --workload NAME --seed N --seconds S
 *                      --trace 0|1 [--spans-out FILE]
 *
 * --trace 0 prints the end-to-end metrics, measured with all telemetry
 * off. --trace 1 runs untraced passes, then traced passes (host
 * profiler plus the driver's own spans around every call into the
 * simulator), and prints the per-layer metrics. The last stdout line
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Exit status: 0 ok, 1 wrong output or model drift, 2 usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/graph_apps.hh"
#include "apps/reference_algorithms.hh"
#include "common/random.hh"
#include "serve/serve_engine.hh"
#include "sparse/datasets.hh"
#include "sparse/generators.hh"
#include "sparse/stats_cache.hh"
#include "telemetry/host_prof.hh"

using namespace alphapim;

namespace
{

// ---------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process user+sys CPU seconds (all threads). */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a over a vector's element bytes; the same hash ServeEngine
 * stamps into ServeResult::resultChecksum. */
template <typename T>
std::uint64_t
fnv1a(const std::vector<T> &v)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto *bytes = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written as a Chrome trace when the run ends
// ---------------------------------------------------------------------

constexpr std::uint64_t kNoQuery = ~0ull;

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::uint64_t query = kNoQuery;
    };

    /** RAII span; a no-op while the log is off. Children inherit the
     * query id of their parent unless they name their own. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name,
              std::uint64_t query = kNoQuery)
            : log_(log)
        {
            if (!log_.on)
                return;
            index_ = static_cast<int>(log_.spans_.size());
            Span s;
            s.name = name;
            s.parent = log_.open_;
            s.query = query != kNoQuery || log_.open_ < 0
                ? query
                : log_.spans_[log_.open_].query;
            s.start = wallNow();
            log_.spans_.push_back(std::move(s));
            log_.open_ = index_;
        }
        ~Scope()
        {
            if (index_ < 0)
                return;
            Span &s = log_.spans_[index_];
            s.end = wallNow();
            log_.open_ = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Name the query once it is known (a served batch's first). */
        void
        setQuery(std::uint64_t query)
        {
            if (index_ >= 0)
                log_.spans_[index_].query = query;
        }

      private:
        SpanLog &log_;
        int index_ = -1;
    };

    bool on = false;

    /** Spans recorded so far. */
    std::size_t size() const { return spans_.size(); }

    /** Durations of the spans called `name`, from the `from`-th on. */
    std::vector<double>
    durations(const std::string &name, std::size_t from = 0) const
    {
        std::vector<double> out;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                out.push_back(spans_[i].end - spans_[i].start);
        return out;
    }

    /** Chrome trace-event JSON ("X" events, microseconds). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const double origin = spans_.empty() ? 0.0 : spans_[0].start;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                "\"parent\":%d,\"query\":%lld}}",
                i ? "," : "", s.name.c_str(), (s.start - origin) * 1e6,
                (s.end - s.start) * 1e6, i, s.parent,
                s.query == kNoQuery ? -1LL
                                    : static_cast<long long>(s.query));
            out << buf << '\n';
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

// ---------------------------------------------------------------------
// Per-pass records
// ---------------------------------------------------------------------

/** Model-side outcome of one query; every field is deterministic. */
struct QueryRecord
{
    /** App workloads: modeled seconds of the run. Serving: modeled
     * latency, queueing included. */
    double modelSeconds = 0.0;
    std::uint64_t launches = 0;
    std::uint64_t spmvLaunches = 0;
    std::uint64_t iterations = 0;
    std::uint64_t semiringOps = 0;
    std::uint64_t dpuCycles = 0;
    std::uint64_t issuedCycles = 0;
    std::uint64_t maxCycles = 0;
    /** FNV-1a of the output vector; 0 for PPR, whose last bits
     * depend on the order worker threads merge the per-DPU partial
     * sums (floating-point addition), so only its values within
     * --validate's tolerance are checked. */
    std::uint64_t checksum = 0;
    bool admitted = true;
};

/** One pass over the workload's fixed query set. */
struct PassRecord
{
    std::vector<QueryRecord> queries;
    double wall = 0.0; ///< host seconds of the pass
    double cpu = 0.0;  ///< process CPU seconds of the pass
    /** Modeled seconds of work done: the query runs summed (apps) or
     * the batch service times summed (serving). */
    double modelSeconds = 0.0;
    std::uint64_t batches = 0;
    std::uint64_t soloPprBatches = 0;
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t rejects = 0;
    unsigned wrong = 0; ///< outputs that failed the reference check
};

/** True when two passes carry the same model numbers. Serving passes
 * run on a shifted model clock, so their times are compared to a
 * relative `tol`; every count and checksum must match exactly. */
bool
sameModel(const PassRecord &a, const PassRecord &b, double tol)
{
    auto close = [tol](double x, double y) {
        return x == y ||
               std::abs(x - y) <= tol * std::max(std::abs(x), std::abs(y));
    };
    if (a.queries.size() != b.queries.size() ||
        !close(a.modelSeconds, b.modelSeconds) || a.batches != b.batches ||
        a.soloPprBatches != b.soloPprBatches ||
        a.maxQueueDepth != b.maxQueueDepth || a.rejects != b.rejects)
        return false;
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
        const QueryRecord &x = a.queries[i];
        const QueryRecord &y = b.queries[i];
        if (!close(x.modelSeconds, y.modelSeconds) ||
            x.launches != y.launches || x.spmvLaunches != y.spmvLaunches ||
            x.iterations != y.iterations ||
            x.semiringOps != y.semiringOps || x.dpuCycles != y.dpuCycles ||
            x.issuedCycles != y.issuedCycles ||
            x.maxCycles != y.maxCycles || x.checksum != y.checksum ||
            x.admitted != y.admitted)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------

/** Vertices of the largest connected component, ascending, and a
 * vertex of the smallest one, from referenceComponents() labels (a
 * component's label is its smallest vertex id). */
struct Components
{
    std::vector<NodeId> largest;
    NodeId smallestVertex = 0;
};

Components
components(const std::vector<std::uint32_t> &labels)
{
    std::map<std::uint32_t, std::size_t> size;
    for (std::uint32_t l : labels)
        ++size[l];
    auto bySize = [](const auto &a, const auto &b) {
        return a.second < b.second;
    };
    Components c;
    const std::uint32_t largest =
        std::max_element(size.begin(), size.end(), bySize)->first;
    c.smallestVertex =
        std::min_element(size.begin(), size.end(), bySize)->first;
    for (NodeId v = 0; v < labels.size(); ++v)
        if (labels[v] == largest)
            c.largest.push_back(v);
    return c;
}

enum class Algo
{
    Bfs,
    Sssp,
    Ppr
};

const char *
algoName(Algo a)
{
    switch (a) {
      case Algo::Bfs: return "bfs";
      case Algo::Sssp: return "sssp";
      case Algo::Ppr: return "ppr";
    }
    return "?";
}

struct Query
{
    Algo algo = Algo::Bfs;
    NodeId source = 0;
    double arrival = 0.0; ///< serving only: model-clock arrival offset
};

/** Seed of every input but the sources: the graphs (the dataset
 * registry's default), the SSSP weights, the algorithm order and the
 * serving arrival times. --seed draws only the sources, so the runs of
 * one workload differ in which vertices they query, not in the shape
 * of the work. */
constexpr std::uint64_t kShapeSeed = 42;

/** `counts[a]` queries of each algorithm in a fixed shuffled order.
 * The n sources of one algorithm are drawn with `sources`, one
 * uniformly from each of n equal slices of `pool` (ascending vertex
 * ids). This stratified draw spreads every seed's sources over the
 * graph alike, so the work of a pass varies less from seed to seed
 * than with n independent draws; each source is still uniform over
 * `pool`, which must hold at least n vertices. */
std::vector<Query>
makeQueries(const std::vector<std::pair<Algo, unsigned>> &counts,
            const std::vector<NodeId> &pool, Rng &sources)
{
    std::vector<Query> out;
    for (const auto &[algo, n] : counts)
        for (unsigned i = 0; i < n; ++i) {
            const std::size_t lo = pool.size() * i / n;
            const std::size_t hi = pool.size() * (i + 1) / n;
            out.push_back({algo, pool[lo + sources.nextBounded(hi - lo)],
                           0.0});
        }
    Rng shape(kShapeSeed);
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[shape.nextBounded(i)]);
    return out;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs and build the resident state. */
    virtual void setup(SpanLog &spans) = 0;

    /** Run the query set once. Only the queries are timed. */
    virtual PassRecord runPass(SpanLog &spans) = 0;

    /** Check the outputs of the last pass against the host reference
     * (computed once per query, then cached); returns the number of
     * wrong outputs. Untimed. */
    virtual unsigned validate() = 0;

    /** One-line description of the input size. */
    virtual std::string describe() const = 0;

    /** Relative tolerance for model times across passes (see
     * sameModel); counts always compare exactly. */
    virtual double modelTolerance() const { return 0.0; }
};

struct WorkloadSpec
{
    std::string dataset;
    double scale = 0.0;
    std::vector<std::pair<Algo, unsigned>> mix;
    /** Serving only: Poisson arrival rate, queries per model second. */
    double rate = 0.0;
};

/** "g-18 at scale 0.005 (960 vertices, ...), 2048 DPUs; 16 sssp + ..." */
std::string
describeInput(const WorkloadSpec &spec,
              const sparse::CooMatrix<float> &adjacency, unsigned dpus)
{
    std::string mix;
    for (const auto &[algo, n] : spec.mix)
        mix += (mix.empty() ? "" : " + ") + std::to_string(n) + " " +
               algoName(algo);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s at scale %g (%u vertices, %zu nnz), %u DPUs; %s per "
                  "pass",
                  spec.dataset.c_str(), spec.scale, adjacency.numRows(),
                  adjacency.nnz(), dpus, mix.c_str());
    return buf;
}

/** Queries run one at a time through the apps' *WithEngine entry
 * points against engines built once in setup. */
class AppWorkload : public Workload
{
  public:
    AppWorkload(const upmem::UpmemSystem &sys, WorkloadSpec spec,
                std::uint64_t seed)
        : sys_(sys), spec_(std::move(spec)), seed_(seed)
    {}

    void
    setup(SpanLog &spans) override
    {
        SpanLog::Scope root(spans, "setup");
        {
            SpanLog::Scope s(spans, "sparse.buildDataset");
            adjacency_ = sparse::buildDataset(spec_.dataset, spec_.scale,
                                              kShapeSeed)
                             .adjacency;
        }
        Rng sources(seed_);
        queries_ = makeQueries(
            spec_.mix,
            components(apps::referenceComponents(adjacency_)).largest,
            sources);
        const unsigned dpus = sys_.numDpus();
        const auto strategy = core::MxvStrategy::Adaptive;
        for (const auto &mix : spec_.mix) {
            switch (mix.first) {
              case Algo::Bfs: {
                SpanLog::Scope s(spans, "core.PimEngine");
                bfs_ = std::make_unique<core::PimEngine<core::BoolOrAnd>>(
                    sys_, adjacency_, dpus, strategy);
                break;
              }
              case Algo::Sssp: {
                Rng weights(kShapeSeed);
                weighted_ = sparse::assignSymmetricWeights(
                    adjacency_, 1.0f, 64.0f, weights);
                SpanLog::Scope s(spans, "core.PimEngine");
                sssp_ = std::make_unique<core::PimEngine<core::MinPlus>>(
                    sys_, weighted_, dpus, strategy);
                break;
              }
              case Algo::Ppr: {
                const auto normalized = apps::normalizeColumns(adjacency_);
                SpanLog::Scope s(spans, "core.PimEngine");
                ppr_ = std::make_unique<core::PimEngine<core::PlusTimes>>(
                    sys_, normalized, dpus, strategy);
                break;
              }
            }
        }
    }

    PassRecord
    runPass(SpanLog &spans) override
    {
        PassRecord pass;
        results_.assign(queries_.size(), {});
        const double wall0 = wallNow();
        const double cpu0 = cpuNow();
        {
            SpanLog::Scope p(spans, "pass");
            for (std::size_t i = 0; i < queries_.size(); ++i) {
                const Query &q = queries_[i];
                SpanLog::Scope s(spans, "query", i);
                switch (q.algo) {
                  case Algo::Bfs: {
                    SpanLog::Scope c(spans, "apps.bfsWithEngine");
                    results_[i] = apps::bfsWithEngine(sys_, *bfs_, q.source);
                    break;
                  }
                  case Algo::Sssp: {
                    SpanLog::Scope c(spans, "apps.ssspWithEngine");
                    results_[i] =
                        apps::ssspWithEngine(sys_, *sssp_, q.source);
                    break;
                  }
                  case Algo::Ppr: {
                    SpanLog::Scope c(spans, "apps.pprWithEngine");
                    results_[i] = apps::pprWithEngine(sys_, *ppr_, q.source);
                    break;
                  }
                }
            }
        }
        pass.wall = wallNow() - wall0;
        pass.cpu = cpuNow() - cpu0;
        for (std::size_t i = 0; i < queries_.size(); ++i) {
            const apps::AppResult &r = results_[i];
            QueryRecord rec;
            rec.modelSeconds = r.total.total();
            rec.spmvLaunches = r.spmvLaunches;
            rec.launches = r.spmvLaunches + r.spmspvLaunches;
            rec.iterations = r.iterations.size();
            rec.semiringOps = r.totalOps;
            rec.dpuCycles = r.profile.aggregate.totalCycles;
            rec.issuedCycles = r.profile.aggregate.issuedCycles;
            rec.maxCycles = r.profile.maxCycles;
            switch (queries_[i].algo) {
              case Algo::Bfs: rec.checksum = fnv1a(r.levels); break;
              case Algo::Sssp: rec.checksum = fnv1a(r.distances); break;
              case Algo::Ppr: break;
            }
            pass.modelSeconds += rec.modelSeconds;
            pass.queries.push_back(rec);
        }
        return pass;
    }

    unsigned
    validate() override
    {
        if (refLevels_.empty()) {
            const apps::AppConfig cfg;
            refLevels_.resize(queries_.size());
            refValues_.resize(queries_.size());
            for (std::size_t i = 0; i < queries_.size(); ++i) {
                const Query &q = queries_[i];
                switch (q.algo) {
                  case Algo::Bfs:
                    refLevels_[i] = apps::referenceBfs(adjacency_, q.source);
                    break;
                  case Algo::Sssp:
                    refValues_[i] = apps::referenceSssp(weighted_, q.source);
                    break;
                  case Algo::Ppr:
                    refValues_[i] = apps::referencePpr(
                        adjacency_, q.source, cfg.pprAlpha,
                        cfg.pprIterations);
                    break;
                }
            }
        }
        unsigned wrong = 0;
        for (std::size_t i = 0; i < queries_.size(); ++i) {
            const Query &q = queries_[i];
            const apps::AppResult &r = results_[i];
            const bool ok =
                q.algo == Algo::Bfs ? r.levels == refLevels_[i]
                : q.algo == Algo::Sssp ? closeTo(r.distances, refValues_[i])
                                       : closeTo(r.ranks, refValues_[i]);
            if (!ok) {
                std::fprintf(stderr, "perfbench: %s from %u: wrong output\n",
                             algoName(q.algo), q.source);
                ++wrong;
            }
        }
        return wrong;
    }

    std::string
    describe() const override
    {
        return describeInput(spec_, adjacency_, sys_.numDpus());
    }

  private:
    /** --validate's rule: same reachability, values within 1e-3. */
    static bool
    closeTo(const std::vector<float> &got, const std::vector<float> &want)
    {
        if (got.size() != want.size())
            return false;
        for (std::size_t v = 0; v < got.size(); ++v) {
            if (std::isinf(got[v]) != std::isinf(want[v]))
                return false;
            if (!std::isinf(got[v]) && std::abs(got[v] - want[v]) > 1e-3)
                return false;
        }
        return true;
    }

    const upmem::UpmemSystem &sys_;
    WorkloadSpec spec_;
    std::uint64_t seed_;
    sparse::CooMatrix<float> adjacency_;
    sparse::CooMatrix<float> weighted_;
    std::vector<Query> queries_;
    std::unique_ptr<core::PimEngine<core::BoolOrAnd>> bfs_;
    std::unique_ptr<core::PimEngine<core::MinPlus>> sssp_;
    std::unique_ptr<core::PimEngine<core::PlusTimes>> ppr_;
    std::vector<apps::AppResult> results_;
    std::vector<std::vector<std::uint32_t>> refLevels_;
    std::vector<std::vector<float>> refValues_;
};

/** Open-loop Poisson traffic into one ServeEngine (batching
 * scheduler) over a resident dataset. Each pass replays the same
 * arrival stream, shifted to start when the previous pass drained. */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(const upmem::UpmemSystem &sys, WorkloadSpec spec,
                  std::uint64_t seed)
        : sys_(sys), spec_(std::move(spec)), seed_(seed)
    {}

    void
    setup(SpanLog &spans) override
    {
        SpanLog::Scope root(spans, "setup");
        {
            SpanLog::Scope s(spans, "sparse.buildDataset");
            adjacency_ = sparse::buildDataset(spec_.dataset, spec_.scale,
                                              kShapeSeed)
                             .adjacency;
        }
        const Components comps =
            components(apps::referenceComponents(adjacency_));
        Rng sources(seed_);
        queries_ = makeQueries(spec_.mix, comps.largest, sources);
        Rng gaps(kShapeSeed);
        double t = 0.0;
        for (std::size_t i = 0; i < queries_.size(); ++i) {
            if (i > 0) // exponential inter-arrival times
                t += -std::log(1.0 - gaps.nextDouble()) / spec_.rate;
            queries_[i].arrival = t;
        }

        SpanLog::Scope e(spans, "core.engines");
        engine_ = std::make_unique<serve::ServeEngine>(sys_,
                                                       serve::ServeOptions{});
        {
            SpanLog::Scope s(spans, "serve.loadDataset");
            engine_->loadDataset(kName, adjacency_);
        }
        // Engines build lazily on first use. Warm every engine the
        // stream can reach (batched BFS, batched and solo SSSP, PPR)
        // with queries from the smallest component, which converge in
        // an iteration or two.
        const NodeId tiny = comps.smallestVertex;
        const serve::ServeAlgo warm[] = {
            serve::ServeAlgo::Bfs, serve::ServeAlgo::Bfs,
            serve::ServeAlgo::Sssp, serve::ServeAlgo::Sssp,
            serve::ServeAlgo::Ppr};
        for (serve::ServeAlgo a : warm)
            submit(spans, a, tiny, 0.0);
        drain(spans);
        submit(spans, serve::ServeAlgo::Sssp, tiny, engine_->now());
        drain(spans);
    }

    PassRecord
    runPass(SpanLog &spans) override
    {
        PassRecord pass;
        const std::size_t first = engine_->results().size();
        const double base = engine_->now();
        const double wall0 = wallNow();
        const double cpu0 = cpuNow();
        {
            SpanLog::Scope p(spans, "pass");
            std::size_t i = 0;
            while (i < queries_.size() || !engine_->idle()) {
                if (engine_->idle()) {
                    const double t = base + queries_[i].arrival;
                    while (i < queries_.size() &&
                           base + queries_[i].arrival <= t)
                        pass.maxQueueDepth = std::max(
                            pass.maxQueueDepth, submitNext(spans, i++, base));
                }
                step(spans);
                while (i < queries_.size() &&
                       base + queries_[i].arrival <= engine_->now())
                    pass.maxQueueDepth = std::max(
                        pass.maxQueueDepth, submitNext(spans, i++, base));
            }
        }
        pass.wall = wallNow() - wall0;
        pass.cpu = cpuNow() - cpu0;

        // Results arrive in completion order; report them in
        // submission order. A batch is the run of results sharing a
        // start time.
        const auto &results = engine_->results();
        std::vector<const serve::ServeResult *> bySubmission;
        double lastStart = -1.0;
        for (std::size_t k = first; k < results.size(); ++k) {
            const serve::ServeResult &r = results[k];
            bySubmission.push_back(&r);
            if (!r.admitted) {
                ++pass.rejects;
                continue;
            }
            if (r.start != lastStart) {
                ++pass.batches;
                pass.modelSeconds += r.finish - r.start;
                if (r.algo == serve::ServeAlgo::Ppr)
                    ++pass.soloPprBatches;
                lastStart = r.start;
            }
        }
        std::sort(bySubmission.begin(), bySubmission.end(),
                  [](const auto *a, const auto *b) {
                      return a->queryId < b->queryId;
                  });
        outputs_.clear();
        for (const serve::ServeResult *r : bySubmission) {
            QueryRecord rec;
            rec.admitted = r->admitted;
            rec.modelSeconds = r->latency();
            rec.iterations = r->iterations;
            rec.launches = r->iterations;
            if (r->algo != serve::ServeAlgo::Ppr)
                rec.checksum = r->resultChecksum;
            pass.queries.push_back(rec);
            outputs_.push_back(*r);
        }
        return pass;
    }

    /** Served results carry only a checksum. BFS and SSSP (over the
     * unit-weight pattern, where every distance is a small integer)
     * must hash like the host reference. PPR's bits are not
     * reproducible (see QueryRecord::checksum), so its values are
     * checked on scalefree-replay instead. */
    unsigned
    validate() override
    {
        if (refChecksums_.empty()) {
            for (const Query &q : queries_) {
                std::uint64_t want = 0;
                if (q.algo == Algo::Bfs)
                    want = fnv1a(apps::referenceBfs(adjacency_, q.source));
                else if (q.algo == Algo::Sssp)
                    want = fnv1a(apps::referenceSssp(adjacency_, q.source));
                refChecksums_.push_back(want);
            }
        }
        unsigned wrong = 0;
        for (std::size_t i = 0; i < outputs_.size(); ++i) {
            const serve::ServeResult &r = outputs_[i];
            if (!r.admitted || r.algo == serve::ServeAlgo::Ppr ||
                r.resultChecksum == refChecksums_[i])
                continue;
            std::fprintf(stderr, "perfbench: served %s from %u: wrong output\n",
                         serve::serveAlgoName(r.algo), r.source);
            ++wrong;
        }
        return wrong;
    }

    std::string
    describe() const override
    {
        char rate[96];
        std::snprintf(rate, sizeof rate,
                      ", open-loop Poisson at %g queries per model second",
                      spec_.rate);
        return describeInput(spec_, adjacency_, sys_.numDpus()) + rate;
    }

    /** Each pass replays the arrival stream shifted onto the running
     * model clock, which rounds the last bits of its times. */
    double modelTolerance() const override { return 1e-9; }

  private:
    static constexpr const char *kName = "graph";

    static serve::ServeAlgo
    serveAlgo(Algo a)
    {
        switch (a) {
          case Algo::Bfs: return serve::ServeAlgo::Bfs;
          case Algo::Sssp: return serve::ServeAlgo::Sssp;
          case Algo::Ppr: return serve::ServeAlgo::Ppr;
        }
        return serve::ServeAlgo::Bfs;
    }

    std::uint64_t
    submit(SpanLog &spans, serve::ServeAlgo algo, NodeId source,
           double arrival, std::uint64_t query = kNoQuery)
    {
        serve::ServeQuery q;
        q.tenant = "tenant";
        q.dataset = kName;
        q.algo = algo;
        q.source = source;
        q.arrival = arrival;
        SpanLog::Scope s(spans, "serve.submit", query);
        std::uint64_t id = 0;
        engine_->submit(q, &id);
        if (query == 0)
            passFirstId_ = id;
        return engine_->queueDepth();
    }

    std::uint64_t
    submitNext(SpanLog &spans, std::size_t i, double base)
    {
        const Query &q = queries_[i];
        return submit(spans, serveAlgo(q.algo), q.source, base + q.arrival,
                      i);
    }

    void
    step(SpanLog &spans)
    {
        SpanLog::Scope s(spans, "serve.step");
        const std::size_t first = engine_->results().size();
        engine_->step();
        if (passFirstId_ != kNoQuery)
            s.setQuery(engine_->results()[first].queryId - passFirstId_);
    }

    void
    drain(SpanLog &spans)
    {
        while (!engine_->idle())
            step(spans);
    }

    const upmem::UpmemSystem &sys_;
    WorkloadSpec spec_;
    std::uint64_t seed_;
    sparse::CooMatrix<float> adjacency_;
    std::vector<Query> queries_;
    std::unique_ptr<serve::ServeEngine> engine_;
    std::vector<serve::ServeResult> outputs_;
    std::vector<std::uint64_t> refChecksums_;
    /** Engine id of the current pass's first query (none in set-up):
     * engine ids minus it are the pass's query indices. */
    std::uint64_t passFirstId_ = kNoQuery;
};

/** The benchmark's workloads. See README.md for why each exists. */
std::unique_ptr<Workload>
makeWorkload(const std::string &name, const upmem::UpmemSystem &sys,
             std::uint64_t seed)
{
    if (name == "scalefree-replay")
        return std::make_unique<AppWorkload>(
            sys,
            WorkloadSpec{"g-18", 0.005, {{Algo::Sssp, 16}, {Algo::Ppr, 6}},
                         0.0},
            seed);
    if (name == "road-launch")
        return std::make_unique<AppWorkload>(
            sys, WorkloadSpec{"r-PA", 0.01, {{Algo::Bfs, 12}}, 0.0}, seed);
    if (name == "serve-mixed")
        return std::make_unique<ServeWorkload>(
            sys,
            WorkloadSpec{"face",
                         0.1,
                         {{Algo::Bfs, 60}, {Algo::Sssp, 60}, {Algo::Ppr, 24}},
                         80.0},
            seed);
    return nullptr;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: alphapim_perfbench --workload "
                 "scalefree-replay|road-launch|serve-mixed\n"
                 "         --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty())
                usage();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 60.0)
                usage();
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage();
            o.trace = val == "1";
        } else if (arg == "--spans-out") {
            o.spansOut = val;
        } else {
            usage();
        }
    }
    if (o.workload.empty())
        usage();
    return o;
}

/** Fewest passes in a pass set: the repeat check needs two, and a
 * median of host times that is not one pass's needs three. The
 * workloads are sized so that at least this many fit in a 30 s run. */
constexpr std::size_t kMinPasses = 3;

/** Run and check passes until `budget` host seconds of passes are
 * spent: at least kMinPasses, then none that would, at the last pass's
 * pace, end past the budget. */
std::vector<PassRecord>
runPasses(Workload &w, SpanLog &spans, double budget)
{
    std::vector<PassRecord> passes;
    double spent = 0.0;
    while (passes.size() < kMinPasses ||
           spent + passes.back().wall <= budget) {
        passes.push_back(w.runPass(spans));
        passes.back().wrong = w.validate();
        spent += passes.back().wall;
    }
    if (spent > budget)
        std::fprintf(stderr,
                     "perfbench: %zu passes took %.1f s, past the %.1f s "
                     "budget\n",
                     passes.size(), spent, budget);
    return passes;
}

/** Nearest-rank order statistics of one pass's per-query model
 * latencies: p50, and the highest percentile with at least ten
 * samples beyond it (the p50 itself when there are too few). */
struct Latency
{
    double p50 = 0.0;
    double tail = 0.0;
    double tailPercentile = 0.0;
    std::size_t samples = 0;
    std::size_t beyondTail = 0;
};

Latency
latencies(const PassRecord &pass)
{
    std::vector<double> v;
    for (const QueryRecord &q : pass.queries)
        if (q.admitted)
            v.push_back(q.modelSeconds);
    std::sort(v.begin(), v.end());
    Latency l;
    l.samples = v.size();
    if (v.empty())
        return l;
    const std::size_t n = v.size();
    const std::size_t median = (n + 1) / 2; // 1-based ranks
    const std::size_t rank = n >= median + 10 ? n - 10 : median;
    l.p50 = v[median - 1];
    l.tail = v[rank - 1];
    l.tailPercentile =
        100.0 * static_cast<double>(rank) / static_cast<double>(n);
    l.beyondTail = n - rank;
    return l;
}

/** Exact per-pass totals of the model-side counters. */
struct Counts
{
    std::uint64_t launches = 0, spmvLaunches = 0, iterations = 0,
                  semiringOps = 0, dpuCycles = 0, issuedCycles = 0,
                  maxCycles = 0;
};

/** Host seconds of one set-up from nothing. The process-wide graph
 * stats cache is dropped first, so a repeated set-up does the work of
 * the first one. */
double
timedSetup(Workload &w, SpanLog &spans)
{
    sparse::resetStatsCache();
    const double t0 = wallNow();
    w.setup(spans);
    return wallNow() - t0;
}

Counts
counts(const PassRecord &pass)
{
    Counts c;
    for (const QueryRecord &q : pass.queries) {
        c.launches += q.launches;
        c.spmvLaunches += q.spmvLaunches;
        c.iterations += q.iterations;
        c.semiringOps += q.semiringOps;
        c.dpuCycles += q.dpuCycles;
        c.issuedCycles += q.issuedCycles;
        c.maxCycles += q.maxCycles;
    }
    return c;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<double>
field(const std::vector<PassRecord> &passes,
      const std::function<double(const PassRecord &)> &f)
{
    std::vector<double> out;
    for (const PassRecord &p : passes)
        out.push_back(f(p));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const upmem::UpmemSystem sys{upmem::SystemConfig{}};
    const std::unique_ptr<Workload> w =
        makeWorkload(opt.workload, sys, opt.seed);
    if (!w)
        usage();

    auto &prof = telemetry::hostProfiler();
    SpanLog spans;
    std::vector<Metric> metrics;
    std::vector<PassRecord> untraced, traced;
    telemetry::HostProfile setupProfile, passProfile;
    std::size_t tracedFrom = 0; // first span of the traced passes

    double peakRssMb = 0.0;
    std::vector<double> setupTimes;
    if (!opt.trace) {
        setupTimes.push_back(timedSetup(*w, spans));
        untraced = runPasses(*w, spans, opt.seconds);
        peakRssMb = static_cast<double>(
                        telemetry::HostProfiler::peakRssBytes()) /
                    (1024.0 * 1024.0);
        // More set-ups, each from nothing, after the peak RSS is taken:
        // at least 5 in all and for 2 s (at most 500), so that a fast
        // set-up still reports a steady median.
        double spent = setupTimes[0];
        while (setupTimes.size() < 5 ||
               (spent < 2.0 && setupTimes.size() < 500)) {
            auto again = makeWorkload(opt.workload, sys, opt.seed);
            setupTimes.push_back(timedSetup(*again, spans));
            spent += setupTimes.back();
        }
    } else {
        spans.on = true;
        prof.reset();
        prof.setEnabled(true);
        timedSetup(*w, spans);
        setupProfile = prof.snapshot(0.0);
        prof.setEnabled(false);

        spans.on = false;
        untraced = runPasses(*w, spans, opt.seconds / 2);
        spans.on = true;
        tracedFrom = spans.size();
        prof.reset();
        prof.setEnabled(true);
        traced = runPasses(*w, spans, opt.seconds / 2);
        prof.setEnabled(false);
        passProfile = prof.snapshot(0.0);
    }

    // ---- correctness: outputs (checked per pass), model determinism ----
    const PassRecord &ref = untraced.front();
    const double tol = w->modelTolerance();
    unsigned drift = 0;
    std::uint64_t attempted = 0, rejects = 0, wrong = 0;
    for (const auto *set : {&untraced, &traced})
        for (const PassRecord &p : *set) {
            drift += !sameModel(ref, p, tol);
            attempted += p.queries.size();
            rejects += p.rejects;
            wrong += p.wrong;
        }
    const std::uint64_t failed = rejects + wrong;
    const bool correct = wrong == 0 && drift == 0;

    const double n = static_cast<double>(ref.queries.size());
    const Latency lat = latencies(ref);
    const Counts cnt = counts(ref);
    const double wallMed =
        median(field(untraced, [](auto &p) { return p.wall; }));
    const double cpuMed =
        median(field(untraced, [](auto &p) { return p.cpu; }));

    std::printf("workload %s, seed %llu: %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                w->describe().c_str());
    std::printf("passes: %zu untraced, %zu traced; %.0f queries each; "
                "median pass %.3f s wall, %.3f s CPU\n",
                untraced.size(), traced.size(), n, wallMed, cpuMed);
    std::printf("pass walls (s):");
    for (const auto *set : {&untraced, &traced})
        for (const PassRecord &p : *set)
            std::printf(" %.3f", p.wall);
    std::printf("\n");
    std::printf("model latency over %zu queries: p50 %.6f ms, "
                "p%.1f %.6f ms (%zu samples beyond)\n",
                lat.samples, lat.p50 * 1e3, lat.tailPercentile,
                lat.tail * 1e3, lat.beyondTail);
    std::printf("checks: %llu wrong outputs, %u passes with model drift, "
                "%llu admission rejects\n",
                static_cast<unsigned long long>(wrong), drift,
                static_cast<unsigned long long>(rejects));

    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setupTimes), "s"},
            {"queries_per_s", n / wallMed, "1/s"},
            {"cpu_s", cpuMed, "s"},
            {"slowdown", wallMed / ref.modelSeconds, "x"},
            {"peak_rss_mb", peakRssMb, "MB"},
            {"model_s", ref.modelSeconds, "s"},
            {"model_p50_ms", lat.p50 * 1e3, "ms"},
            {"model_tail_ms", lat.tail * 1e3, "ms"},
        };
    } else {
        using telemetry::HostPhase;
        const double tracedPasses = static_cast<double>(traced.size());
        auto phase = [&](HostPhase p) {
            return passProfile.phaseSeconds[static_cast<unsigned>(p)] /
                   tracedPasses;
        };
        const double tracedWall =
            median(field(traced, [](auto &p) { return p.wall; }));
        const double tracedCpu =
            median(field(traced, [](auto &p) { return p.cpu; }));
        const double phaseSum = passProfile.totalSeconds / tracedPasses;
        // One call into the apps layer per query, or per served batch.
        std::vector<double> calls = spans.durations("serve.step", tracedFrom);
        for (const char *name : {"apps.bfsWithEngine", "apps.ssspWithEngine",
                                 "apps.pprWithEngine"})
            for (double d : spans.durations(name, tracedFrom))
                calls.push_back(d);
        auto sum = [](const std::vector<double> &v) {
            double s = 0.0;
            for (double x : v)
                s += x;
            return s;
        };
        auto count = [](std::uint64_t v) { return static_cast<double>(v); };
        metrics = {
            {"sparse.build_s", sum(spans.durations("sparse.buildDataset")),
             "s"},
            {"core.engine_build_s",
             sum(spans.durations("core.PimEngine")) +
                 sum(spans.durations("core.engines")),
             "s"},
            {"core.partition_build_s",
             setupProfile.phaseSeconds[static_cast<unsigned>(
                 HostPhase::PartitionBuild)],
             "s"},
            {"core.launches", count(cnt.launches), "count"},
            {"core.spmv_launches", count(cnt.spmvLaunches), "count"},
            {"core.semiring_ops", count(cnt.semiringOps), "count"},
            {"apps.iterations", count(cnt.iterations), "count"},
            {"core.host_s_per_launch",
             cnt.launches ? wallMed / count(cnt.launches) : 0.0, "s"},
            {"upmem.dpu_cycles", count(cnt.dpuCycles), "count"},
            {"upmem.issued_cycles", count(cnt.issuedCycles), "count"},
            {"upmem.max_cycles", count(cnt.maxCycles), "count"},
            {"upmem.cycles_per_host_s", count(cnt.dpuCycles) / wallMed,
             "1/s"},
            {"apps.query_p50_s", median(calls), "s"},
            {"apps.query_max_s",
             calls.empty() ? 0.0
                           : *std::max_element(calls.begin(), calls.end()),
             "s"},
            {"serve.batches", count(ref.batches), "count"},
            {"serve.solo_ppr_batches", count(ref.soloPprBatches), "count"},
            {"serve.mean_batch_size",
             ref.batches ? (n - count(ref.rejects)) / count(ref.batches)
                         : 0.0,
             "count"},
            {"serve.max_queue_depth", count(ref.maxQueueDepth), "count"},
            {"serve.admission_rejects", count(ref.rejects), "count"},
            {"failed_frac", count(failed) / count(attempted), "fraction"},
            {"core.trace_record_s", phase(HostPhase::TraceRecord), "s"},
            {"core.host_merge_s", phase(HostPhase::HostMerge), "s"},
            {"upmem.replay_s", phase(HostPhase::Replay), "s"},
            {"upmem.profile_fold_s", phase(HostPhase::ProfileFold), "s"},
            {"upmem.transfer_model_s", phase(HostPhase::TransferModel),
             "s"},
            {"telemetry.analysis_s", phase(HostPhase::Analysis), "s"},
            {"upmem.replay_slots",
             count(passProfile.replaySlots) / tracedPasses, "count"},
            {"upmem.replay_slots_per_s", passProfile.replaySlotsPerSec,
             "1/s"},
            {"core.trace_records",
             count(passProfile.traceRecords) / tracedPasses, "count"},
            {"upmem.trace_bytes_peak",
             count(passProfile.taskletTraceBytesPeak), "B"},
            {"host.unattributed_s", tracedCpu - phaseSum, "s"},
            {"telemetry.overhead", tracedWall / wallMed - 1.0, "ratio"},
        };

        std::printf("\nphase shares of profiled thread-seconds (traced "
                    "passes, per pass: %.3f thread-s profiled, %.3f s CPU, "
                    "%.3f s wall)\n",
                    phaseSum, tracedCpu, tracedWall);
        for (unsigned p = 0; p < telemetry::kHostPhaseCount; ++p) {
            const auto hp = static_cast<HostPhase>(p);
            std::printf("  %-16s %10.4f s  %5.1f%%\n",
                        telemetry::hostPhaseName(hp), phase(hp),
                        phaseSum > 0 ? 100.0 * phase(hp) / phaseSum : 0.0);
        }
        std::printf("  %-16s %10.4f s  (CPU minus profiled)\n",
                    "unattributed", tracedCpu - phaseSum);
        std::printf("  %-16s %10.4f    (traced / untraced pass wall - 1)\n",
                    "overhead", tracedWall / wallMed - 1.0);
        if (!opt.spansOut.empty() && !spans.write(opt.spansOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.spansOut.c_str());
    }

    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("%-28s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
