/**
 * @file
 * Host-performance benchmark driver for SKIP-Sim. It runs one named
 * workload for a fixed number of host seconds, times every call it
 * makes into the simulator's public API from the outside, digests the
 * simulated outputs, and prints one JSON line that perfbench/run.py
 * turns into the benchmark result (see perfbench/README.md).
 *
 * Usage: skipbench --workload characterize|datacenter|traced-sessions
 *                  --seed N --seconds S --trace 0|1
 *                  [--size full|tiny] [--iterations N]
 *                  [--span-out spans.json] [--emit-refs]
 *
 * --trace 0 measures the end-to-end metrics. --trace 1 alternates
 * untraced and traced iterations: the traced ones record one span per
 * call into a simulator module (kept in memory, written to --span-out
 * at exit) and yield the per-layer metrics plus the tracing overhead.
 * --iterations caps the iteration count (0 = time-bound only).
 * --emit-refs runs every input the workload can draw once and prints
 * the digests for the reference file instead of measuring.
 *
 * Everything runs on one thread: one shard, heap event queue, no
 * exec::Pool.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "core/sharded_engine.hh"
#include "fusion/recommend.hh"
#include "hw/catalog.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "obs/attribution.hh"
#include "obs/span.hh"
#include "scenario/registry.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "workload/builder.hh"
#include "workload/exec_mode.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** SplitMix64 finalizer: the benchmark's own input hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0)
{
    return mix(mix(mix(a) ^ b) ^ c);
}

/** FNV-1a over raw bytes, printed as 16 hex digits. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= p[i];
            _h *= 0x100000001b3ULL;
        }
    }
    void text(const std::string &s) { bytes(s.data(), s.size()); }
    template <typename T> void value(T v) { bytes(&v, sizeof v); }
    std::string hex() const
    {
        return strprintf("%016llx", static_cast<unsigned long long>(_h));
    }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

std::string
digestOf(const std::string &s)
{
    Digest d;
    d.text(s);
    return d.hex();
}

/** Linear-interpolated percentile of @p v (q in [0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/**
 * In-memory span recorder for the traced run: one span per call into
 * a simulator module, nested by the calls' structure. A null Tracer*
 * is the untraced run; Scope then only costs a pointer test.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t beginNs;
        std::int64_t endNs;
        int parent;
    };

    int open(const char *name)
    {
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({name, nowNs(), 0, parent});
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    /** @return the closed span's duration, ns. */
    double close(int idx)
    {
        Span &span = _spans[static_cast<std::size_t>(idx)];
        span.endNs = nowNs();
        _stack.pop_back();
        return static_cast<double>(span.endNs - span.beginNs);
    }

    /** Chrome-trace export ("X" events, span/parent ids in args). */
    void writeChrome(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write span file " + path);
        std::int64_t t0 = _spans.empty() ? 0 : _spans.front().beginNs;
        std::fputs("{\"traceEvents\":[", f);
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"span_id\":%zu,\"parent\":%d}}",
                         i == 0 ? "" : ",", s.name,
                         static_cast<double>(s.beginNs - t0) / 1e3,
                         static_cast<double>(s.endNs - s.beginNs) / 1e3,
                         i, s.parent);
        }
        std::fputs("]}\n", f);
        std::fclose(f);
    }

  private:
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; adds the span's duration to @p sinkNs when traced. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, double *sinkNs = nullptr)
        : _tracer(tracer), _sink(sinkNs),
          _idx(tracer ? tracer->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (_tracer == nullptr)
            return;
        double ns = _tracer->close(_idx);
        if (_sink != nullptr)
            *_sink += ns;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *_tracer;
    double *_sink;
    int _idx;
};

/** Named metric values with units, in insertion order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void set(const std::string &name, double value, const char *unit)
    {
        items.push_back({name, {value, unit}});
    }
};

/**
 * Every per-layer metric, in report order. A traced run prints all of
 * them; a layer the workload does not load reads 0.
 */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"workload.build_ms", "ms"},
    {"workload.kernel_launches", "count"},
    {"sim.run_ms", "ms"},
    {"sim.trace_events", "count"},
    {"skip.dep_graph_ms", "ms"},
    {"skip.metrics_ms", "ms"},
    {"skip.ns_per_trace_event", "ns"},
    {"fusion.recommend_ms", "ms"},
    {"layers.coverage_pct", "%"},
    {"scenario.build_ms", "ms"},
    {"serving.cost_model_ms", "ms"},
    {"serving.arrivals_ms", "ms"},
    {"serving.arrivals", "count"},
    {"cluster.simulate_ms", "ms"},
    {"core.events", "count"},
    {"cluster.ns_per_event", "ns"},
    {"router.dispatches", "count"},
    {"router.pick_ns", "ns"},
    {"router.replay_agree", "ratio"},
    {"obs.span_record_ms", "ms"},
    {"obs.spans", "count"},
    {"obs.span_export_ms", "ms"},
    {"obs.span_export_bytes", "B"},
    {"obs.attribute_ms", "ms"},
    {"kv.offloads", "count"},
    {"kv.fetches", "count"},
    {"kv.hit_ratio", "ratio"},
    {"kv.link_busy_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/** Per-layer samples of the traced iterations, by metric name. */
using LayerSamples = std::map<std::string, std::vector<double>>;

/** The per-layer metrics: each one's median over traced iterations. */
Metrics
layerMetrics(LayerSamples &samples)
{
    Metrics m;
    for (const auto &[name, unit] : kLayerMetrics)
        m.set(name, median(samples[name]), unit);
    return m;
}

/** Output digests aggregated by (op name, digest). */
struct OpLog
{
    std::map<std::pair<std::string, std::string>, std::size_t> counts;
    std::size_t attempted = 0;
    std::size_t errors = 0;

    void record(const std::string &name, const std::string &digest)
    {
        ++counts[{name, digest}];
    }
};

/** What one workload run hands back to main(). */
struct RunOut
{
    Metrics metrics;
    OpLog ops;
    json::Object samples;
};

/** Options shared by every workload. */
struct Options
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    long iterations = 0;
};

/**
 * Drives the untraced/traced iteration schedule: at least one
 * iteration of each kind that runs, then until the time budget or the
 * iteration cap is spent.
 */
class Schedule
{
  public:
    explicit Schedule(const Options &opts)
        : _opts(opts), _startNs(nowNs())
    {
    }

    /** @return true while another iteration should run. */
    bool next()
    {
        ++_done;
        long need = _opts.trace ? 2 : 1;
        if (_done <= need)
            return true;
        if (_opts.iterations > 0 && _done > _opts.iterations)
            return false;
        return static_cast<double>(nowNs() - _startNs) / 1e9 <
            _opts.seconds;
    }

    /** The current iteration runs traced (odd ones in --trace 1). */
    bool traced() const { return _opts.trace && (_done % 2 == 0); }

    /**
     * Input index of the current iteration. A traced iteration reruns
     * the inputs of the untraced one before it, so the two compare.
     */
    long index() const { return _opts.trace ? (_done - 1) / 2 : _done - 1; }

  private:
    const Options &_opts;
    std::int64_t _startNs;
    long _done = 0;
};

double
peakRssMib()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// characterize: the paper's per-profile SKIP pipeline over a grid.
// ---------------------------------------------------------------------

/**
 * The grid's axes. A pass runs every (model, platform, mode) point
 * once, at a batch size and sequence length drawn from the seed.
 */
struct Catalog
{
    std::vector<workload::ModelConfig> models;
    std::vector<hw::Platform> platforms;
    std::vector<workload::ExecMode> modes;
    std::vector<int> batches;
    std::vector<int> seqLens;
};

Catalog
loadCatalog(bool tiny)
{
    Catalog cat;
    cat.models = workload::allModels();
    cat.platforms = hw::platforms::all();
    cat.modes = workload::allExecModes();
    // As many batch sizes as platforms (see passPoints).
    cat.batches = {1, 2, 8, 16, 64};
    cat.seqLens = {128, 256, 512};
    if (tiny) {
        cat.models.resize(2);
        cat.platforms.resize(2);
        cat.modes.resize(2);
        cat.batches.resize(1);
    }
    return cat;
}

struct ProfilePoint
{
    std::size_t model, platform, mode;
    int batch;
    int seqLen;
};

std::string
pointName(const Catalog &cat, const ProfilePoint &p)
{
    return strprintf("%s/%s/%s/b%d/s%d",
                     cat.models[p.model].name.c_str(),
                     cat.platforms[p.platform].name.c_str(),
                     workload::execModeName(cat.modes[p.mode]), p.batch,
                     p.seqLen);
}

/** Every input a pass can draw (the reference file's universe). */
std::vector<ProfilePoint>
allPoints(const Catalog &cat)
{
    std::vector<ProfilePoint> pts;
    for (std::size_t m = 0; m < cat.models.size(); ++m)
        for (std::size_t p = 0; p < cat.platforms.size(); ++p)
            for (std::size_t x = 0; x < cat.modes.size(); ++x)
                for (int b : cat.batches)
                    for (int s : cat.seqLens)
                        pts.push_back({m, p, x, b, s});
    return pts;
}

/**
 * The inputs of grid pass @p pass. Within each (model, mode) the five
 * platforms take the five batch sizes in a rotation that advances with
 * the pass, so every pass runs the same mix of (model, mode, batch)
 * and five passes cover every platform at every batch size. The seed
 * draws each profile's sequence length and the run order.
 */
std::vector<ProfilePoint>
passPoints(const Catalog &cat, std::uint64_t seed, long pass)
{
    std::vector<ProfilePoint> pts;
    std::size_t nb = cat.batches.size(), ns = cat.seqLens.size();
    for (std::size_t m = 0; m < cat.models.size(); ++m)
        for (std::size_t x = 0; x < cat.modes.size(); ++x)
            for (std::size_t p = 0; p < cat.platforms.size(); ++p) {
                std::size_t b =
                    (p + m + x + static_cast<std::size_t>(pass)) % nb;
                std::uint64_t h = mix(seed, pass, pts.size());
                pts.push_back({m, p, x, cat.batches[b],
                               cat.seqLens[h % ns]});
            }
    std::uint64_t state = mix(seed, pass, 0x5eed);
    for (std::size_t i = pts.size(); i > 1; --i) {
        state = mix(state);
        std::swap(pts[i - 1], pts[state % i]);
    }
    return pts;
}

/** Per-layer host time and work of one profile. */
struct ProfileLayers
{
    double buildNs = 0, simNs = 0, depNs = 0, metricsNs = 0,
           fusionNs = 0;
    double launches = 0, events = 0;
};

/**
 * One profile: build -> simulate -> dependency graph -> metrics ->
 * fusion. @return digest of TKLQT, IL, AKD and K_eager.
 */
std::string
runProfile(const Catalog &cat, const ProfilePoint &p, Tracer *tracer,
           ProfileLayers &layers)
{
    Scope whole(tracer, "profile");
    workload::BuildOptions build;
    build.batch = p.batch;
    build.seqLen = p.seqLen;
    build.mode = cat.modes[p.mode];
    workload::OperatorGraph graph;
    {
        Scope s(tracer, "workload.build", &layers.buildNs);
        graph = workload::buildPrefillGraph(cat.models[p.model], build);
    }
    sim::SimResult run;
    {
        Scope s(tracer, "sim.run", &layers.simNs);
        sim::Simulator simulator(cat.platforms[p.platform]);
        run = simulator.run(graph);
    }
    layers.launches += static_cast<double>(graph.numKernelLaunches());
    layers.events += static_cast<double>(run.trace.size());
    // DependencyGraph has no default constructor; hold it by pointer
    // so the build call sits alone inside its span.
    std::unique_ptr<skip::DependencyGraph> dep;
    {
        Scope s(tracer, "skip.dep_graph", &layers.depNs);
        dep = std::make_unique<skip::DependencyGraph>(
            skip::DependencyGraph::build(std::move(run.trace)));
    }
    skip::MetricsReport metrics;
    {
        Scope s(tracer, "skip.metrics", &layers.metricsNs);
        metrics = skip::computeMetrics(*dep);
    }
    fusion::FusionReport fusion;
    {
        Scope s(tracer, "fusion.recommend", &layers.fusionNs);
        fusion = fusion::recommendFromTrace(dep->trace());
    }
    Digest d;
    d.value(metrics.tklqtNs);
    d.value(metrics.ilNs);
    d.value(metrics.akdNs);
    d.value(static_cast<std::uint64_t>(fusion.kEager));
    return d.hex();
}

/** Extra catalog loads timed per characterize iteration. */
constexpr int kSetupRepeats = 8;

RunOut
runCharacterize(const Options &opts, Tracer *tracer)
{
    RunOut out;
    std::vector<double> setupS, wallS, profileMs;
    std::vector<double> untracedPassS, tracedPassS;
    LayerSamples layer;
    double measuredNs = 0.0;
    std::size_t profiles = 0;

    Schedule schedule(opts);
    while (schedule.next()) {
        Tracer *t = schedule.traced() ? tracer : nullptr;
        std::int64_t start = nowNs();
        double setupNs = 0.0;
        Catalog cat;
        {
            Scope s(t, "setup.catalog", &setupNs);
            cat = loadCatalog(opts.tiny);
        }
        std::int64_t setupEnd = nowNs();
        std::vector<ProfilePoint> pts =
            passPoints(cat, opts.seed, schedule.index());
        ProfileLayers layers;
        for (const ProfilePoint &p : pts) {
            ++out.ops.attempted;
            std::int64_t t0 = nowNs();
            std::string name = pointName(cat, p);
            try {
                out.ops.record(name, runProfile(cat, p, t, layers));
            } catch (const std::exception &e) {
                ++out.ops.errors;
                std::printf("error: %s: %s\n", name.c_str(), e.what());
            }
            if (t == nullptr)
                profileMs.push_back(
                    static_cast<double>(nowNs() - t0) / 1e6);
        }
        std::int64_t end = nowNs();
        double passS = static_cast<double>(end - setupEnd) / 1e9;
        double wall = static_cast<double>(end - start) / 1e9;
        if (t != nullptr) {
            tracedPassS.push_back(passS);
            double n = static_cast<double>(pts.size());
            layer["workload.build_ms"].push_back(layers.buildNs / n / 1e6);
            layer["workload.kernel_launches"].push_back(layers.launches);
            layer["sim.run_ms"].push_back(layers.simNs / n / 1e6);
            layer["sim.trace_events"].push_back(layers.events);
            layer["skip.dep_graph_ms"].push_back(layers.depNs / n / 1e6);
            layer["skip.metrics_ms"].push_back(layers.metricsNs / n / 1e6);
            layer["skip.ns_per_trace_event"].push_back(
                (layers.depNs + layers.metricsNs) /
                std::max(1.0, layers.events));
            layer["fusion.recommend_ms"].push_back(layers.fusionNs / n /
                                                   1e6);
            double layerNs = setupNs + layers.buildNs + layers.simNs +
                layers.depNs + layers.metricsNs + layers.fusionNs;
            layer["layers.coverage_pct"].push_back(100.0 * layerNs /
                                                   (wall * 1e9));
            continue;
        }
        wallS.push_back(wall);
        untracedPassS.push_back(passS);
        measuredNs += static_cast<double>(end - setupEnd);
        profiles += pts.size();
        // One catalog load takes microseconds: time a few more after
        // the pass so setup_s is a steady median.
        setupS.push_back(static_cast<double>(setupEnd - start) / 1e9);
        for (int i = 0; i < kSetupRepeats; ++i) {
            std::int64_t t0 = nowNs();
            Catalog again = loadCatalog(opts.tiny);
            setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        }
    }

    Metrics &m = out.metrics;
    if (!opts.trace) {
        // The mean, not the median: see README, "Noise on a shared host".
        m.set("wall_s", mean(wallS), "s");
        m.set("setup_s", median(setupS), "s");
        m.set("peak_rss_mib", peakRssMib(), "MiB");
        m.set("ops_per_s",
              static_cast<double>(profiles) / (measuredNs / 1e9), "1/s");
        m.set("op_ms.p99", percentile(profileMs, 0.99), "ms");
    } else {
        layer["trace.overhead_pct"].push_back(
            100.0 * (median(tracedPassS) / median(untracedPassS) - 1.0));
        m = layerMetrics(layer);
    }
    out.samples.set("iterations", static_cast<double>(wallS.size()));
    out.samples.set("traced_iterations",
                    static_cast<double>(tracedPassS.size()));
    out.samples.set("op_samples", static_cast<double>(profileMs.size()));
    out.samples.set("op_ms_p50", percentile(profileMs, 0.50));
    return out;
}

void
emitCharacterizeRefs(const Options &opts, RunOut &out)
{
    Catalog cat = loadCatalog(opts.tiny);
    for (const ProfilePoint &p : allPoints(cat)) {
        ProfileLayers layers;
        out.ops.record(pointName(cat, p),
                       runProfile(cat, p, nullptr, layers));
    }
}

// ---------------------------------------------------------------------
// Cluster workloads: datacenter and traced-sessions.
// ---------------------------------------------------------------------

/** Recorded arrival-seed variants; the run seed picks among them. */
constexpr std::uint64_t kVariants = 16;

struct ClusterCase
{
    const char *scenario;
    /** Scenario parameters (seed and horizon filled per iteration). */
    json::Object params;
    double horizonSec;
    /** The op records obs spans, exports them and attributes them. */
    bool spansInOp;
    /** Horizon of the traced run's spans-on side run (datacenter). */
    double spanHorizonSec;
};

ClusterCase
clusterCase(const std::string &workload, bool tiny)
{
    ClusterCase c;
    if (workload == "datacenter") {
        c.scenario = "datacenter";
        c.params.set("replicas", tiny ? 32.0 : 1024.0);
        c.params.set("sessions", static_cast<double>(1 << 20));
        c.params.set("rate-per-replica", 30.0);
        c.params.set("gen-tokens", 8.0);
        c.horizonSec = tiny ? 0.5 : 4.0;
        c.spansInOp = false;
        c.spanHorizonSec = tiny ? 0.25 : 0.5;
    } else {
        c.scenario = "kv_offload";
        c.params.set("replicas", tiny ? 2.0 : 8.0);
        c.params.set("session-rate", tiny ? 4.0 : 32.0);
        c.horizonSec = tiny ? 4.0 : 20.0;
        c.spansInOp = true;
        c.spanHorizonSec = c.horizonSec;
    }
    return c;
}

cluster::ClusterSpec
buildSpec(const ClusterCase &c, std::uint64_t variant, double horizon)
{
    json::Object params = c.params;
    params.set("seed", static_cast<double>(variant + 1));
    params.set("horizon-sec", horizon);
    return scenario::buildScenario(c.scenario, params);
}

/** Outputs of one op: the scenario run a user would launch. */
struct ClusterOp
{
    cluster::ClusterResult result;
    core::ShardStats stats;
    std::string report;
    std::unique_ptr<obs::SpanLog> spans;
    std::string spanText;
    std::string attribution;
    double simulateNs = 0, reportNs = 0, exportNs = 0, attributeNs = 0;

    /** Host time of the calls into simulator modules, ns. */
    double layerNs() const
    {
        return simulateNs + reportNs + exportNs + attributeNs;
    }
};

/**
 * Simulate @p spec; with @p withSpans also record lifecycle spans,
 * export them as Chrome text and attribute them (what
 * `skipctl run --span-out` followed by `skipctl attribute` costs).
 */
ClusterOp
runClusterOp(const cluster::ClusterSpec &spec,
             const cluster::CostCache &costs, bool withSpans,
             Tracer *tracer)
{
    ClusterOp op;
    if (withSpans)
        op.spans = std::make_unique<obs::SpanLog>();
    {
        Scope s(tracer, "cluster.simulate", &op.simulateNs);
        op.result = cluster::simulateCluster(spec, costs, nullptr,
                                             op.spans.get(), &op.stats);
    }
    {
        Scope s(tracer, "cluster.report", &op.reportNs);
        op.report = json::write(op.result.toJson());
    }
    if (!withSpans)
        return op;
    {
        Scope s(tracer, "obs.span_export", &op.exportNs);
        op.spanText = op.spans->toChromeText();
    }
    {
        Scope s(tracer, "obs.attribute", &op.attributeNs);
        op.attribution = json::write(
            obs::attributeSpans(op.spans->spans(), spec.ttftSloMs,
                                spec.e2eSloMs)
                .toJson());
    }
    return op;
}

void
recordClusterOp(OpLog &log, const std::string &name, const ClusterOp &op)
{
    log.record(name + "#report", digestOf(op.report));
    if (op.spans) {
        log.record(name + "#spans", digestOf(op.spanText));
        log.record(name + "#attribution", digestOf(op.attribution));
    }
}

std::string
variantName(const std::string &workload, bool tiny, std::uint64_t v)
{
    return strprintf("%s/%s/v%llu", workload.c_str(),
                     tiny ? "tiny" : "full",
                     static_cast<unsigned long long>(v));
}

/** Timer overhead of one steady_clock pair, ns (median of many). */
double
clockOverheadNs()
{
    std::vector<double> v;
    for (int i = 0; i < 1001; ++i) {
        std::int64_t a = nowNs();
        std::int64_t b = nowNs();
        v.push_back(static_cast<double>(b - a));
    }
    return median(v);
}

struct ReplayResult
{
    double pickNs = 0.0;
    double agree = 0.0;
    double picks = 0.0;
};

/**
 * Rebuild the routing and completion order from a run's span log and
 * replay it through a standalone Router: pick() is timed, then the
 * recorded replica gets onDispatch and, at the request's completion,
 * onSettled. Requests the run never completed are not in the log.
 */
ReplayResult
replayRouter(const cluster::ClusterSpec &spec, const obs::SpanLog &log,
             const std::vector<serving::Arrival> &arrivals)
{
    struct Ev
    {
        std::int64_t t;
        int settle; ///< 0 = completion (settles first at a tie), 1 = route
        std::size_t replica;
        std::int64_t request;
    };
    std::vector<Ev> evs;
    std::map<std::int64_t, std::int64_t> ends;
    std::map<std::int64_t, std::size_t> lastReplica;
    for (const obs::Span &s : log.spans()) {
        if (s.parent == -1)
            ends[s.request] = s.beginNs + s.durNs;
        else if (s.stage == obs::kSpanRoute && s.replica >= 0) {
            evs.push_back({s.beginNs, 1,
                           static_cast<std::size_t>(s.replica),
                           s.request});
            lastReplica[s.request] = static_cast<std::size_t>(s.replica);
        }
    }
    for (const auto &[request, replica] : lastReplica)
        evs.push_back({ends.at(request), 0, replica, request});
    std::stable_sort(evs.begin(), evs.end(),
                     [](const Ev &a, const Ev &b) {
                         return a.t != b.t ? a.t < b.t
                                           : a.settle < b.settle;
                     });

    cluster::Router router(spec.router,
                           std::vector<double>(spec.replicas.size(), 1.0));
    double overhead = clockOverheadNs();
    double totalNs = 0.0, agree = 0.0, picks = 0.0;
    const std::vector<std::size_t> none;
    for (const Ev &ev : evs) {
        if (ev.settle == 0) {
            router.onSettled(ev.replica);
            continue;
        }
        int session =
            static_cast<std::size_t>(ev.request) < arrivals.size()
            ? arrivals[static_cast<std::size_t>(ev.request)].session
            : 0;
        std::int64_t t0 = nowNs();
        std::size_t chosen = router.pick(session, none);
        std::int64_t t1 = nowNs();
        totalNs += static_cast<double>(t1 - t0) - overhead;
        picks += 1.0;
        agree += chosen == ev.replica ? 1.0 : 0.0;
        router.onDispatch(ev.replica);
    }
    ReplayResult r;
    r.picks = picks;
    r.pickNs = picks > 0 ? totalNs / picks : 0.0;
    r.agree = picks > 0 ? agree / picks : 0.0;
    return r;
}

RunOut
runCluster(const std::string &workload, const Options &opts,
           Tracer *tracer)
{
    RunOut out;
    ClusterCase c = clusterCase(workload, opts.tiny);
    std::vector<double> setupS, wallS, opMs;
    std::vector<double> untracedOpS, tracedOpS;
    double measuredNs = 0.0, offered = 0.0, completed = 0.0;
    LayerSamples layer;

    Schedule schedule(opts);
    while (schedule.next()) {
        Tracer *t = schedule.traced() ? tracer : nullptr;
        std::uint64_t variant =
            (opts.seed + static_cast<std::uint64_t>(schedule.index())) %
            kVariants;
        std::int64_t start = nowNs();
        cluster::ClusterSpec spec;
        cluster::CostCache costs;
        double scenarioNs = 0.0, costNs = 0.0;
        {
            Scope s(t, "scenario.build", &scenarioNs);
            spec = buildSpec(c, variant, c.horizonSec);
        }
        {
            Scope s(t, "serving.cost_model", &costNs);
            costs.build(spec);
        }
        std::int64_t opStart = nowNs();
        ClusterOp op;
        ++out.ops.attempted;
        std::string name = variantName(workload, opts.tiny, variant);
        try {
            op = runClusterOp(spec, costs, c.spansInOp, t);
            recordClusterOp(out.ops, name, op);
        } catch (const std::exception &e) {
            ++out.ops.errors;
            std::printf("error: %s: %s\n", name.c_str(), e.what());
            continue;
        }
        std::int64_t end = nowNs();
        double opS = static_cast<double>(end - opStart) / 1e9;
        if (t == nullptr) {
            setupS.push_back(static_cast<double>(opStart - start) / 1e9);
            wallS.push_back(static_cast<double>(end - start) / 1e9);
            opMs.push_back(opS * 1e3);
            untracedOpS.push_back(opS);
            measuredNs += static_cast<double>(end - opStart);
            offered += static_cast<double>(op.result.offered);
            completed += static_cast<double>(op.result.completed);
            continue;
        }
        tracedOpS.push_back(opS);
        layer["layers.coverage_pct"].push_back(
            100.0 * (scenarioNs + costNs + op.layerNs()) /
            static_cast<double>(end - start));

        // Side measurements of the traced iteration, outside the op.
        layer["scenario.build_ms"].push_back(scenarioNs / 1e6);
        layer["serving.cost_model_ms"].push_back(costNs / 1e6);
        std::vector<serving::Arrival> arrivals;
        {
            double ns = 0.0;
            {
                Scope s(t, "serving.arrivals", &ns);
                arrivals = spec.traffic->generate(spec.horizonSec * 1e9,
                                                  spec.seed);
            }
            layer["serving.arrivals_ms"].push_back(ns / 1e6);
            layer["serving.arrivals"].push_back(
                static_cast<double>(arrivals.size()));
        }

        // Spans-off vs spans-on on one spec: the op's own spec when
        // the op records spans, a shorter horizon otherwise (the span
        // log of a full datacenter run does not fit in memory).
        cluster::ClusterSpec spanSpec = spec;
        std::vector<serving::Arrival> spanArrivals;
        if (!c.spansInOp) {
            spanSpec = buildSpec(c, variant, c.spanHorizonSec);
            spanArrivals = spanSpec.traffic->generate(
                spanSpec.horizonSec * 1e9, spanSpec.seed);
        }
        ClusterOp off = runClusterOp(spanSpec, costs, false, t);
        ClusterOp on;
        if (c.spansInOp)
            on = std::move(op);
        else
            on = runClusterOp(spanSpec, costs, true, t);
        const ClusterOp &main = c.spansInOp ? off : op;
        layer["cluster.simulate_ms"].push_back(main.simulateNs / 1e6);
        layer["core.events"].push_back(
            static_cast<double>(main.stats.events));
        layer["cluster.ns_per_event"].push_back(
            main.simulateNs /
            std::max(1.0, static_cast<double>(main.stats.events)));
        double dispatches = 0.0;
        for (const cluster::ReplicaStats &r : main.result.replicas)
            dispatches += static_cast<double>(r.routed);
        layer["router.dispatches"].push_back(dispatches);
        layer["obs.span_record_ms"].push_back(
            (on.simulateNs - off.simulateNs) / 1e6);
        layer["obs.spans"].push_back(
            static_cast<double>(on.spans->spans().size()));
        layer["obs.span_export_ms"].push_back(on.exportNs / 1e6);
        layer["obs.span_export_bytes"].push_back(
            static_cast<double>(on.spanText.size()));
        layer["obs.attribute_ms"].push_back(on.attributeNs / 1e6);

        ReplayResult replay;
        {
            Scope s(t, "router.replay");
            replay = replayRouter(spanSpec, *on.spans,
                                  c.spansInOp ? arrivals : spanArrivals);
        }
        layer["router.pick_ns"].push_back(replay.pickNs);
        layer["router.replay_agree"].push_back(replay.agree);

        const cluster::KvClusterStats &kv = main.result.kv;
        double hits = static_cast<double>(kv.hitsHbm + kv.hitsHost);
        double lookups = hits + static_cast<double>(kv.misses);
        layer["kv.offloads"].push_back(static_cast<double>(kv.offloads));
        layer["kv.fetches"].push_back(static_cast<double>(kv.fetches));
        layer["kv.hit_ratio"].push_back(lookups > 0 ? hits / lookups
                                                    : 0.0);
        layer["kv.link_busy_ms"].push_back(kv.linkBusyNs / 1e6);
    }

    Metrics &m = out.metrics;
    if (!opts.trace) {
        // The mean, not the median: see README, "Noise on a shared host".
        m.set("wall_s", mean(wallS), "s");
        m.set("setup_s", median(setupS), "s");
        m.set("peak_rss_mib", peakRssMib(), "MiB");
        m.set("ops_per_s", offered / (measuredNs / 1e9), "1/s");
        m.set("op_ms.p99", percentile(opMs, 0.99), "ms");
    } else {
        layer["trace.overhead_pct"].push_back(
            100.0 * (median(tracedOpS) / median(untracedOpS) - 1.0));
        m = layerMetrics(layer);
    }
    out.samples.set("iterations", static_cast<double>(wallS.size()));
    out.samples.set("traced_iterations",
                    static_cast<double>(tracedOpS.size()));
    out.samples.set("op_samples", static_cast<double>(opMs.size()));
    out.samples.set("op_ms_p50", percentile(opMs, 0.50));
    out.samples.set("completed_share",
                    offered > 0 ? completed / offered : 0.0);
    return out;
}

void
emitClusterRefs(const std::string &workload, const Options &opts,
                RunOut &out)
{
    ClusterCase c = clusterCase(workload, opts.tiny);
    for (std::uint64_t v = 0; v < kVariants; ++v) {
        cluster::ClusterSpec spec = buildSpec(c, v, c.horizonSec);
        cluster::CostCache costs;
        costs.build(spec);
        recordClusterOp(out.ops, variantName(workload, opts.tiny, v),
                        runClusterOp(spec, costs, c.spansInOp, nullptr));
    }
}

// ---------------------------------------------------------------------

json::Value
toJson(const RunOut &out)
{
    json::Object metrics;
    for (const auto &[name, vu] : out.metrics.items) {
        json::Object entry;
        entry.set("value", vu.first);
        entry.set("unit", vu.second);
        metrics.set(name, json::Value(std::move(entry)));
    }
    json::Value::Array ops;
    for (const auto &[key, count] : out.ops.counts) {
        json::Value::Array row;
        row.push_back(json::Value(key.first));
        row.push_back(json::Value(key.second));
        row.push_back(json::Value(static_cast<double>(count)));
        ops.push_back(json::Value(std::move(row)));
    }
    json::Object doc;
    doc.set("metrics", json::Value(std::move(metrics)));
    doc.set("attempted", static_cast<double>(out.ops.attempted));
    doc.set("errors", static_cast<double>(out.ops.errors));
    doc.set("ops", json::Value(std::move(ops)));
    doc.set("samples", json::Value(out.samples));
    return json::Value(std::move(doc));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        CliArgs args(argc, argv);
        std::string workload = args.getString("workload", "");
        if (workload != "characterize" && workload != "datacenter" &&
            workload != "traced-sessions")
            fatal("--workload must be characterize, datacenter or "
                  "traced-sessions");
        Options opts;
        opts.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
        opts.seconds = args.getDouble("seconds", 10.0);
        opts.trace = args.getInt("trace", 0) != 0;
        opts.tiny = args.getString("size", "full") == "tiny";
        opts.iterations = args.getInt("iterations", 0);
        if (opts.seconds <= 0)
            fatal("--seconds must be positive");

        RunOut out;
        if (args.getBool("emit-refs")) {
            if (workload == "characterize")
                emitCharacterizeRefs(opts, out);
            else
                emitClusterRefs(workload, opts, out);
        } else {
            Tracer tracer;
            Tracer *t = opts.trace ? &tracer : nullptr;
            out = workload == "characterize"
                ? runCharacterize(opts, t)
                : runCluster(workload, opts, t);
            std::string spanOut = args.getString("span-out", "");
            if (t != nullptr && !spanOut.empty())
                tracer.writeChrome(spanOut);
        }
        std::printf("%s\n", json::write(toJson(out)).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skipbench: %s\n", e.what());
        return 1;
    }
}
