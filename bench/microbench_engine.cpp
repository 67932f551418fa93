/**
 * @file
 * google-benchmark microbenchmarks of the library itself: graph
 * building, simulation, dependency-graph construction, metric
 * computation and chain mining — plus ablations of the design choices
 * called out in DESIGN.md (jitter on/off, greedy chain selection cost
 * vs chain length).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "core/event_queue.hh"
#include "core/sharded_engine.hh"
#include "fusion/proximity.hh"
#include "hw/catalog.hh"
#include "json/value.hh"
#include "obs/span.hh"
#include "scenario/registry.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

workload::OperatorGraph
gpt2Graph(int batch)
{
    workload::BuildOptions opts;
    opts.batch = batch;
    return workload::buildPrefillGraph(workload::gpt2(), opts);
}

void
BM_BuildPrefillGraph(benchmark::State &state)
{
    workload::BuildOptions opts;
    opts.batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto graph =
            workload::buildPrefillGraph(workload::llama32_1b(), opts);
        benchmark::DoNotOptimize(graph.numKernelLaunches());
    }
}
BENCHMARK(BM_BuildPrefillGraph)->Arg(1)->Arg(16);

void
BM_SimulateForward(benchmark::State &state)
{
    auto graph = gpt2Graph(static_cast<int>(state.range(0)));
    sim::Simulator simulator(hw::platforms::gh200());
    for (auto _ : state) {
        auto result = simulator.run(graph);
        benchmark::DoNotOptimize(result.wallNs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numKernelLaunches()));
}
BENCHMARK(BM_SimulateForward)->Arg(1)->Arg(32);

void
BM_SimulateNoJitterAblation(benchmark::State &state)
{
    // Ablation: deterministic mode (jitter off, the default) vs jittered.
    auto graph = gpt2Graph(1);
    sim::SimOptions opts;
    opts.jitter = state.range(0) != 0;
    sim::Simulator simulator(hw::platforms::intelH100(), opts);
    for (auto _ : state) {
        auto result = simulator.run(graph);
        benchmark::DoNotOptimize(result.wallNs);
    }
}
BENCHMARK(BM_SimulateNoJitterAblation)->Arg(0)->Arg(1);

void
BM_DependencyGraphBuild(benchmark::State &state)
{
    auto graph = gpt2Graph(1);
    sim::Simulator simulator(hw::platforms::intelH100());
    auto result = simulator.run(graph);
    for (auto _ : state) {
        auto dep = skip::DependencyGraph::build(result.trace);
        benchmark::DoNotOptimize(dep.kernels().size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_DependencyGraphBuild);

void
BM_ComputeMetrics(benchmark::State &state)
{
    auto graph = gpt2Graph(1);
    sim::Simulator simulator(hw::platforms::intelH100());
    auto result = simulator.run(graph);
    auto dep = skip::DependencyGraph::build(result.trace);
    for (auto _ : state) {
        auto metrics = skip::computeMetrics(dep);
        benchmark::DoNotOptimize(metrics.tklqtNs);
    }
}
BENCHMARK(BM_ComputeMetrics);

void
BM_ProximityAnalyzerBuild(benchmark::State &state)
{
    // Interning plus the suffix and LCP arrays: the per-sequence cost
    // that BM_ChainMining, which times analyze() on a built analyzer,
    // leaves out.
    auto sequence = gpt2Graph(1).kernelSequence();
    for (auto _ : state) {
        fusion::ProximityAnalyzer analyzer(sequence);
        benchmark::DoNotOptimize(analyzer.sequenceLength());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(sequence.size()));
}
BENCHMARK(BM_ProximityAnalyzerBuild);

void
BM_ChainMining(benchmark::State &state)
{
    auto graph = gpt2Graph(1);
    fusion::ProximityAnalyzer analyzer(graph.kernelSequence());
    std::size_t length = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto stats = analyzer.analyze(length);
        benchmark::DoNotOptimize(stats.idealSpeedup);
    }
}
BENCHMARK(BM_ChainMining)->Arg(2)->Arg(16)->Arg(256);

void
BM_EndToEndProfile(benchmark::State &state)
{
    for (auto _ : state) {
        auto graph = gpt2Graph(4);
        sim::Simulator simulator(hw::platforms::gh200());
        auto result = simulator.run(graph);
        auto dep = skip::DependencyGraph::build(std::move(result.trace));
        auto metrics = skip::computeMetrics(dep);
        benchmark::DoNotOptimize(metrics.ilNs);
    }
}
BENCHMARK(BM_EndToEndProfile);

void
BM_ValidateTrace(benchmark::State &state)
{
    // Cost of the full semantic invariant sweep (causality, stream
    // FIFO, correlation bijection, queue depth) over a real prefill
    // trace — the price every golden test and fuzz case now pays.
    auto graph = gpt2Graph(static_cast<int>(state.range(0)));
    sim::Simulator simulator(hw::platforms::gh200());
    auto result = simulator.run(graph);
    for (auto _ : state) {
        auto report = check::validateTrace(result.trace);
        benchmark::DoNotOptimize(report.violations.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_ValidateTrace)->Arg(1)->Arg(32);

void
BM_EventQueueThroughput(benchmark::State &state)
{
    // Throughput of the core event queue every simulation path now
    // runs on: push N events with random timestamps and mixed
    // priorities, then drain. Timestamps are pre-generated so the
    // measurement is the heap, not the PRNG.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    std::vector<double> times(n);
    std::vector<int> prios(n);
    for (std::size_t i = 0; i < n; ++i) {
        times[i] = rng.uniform(0.0, 1e9);
        prios[i] = static_cast<int>(rng.below(4));
    }
    for (auto _ : state) {
        core::EventQueue queue;
        for (std::size_t i = 0; i < n; ++i)
            queue.schedule(times[i], prios[i], nullptr);
        while (!queue.empty()) {
            core::Event ev = queue.pop();
            benchmark::DoNotOptimize(ev.timeNs);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueThroughput)
    ->Arg(1 << 14)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineEventChurn(benchmark::State &state)
{
    // Engine run-loop overhead under self-rescheduling handlers — the
    // access pattern of the ported serving/cluster engines (each
    // iteration-end event schedules the next).
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        core::Engine engine;
        int remaining = n;
        std::function<void(double)> step = [&](double) {
            if (--remaining > 0)
                engine.after(1.0, 0, step);
        };
        engine.at(0.0, 0, step);
        engine.run();
        benchmark::DoNotOptimize(engine.processed());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineEventChurn)->Arg(1 << 16);

void
BM_RouterPick(benchmark::State &state)
{
    // One least-outstanding dispatch cycle per item on an Arg-replica
    // fleet: pick, dispatch to the pick, settle a random in-flight
    // request. Two requests per replica stay in flight, so loads sit
    // close together and ties are common, as in a balanced fleet.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    cluster::Router router(cluster::RouterPolicy::LeastOutstanding,
                           std::vector<double>(n, 1.0));
    std::vector<std::size_t> inflight;
    for (std::size_t i = 0; i < 2 * n; ++i) {
        inflight.push_back(i % n);
        router.onDispatch(i % n);
    }
    Rng rng(42);
    std::vector<std::size_t> victims(1 << 16);
    for (std::size_t &v : victims)
        v = static_cast<std::size_t>(rng.below(inflight.size()));
    const std::vector<std::size_t> none;
    std::size_t step = 0;
    for (auto _ : state) {
        std::size_t r = router.pick(0, none);
        benchmark::DoNotOptimize(r);
        router.onDispatch(r);
        std::size_t &slot =
            inflight[victims[step++ & (victims.size() - 1)]];
        router.onSettled(slot);
        slot = r;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RouterPick)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_ClusterSpanOverhead(benchmark::State &state)
{
    // Cost of per-request lifecycle span recording (obs::SpanLog) on
    // a full cluster simulation: Arg(0) = spans disabled (the price
    // every plain run pays, which must stay ~free), Arg(1) = spans
    // recorded and sealed. CI compares the two rows to bound the
    // disabled-path overhead.
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::gh200();
    replica.maxActive = 16;
    spec.replicas.assign(2, replica);
    spec.arrivalRatePerSec = 80.0;
    spec.horizonSec = 2.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    spec.sessions = 16;
    cluster::CostCache costs;
    costs.build(spec);
    const bool with_spans = state.range(0) != 0;
    std::size_t sealed = 0;
    for (auto _ : state) {
        obs::SpanLog spans;
        auto result = cluster::simulateCluster(
            spec, costs, nullptr, with_spans ? &spans : nullptr);
        benchmark::DoNotOptimize(result.completed);
        sealed = spans.spans().size();
        benchmark::DoNotOptimize(sealed);
    }
    state.counters["spans"] = static_cast<double>(sealed);
}
BENCHMARK(BM_ClusterSpanOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_ClusterEventLoop(benchmark::State &state)
{
    // The cluster engine's event loop at fleet scale: a spans-off
    // datacenter scenario, 256 replicas over 1 s (~7.7K requests,
    // ~31K events). Arrivals stream one pending event at a time and
    // the per-event path does not allocate, so events/s here tracks
    // the pending-set and handler cost per event; pre-seeding every
    // arrival or allocating per event shows up as a drop.
    json::Object params;
    params.set("replicas", 256);
    params.set("horizon-sec", 1.0);
    params.set("gen-tokens", 8);
    params.set("seed", 1);
    cluster::ClusterSpec spec =
        scenario::buildScenario("datacenter", params);
    cluster::CostCache costs;
    costs.build(spec);
    std::uint64_t events = 0;
    std::size_t requests = 0;
    for (auto _ : state) {
        core::ShardStats stats;
        cluster::ClusterResult result = cluster::simulateCluster(
            spec, costs, nullptr, nullptr, &stats);
        events = stats.events;
        requests = result.offered;
        benchmark::DoNotOptimize(result.completed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * requests));
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterEventLoop)->Unit(benchmark::kMillisecond);

void
BM_SpanExport(benchmark::State &state)
{
    // Chrome export of a recorded kv_offload span log (what `skipctl
    // run --span-out` pays after the simulation). The export streams
    // each span straight into one string; building a JSON document
    // per span first cost ~30x more here.
    json::Object params;
    params.set("seed", 1);
    cluster::ClusterSpec spec =
        scenario::buildScenario("kv_offload", params);
    obs::SpanLog spans;
    cluster::simulateCluster(spec, nullptr, &spans);
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::string text = spans.toChromeText();
        bytes = text.size();
        benchmark::DoNotOptimize(text.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * bytes));
    state.counters["spans"] = static_cast<double>(spans.spans().size());
}
BENCHMARK(BM_SpanExport)->Unit(benchmark::kMillisecond);

} // namespace

// google-benchmark rejects flags it does not recognize, so a custom
// main translates the repo-wide --quick convention (see the ext_*
// drivers) into a filter + short measurement budget for CI: the
// event-queue, router, cluster event-loop, span-overhead and
// span-export rows plus the SKIP analysis rows (dependency graph,
// metrics, analyzer build, chain mining), enough to catch gross
// regressions such as a return to linear id lookups, pre-seeded
// arrivals, per-event allocation or a per-span JSON
// document in the span export.
int
main(int argc, char **argv)
{
    std::vector<char *> args;
    bool quick = false;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            args.push_back(argv[i]);
    }
    static std::string filter =
        "--benchmark_filter=BM_EventQueueThroughput|"
        "BM_RouterPick|BM_ClusterEventLoop|"
        "BM_ClusterSpanOverhead|BM_SpanExport|"
        "BM_DependencyGraphBuild|BM_ComputeMetrics|"
        "BM_ProximityAnalyzerBuild|BM_ChainMining";
    static std::string min_time = "--benchmark_min_time=0.05";
    if (quick) {
        args.push_back(filter.data());
        args.push_back(min_time.data());
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
