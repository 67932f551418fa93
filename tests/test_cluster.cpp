/**
 * @file
 * Cluster simulator tests: router policy behavior, spec validation and
 * JSON round trips, the determinism contract (byte-identical reports
 * at any worker count, including the report/obs/span matrix), KV-cache
 * admission control, staged-dispatch lane contention, the
 * fault-injection envelope (a crashed replica degrades the tail but
 * the router re-routes and most of the work still completes), and the
 * removed execution options failing loudly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/sharded_engine.hh"
#include "exec/pool.hh"
#include "exec/registry.hh"
#include "exec/run_spec.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "kv/tier.hh"
#include "obs/collector.hh"
#include "obs/span.hh"
#include "workload/memory.hh"
#include "workload/model_config.hh"

#include "golden.hh"

using namespace skipsim;

namespace
{

/** A small, fast-to-simulate baseline scenario. */
cluster::ClusterSpec
smallSpec(int replicas = 2)
{
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::byName("GH200");
    replica.maxActive = 16;
    spec.replicas.assign(static_cast<std::size_t>(replicas), replica);
    spec.arrivalRatePerSec = 60.0;
    spec.horizonSec = 3.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    spec.sessions = 16;
    return spec;
}

std::string
reportText(const cluster::ClusterResult &result)
{
    return json::write(result.toJson());
}

} // namespace

// ---------------------------------------------------------------------
// Router policies
// ---------------------------------------------------------------------

TEST(Router, RoundRobinCyclesAndSkipsDownReplicas)
{
    cluster::Router router(cluster::RouterPolicy::RoundRobin,
                           {1.0, 1.0, 1.0});
    EXPECT_EQ(router.pick(0, {}), 0u);
    EXPECT_EQ(router.pick(0, {}), 1u);
    EXPECT_EQ(router.pick(0, {}), 2u);
    EXPECT_EQ(router.pick(0, {}), 0u);
    router.markDown(1);
    EXPECT_EQ(router.pick(0, {}), 2u);
    EXPECT_EQ(router.pick(0, {}), 0u);
    EXPECT_EQ(router.pick(0, {}), 2u);
}

TEST(Router, LeastOutstandingPicksArgminWithLowIndexTies)
{
    cluster::Router router(cluster::RouterPolicy::LeastOutstanding,
                           {1.0, 1.0, 1.0});
    EXPECT_EQ(router.pick(0, {}), 0u); // all zero: lowest index
    router.onDispatch(0);
    router.onDispatch(0);
    router.onDispatch(1);
    EXPECT_EQ(router.pick(0, {}), 2u);
    router.onDispatch(2);
    EXPECT_EQ(router.pick(0, {}), 1u);
    router.onSettled(0);
    router.onSettled(0);
    EXPECT_EQ(router.pick(0, {}), 0u);
}

TEST(Router, WeightedThroughputNormalizesByCapacity)
{
    // Replica 1 has 4x the capacity: with 2 vs 1 outstanding the
    // weighted load is 2/1 vs 1/4, so the big replica still wins.
    cluster::Router router(cluster::RouterPolicy::WeightedThroughput,
                           {1.0, 4.0});
    router.onDispatch(0);
    router.onDispatch(0);
    router.onDispatch(1);
    EXPECT_EQ(router.pick(0, {}), 1u);
}

TEST(Router, AffinityPinsSessionsAndFallsBackWhenHomeIsDown)
{
    cluster::Router router(cluster::RouterPolicy::SessionAffinity,
                           {1.0, 1.0, 1.0});
    EXPECT_EQ(router.pick(4, {}), 1u); // 4 % 3
    EXPECT_EQ(router.pick(4, {}), 1u); // sticky
    router.markDown(1);
    std::size_t fallback = router.pick(4, {});
    EXPECT_NE(fallback, 1u);
    EXPECT_NE(fallback, cluster::Router::npos());
    router.markUp(1);
    EXPECT_EQ(router.pick(4, {}), 1u);
}

TEST(Router, NoEligibleReplicaReturnsNpos)
{
    cluster::Router router(cluster::RouterPolicy::LeastOutstanding,
                           {1.0, 1.0});
    router.markDown(0);
    EXPECT_EQ(router.pick(0, {1}), cluster::Router::npos());
    EXPECT_THROW(cluster::Router(cluster::RouterPolicy::RoundRobin, {}),
                 FatalError);
    EXPECT_THROW(cluster::Router(cluster::RouterPolicy::RoundRobin,
                                 {1.0, 0.0}),
                 FatalError);
    EXPECT_THROW(cluster::Router(cluster::RouterPolicy::LeastOutstanding,
                                 {1.0, std::nan("")}),
                 FatalError);
}

namespace
{

/**
 * Reference router: the linear scan the indexed router replaced.
 * Same feedback, same policies, O(replicas) per least-loaded pick.
 */
struct ScanRouter
{
    cluster::RouterPolicy policy;
    std::vector<double> weights;
    std::vector<unsigned> classes;
    std::vector<std::size_t> outstanding;
    std::vector<bool> down;
    std::size_t rrCursor = 0;

    ScanRouter(cluster::RouterPolicy p, std::vector<double> w)
        : policy(p), weights(std::move(w)),
          outstanding(weights.size(), 0), down(weights.size(), false)
    {
    }

    bool eligible(std::size_t r, const std::vector<std::size_t> &exclude,
                  unsigned klass) const
    {
        if (down[r])
            return false;
        if (klass != cluster::kAnyClass && !classes.empty() &&
            (classes[r] & klass) == 0)
            return false;
        return std::find(exclude.begin(), exclude.end(), r) ==
            exclude.end();
    }

    std::size_t leastLoaded(const std::vector<std::size_t> &exclude,
                            bool weighted, unsigned klass) const
    {
        std::size_t best = cluster::Router::npos();
        double best_load = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < weights.size(); ++r) {
            if (!eligible(r, exclude, klass))
                continue;
            double load = static_cast<double>(outstanding[r]);
            if (weighted)
                load /= weights[r];
            if (load < best_load) {
                best_load = load;
                best = r;
            }
        }
        return best;
    }

    std::size_t pick(int session, const std::vector<std::size_t> &exclude,
                     unsigned klass)
    {
        std::size_t n = weights.size();
        switch (policy) {
        case cluster::RouterPolicy::RoundRobin:
            for (std::size_t step = 0; step < n; ++step) {
                std::size_t r = (rrCursor + step) % n;
                if (eligible(r, exclude, klass)) {
                    rrCursor = (r + 1) % n;
                    return r;
                }
            }
            return cluster::Router::npos();
        case cluster::RouterPolicy::LeastOutstanding:
            return leastLoaded(exclude, false, klass);
        case cluster::RouterPolicy::WeightedThroughput:
            return leastLoaded(exclude, true, klass);
        case cluster::RouterPolicy::SessionAffinity: {
            std::size_t home = static_cast<std::size_t>(session) % n;
            if (eligible(home, exclude, klass))
                return home;
            return leastLoaded(exclude, false, klass);
        }
        }
        return cluster::Router::npos();
    }
};

/** Random per-replica class masks: prefill, decode or mixed. */
std::vector<unsigned>
randomClasses(Rng &rng, std::size_t n)
{
    const unsigned masks[] = {cluster::kPrefillClass, cluster::kDecodeClass,
                              cluster::kPrefillClass |
                                  cluster::kDecodeClass};
    std::vector<unsigned> classes(n);
    for (unsigned &c : classes)
        c = masks[rng.below(3)];
    return classes;
}

/**
 * Drive the router and the scan oracle through the same random
 * feedback/pick sequence and require every pick to agree.
 */
void
checkAgainstScan(cluster::RouterPolicy policy, std::size_t n,
                 bool disagg, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    // Weights spread over ~8 decades; integral weights on some fleets
    // so weighted loads tie exactly.
    bool integral = rng.below(2) == 0;
    std::vector<double> weights(n);
    for (double &w : weights)
        w = integral ? static_cast<double>(1 + rng.below(4))
                     : std::exp(rng.uniform(-9.0, 9.0));
    cluster::Router router(policy, weights);
    ScanRouter oracle(policy, weights);
    if (disagg) {
        oracle.classes = randomClasses(rng, n);
        router.setClasses(oracle.classes);
    }
    const unsigned klasses[] = {cluster::kAnyClass, cluster::kPrefillClass,
                                cluster::kDecodeClass,
                                cluster::kPrefillClass |
                                    cluster::kDecodeClass};
    std::vector<std::size_t> exclude;
    for (int step = 0; step < steps; ++step) {
        if (disagg && step == steps / 2) {
            oracle.classes = randomClasses(rng, n);
            router.setClasses(oracle.classes);
        }
        std::size_t r = static_cast<std::size_t>(rng.below(n));
        std::uint64_t op = rng.below(100);
        if (op < 30) {
            router.onDispatch(r);
            ++oracle.outstanding[r];
        } else if (op < 55) {
            if (oracle.outstanding[r] > 0) {
                router.onSettled(r);
                --oracle.outstanding[r];
            }
        } else if (op < 60) {
            router.markDown(r);
            oracle.down[r] = true;
        } else if (op < 68) {
            router.markUp(r);
            oracle.down[r] = false;
        } else {
            exclude.clear();
            std::uint64_t shape = rng.below(200);
            if (shape == 0) {
                for (std::size_t e = 0; e < n; ++e)
                    exclude.push_back(e);
            } else if (shape < 100) {
                std::uint64_t k = rng.below(6);
                for (std::uint64_t e = 0; e < k; ++e) {
                    std::size_t victim = static_cast<std::size_t>(
                        rng.below(n));
                    // Duplicates on purpose: a replica listed twice.
                    if (!exclude.empty() && rng.below(2) == 0)
                        victim = exclude[rng.below(exclude.size())];
                    exclude.push_back(victim);
                }
            }
            unsigned klass =
                disagg ? klasses[rng.below(4)] : cluster::kAnyClass;
            int session = static_cast<int>(rng.below(4 * n));
            std::size_t want = oracle.pick(session, exclude, klass);
            std::size_t got = router.pick(session, exclude, klass);
            ASSERT_EQ(got, want)
                << cluster::routerPolicyName(policy) << " n=" << n
                << " disagg=" << disagg << " seed=" << seed
                << " step=" << step << " klass=" << klass
                << " exclude=" << exclude.size();
            // Route the request like the simulator does, so loads
            // stay close together and ties are common.
            if (got != cluster::Router::npos() && rng.below(2) == 0) {
                router.onDispatch(got);
                ++oracle.outstanding[got];
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(router.outstanding(i), oracle.outstanding[i]);
        ASSERT_EQ(router.isDown(i), static_cast<bool>(oracle.down[i]));
    }
}

} // namespace

TEST(Router, IndexedPickMatchesLinearScanOracle)
{
    const cluster::RouterPolicy policies[] = {
        cluster::RouterPolicy::RoundRobin,
        cluster::RouterPolicy::LeastOutstanding,
        cluster::RouterPolicy::WeightedThroughput,
        cluster::RouterPolicy::SessionAffinity,
    };
    for (cluster::RouterPolicy policy : policies)
        for (std::size_t n : {1u, 3u, 1000u, 1024u, 1025u})
            for (bool disagg : {false, true})
                for (std::uint64_t seed : {1u, 2u, 3u}) {
                    checkAgainstScan(policy, n, disagg,
                                     seed * 7919 + n, 10000);
                    if (HasFatalFailure())
                        return;
                }
}

TEST(Router, PolicyNamesRoundTrip)
{
    for (const std::string &name : cluster::routerPolicyNames())
        EXPECT_STREQ(cluster::routerPolicyName(
                         cluster::routerPolicyByName(name)),
                     name.c_str());
    EXPECT_THROW(cluster::routerPolicyByName("bogus"), FatalError);
}

// ---------------------------------------------------------------------
// Spec validation and serialization
// ---------------------------------------------------------------------

TEST(ClusterSpec, ValidateRejectsInconsistentSpecs)
{
    EXPECT_NO_THROW(smallSpec().validate());

    cluster::ClusterSpec no_replicas = smallSpec();
    no_replicas.replicas.clear();
    EXPECT_THROW(no_replicas.validate(), FatalError);

    cluster::ClusterSpec bad_rate = smallSpec();
    bad_rate.arrivalRatePerSec = 0.0;
    EXPECT_THROW(bad_rate.validate(), FatalError);

    cluster::ClusterSpec bad_fault = smallSpec();
    cluster::FaultSpec fault;
    fault.replica = 99;
    bad_fault.faults.push_back(fault);
    EXPECT_THROW(bad_fault.validate(), FatalError);

    cluster::ClusterSpec bad_dispatch = smallSpec();
    bad_dispatch.dispatchUs = -1.0;
    EXPECT_THROW(bad_dispatch.validate(), FatalError);
}

TEST(ClusterSpec, JsonRoundTripIsByteIdentical)
{
    cluster::ClusterSpec spec = smallSpec(3);
    spec.router = cluster::RouterPolicy::SessionAffinity;
    spec.rates = {20.0, 40.0};
    spec.jitterFrac = 0.1;
    cluster::FaultSpec fault;
    fault.atSec = 1.0;
    fault.replica = 2;
    fault.kind = cluster::FaultKind::Partition;
    fault.healSec = 2.0;
    spec.faults.push_back(fault);

    cluster::ClusterSpec back =
        cluster::ClusterSpec::fromJson(spec.toJson());
    EXPECT_EQ(json::write(spec.toJson()), json::write(back.toJson()));
}

TEST(ClusterSpec, DispatchKnobsRoundTripAndStaySilentByDefault)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.dispatchUs = 5.0;
    spec.stagedDispatch = true;
    std::string text = json::write(spec.toJson());
    EXPECT_NE(text.find("dispatch-us"), std::string::npos);
    EXPECT_NE(text.find("staged-dispatch"), std::string::npos);
    cluster::ClusterSpec back =
        cluster::ClusterSpec::fromJson(spec.toJson());
    EXPECT_DOUBLE_EQ(back.dispatchUs, 5.0);
    EXPECT_TRUE(back.stagedDispatch);

    // Defaults stay silent: a default spec mentions neither knob.
    std::string plain = json::write(smallSpec().toJson());
    EXPECT_EQ(plain.find("dispatch-us"), std::string::npos);
    EXPECT_EQ(plain.find("staged-dispatch"), std::string::npos);
}

TEST(ClusterSpec, ReplicaCountFieldStampsIdenticalReplicas)
{
    json::Value doc = json::parse(R"({
        "replicas": [{"platform": "GH200", "max-active": 8,
                      "count": 3},
                     {"platform": "MI300A"}]
    })");
    cluster::ClusterSpec spec = cluster::ClusterSpec::fromJson(doc);
    ASSERT_EQ(spec.replicas.size(), 4u);
    EXPECT_EQ(spec.replicas[0].platform.name, "GH200");
    EXPECT_EQ(spec.replicas[2].maxActive, 8);
    EXPECT_EQ(spec.replicas[3].platform.name, "MI300A");
}

TEST(ClusterSpec, ScenarioExpansionFollowsSweepSeedDiscipline)
{
    cluster::ClusterSpec spec = smallSpec();
    EXPECT_EQ(spec.scenarioCount(), 1u);
    spec.rates = {10.0, 20.0, 30.0};
    EXPECT_EQ(spec.scenarioCount(), 3u);

    cluster::ClusterSpec second = spec.scenarioAt(1);
    EXPECT_DOUBLE_EQ(second.arrivalRatePerSec, 20.0);
    EXPECT_TRUE(second.rates.empty());
    EXPECT_EQ(second.seed, mixSeed(spec.seed, 1));
    EXPECT_THROW(spec.scenarioAt(3), FatalError);
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

TEST(ClusterSim, RepeatedRunsAreByteIdentical)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.jitterFrac = 0.05; // jitter must be seeded, not wall-clock
    std::string first = reportText(cluster::simulateCluster(spec));
    std::string second = reportText(cluster::simulateCluster(spec));
    EXPECT_EQ(first, second);
}

TEST(ClusterSim, RateSweepIsByteIdenticalAtAnyWorkerCount)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.rates = {20.0, 40.0, 60.0, 80.0};

    cluster::CostCache costs;
    costs.build(spec);

    auto sweep = [&](int workers) {
        std::vector<std::string> out(spec.scenarioCount());
        exec::Pool pool(workers);
        pool.run(out.size(), [&](std::size_t i) {
            out[i] = reportText(
                cluster::simulateCluster(spec.scenarioAt(i), costs));
        });
        return out;
    };
    EXPECT_EQ(sweep(1), sweep(4));
}

TEST(ClusterSim, SimulateRejectsUnexpandedSweeps)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.rates = {10.0, 20.0};
    EXPECT_THROW(cluster::simulateCluster(spec), FatalError);
}

namespace
{

/**
 * Test-local traffic: waves of requests that share one arrival
 * instant. Arrival events then collide on time, so the engine's
 * equal-time rule alone decides the route order.
 */
class BurstProcess final : public serving::ArrivalProcess
{
  public:
    const char *kind() const override { return "burst"; }

    std::vector<serving::Arrival>
    generate(double horizonNs, std::uint64_t) const override
    {
        std::vector<serving::Arrival> out;
        for (int wave = 0; wave < 4; ++wave) {
            const double t = horizonNs * 0.1 * wave;
            for (int i = 0; i < 14 + 4 * wave; ++i) {
                serving::Arrival arr;
                arr.timeNs = t;
                arr.session = (wave * 7 + i) % 5;
                arr.cachedFrac = i % 3 == 0 ? 0.5 : 0.0;
                out.push_back(arr);
            }
        }
        return out;
    }

    double meanRatePerSec() const override { return 160.0; }
    void validate() const override {}

    json::Value
    toJson() const override
    {
        json::Object doc;
        doc.set("kind", "burst");
        return json::Value(std::move(doc));
    }
};

} // namespace

/**
 * Pins the report and span bytes of equal-timestamp arrival bursts
 * (routing latency on, a crash landing on a burst instant, a bounded
 * queue that rejects): requests arriving together must route in id
 * order, however the engine posts their arrival events.
 */
TEST(ClusterSim, BurstArrivalsRouteInIdOrderGolden)
{
    cluster::ClusterSpec spec = smallSpec(3);
    spec.traffic = std::make_shared<BurstProcess>();
    spec.horizonSec = 0.5;
    spec.genTokens = 4;
    spec.dispatchUs = 5.0;
    for (cluster::ReplicaSpec &rep : spec.replicas)
        rep.maxActive = 4;
    spec.replicas[1].maxQueue = 3;
    cluster::FaultSpec crash;
    crash.atSec = 0.1;
    crash.replica = 2;
    crash.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(crash);
    spec.detectDelaySec = 0.02;

    obs::SpanLog spans;
    const std::string report =
        reportText(cluster::simulateCluster(spec, nullptr, &spans));
    golden::checkGolden("golden_burst_arrivals.json",
                        report + "\n" + spans.toChromeText() + "\n");
}

// ---------------------------------------------------------------------
// Cluster behavior
// ---------------------------------------------------------------------

TEST(ClusterSim, HealthyClusterCompletesNearlyAllOfferedLoad)
{
    cluster::ClusterResult result =
        cluster::simulateCluster(smallSpec());
    EXPECT_GT(result.offered, 100u);
    // Only the end-of-horizon tail may be unfinished.
    EXPECT_GE(result.completed + result.lost, result.offered);
    EXPECT_GT(static_cast<double>(result.completed),
              0.9 * static_cast<double>(result.offered));
    EXPECT_EQ(result.rerouted, 0u);
    EXPECT_GT(result.p50TtftNs, 0.0);
    EXPECT_LE(result.p50TtftNs, result.p95TtftNs);
    EXPECT_LE(result.p95TtftNs, result.p99TtftNs);
    EXPECT_LE(result.p50E2eNs, result.p99E2eNs);
    EXPECT_GT(result.sloAttainment, 0.8);
    ASSERT_EQ(result.replicas.size(), 2u);
    for (const cluster::ReplicaStats &rep : result.replicas) {
        EXPECT_FALSE(rep.crashed);
        EXPECT_GT(rep.utilization, 0.0);
        EXPECT_LE(rep.utilization, 1.0);
        EXPECT_GT(rep.peakKvBytes, 0.0);
    }
}

TEST(ClusterSim, CrashMidHorizonDegradesTailButReroutesInFlight)
{
    cluster::ClusterSpec healthy = smallSpec(4);
    healthy.arrivalRatePerSec = 120.0;
    healthy.horizonSec = 4.0;

    cluster::ClusterSpec faulted = healthy;
    cluster::FaultSpec crash;
    crash.atSec = 2.0;
    crash.replica = 1;
    crash.kind = cluster::FaultKind::Crash;
    faulted.faults.push_back(crash);

    cluster::CostCache costs;
    costs.build(healthy);
    cluster::ClusterResult base =
        cluster::simulateCluster(healthy, costs);
    cluster::ClusterResult hit =
        cluster::simulateCluster(faulted, costs);

    // Same seed, same arrivals: the fault only changes service.
    EXPECT_EQ(base.offered, hit.offered);
    EXPECT_TRUE(hit.replicas[1].crashed);
    EXPECT_GT(hit.rerouted, 0u);
    EXPECT_GT(hit.replicas[1].rerouted, 0u);
    // The tail pays for the detection delay...
    EXPECT_GT(hit.p99TtftNs, base.p99TtftNs);
    EXPECT_LT(hit.sloAttainment, base.sloAttainment);
    // ...but the router re-routes, so most work still completes.
    EXPECT_GT(static_cast<double>(hit.completed),
              0.75 * static_cast<double>(base.completed));
    // A dead replica stops accruing busy time.
    EXPECT_LT(hit.replicas[1].utilization,
              base.replicas[1].utilization);
}

TEST(ClusterSim, PartitionHealsAndLimboRequestsComplete)
{
    cluster::ClusterSpec spec = smallSpec(2);
    cluster::FaultSpec part;
    part.atSec = 1.0;
    part.replica = 0;
    part.kind = cluster::FaultKind::Partition;
    part.healSec = 2.0;
    spec.faults.push_back(part);

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    EXPECT_FALSE(result.replicas[0].crashed);
    // The partitioned replica comes back and keeps serving.
    EXPECT_GT(result.replicas[0].completed, 0u);
    EXPECT_GT(static_cast<double>(result.completed),
              0.8 * static_cast<double>(result.offered));
}

TEST(ClusterSim, SlowdownFaultShiftsLoadAwayUnderLeastOutstanding)
{
    cluster::ClusterSpec spec = smallSpec(2);
    spec.router = cluster::RouterPolicy::LeastOutstanding;
    cluster::FaultSpec slow;
    slow.atSec = 0.5;
    slow.replica = 0;
    slow.kind = cluster::FaultKind::Slowdown;
    slow.factor = 4.0;
    spec.faults.push_back(slow);

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    // The slow replica's queue backs up, so LOR routes around it.
    EXPECT_LT(result.replicas[0].completed,
              result.replicas[1].completed);
}

TEST(ClusterSim, AffinityConcentratesASingleSession)
{
    cluster::ClusterSpec spec = smallSpec(4);
    spec.router = cluster::RouterPolicy::SessionAffinity;
    spec.sessions = 1; // every request shares one session id
    spec.arrivalRatePerSec = 30.0;

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    std::size_t max_routed = 0;
    for (const cluster::ReplicaStats &rep : result.replicas)
        max_routed = std::max(max_routed, rep.routed);
    // The home replica takes everything the admission loop lets it.
    EXPECT_GT(static_cast<double>(max_routed),
              0.9 * static_cast<double>(result.offered));
}

TEST(ClusterSim, RoundRobinSpreadsLoadEvenly)
{
    cluster::ClusterSpec spec = smallSpec(4);
    spec.router = cluster::RouterPolicy::RoundRobin;
    cluster::ClusterResult result = cluster::simulateCluster(spec);
    std::size_t lo = result.offered, hi = 0;
    for (const cluster::ReplicaStats &rep : result.replicas) {
        lo = std::min(lo, rep.routed);
        hi = std::max(hi, rep.routed);
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterSim, WeightedRoutingFavorsTheFasterReplica)
{
    cluster::ClusterSpec spec = smallSpec(2);
    spec.router = cluster::RouterPolicy::WeightedThroughput;
    spec.replicas[1].clock = 0.25; // one permanently degraded instance
    spec.arrivalRatePerSec = 80.0;

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    EXPECT_GT(result.replicas[0].routed, result.replicas[1].routed);
}

TEST(ClusterSim, KvCacheCapacityBoundsAdmission)
{
    cluster::ClusterSpec spec = smallSpec(1);
    spec.replicas[0].maxActive = 64;
    // Shrink HBM until only ~4 KV allocations fit beyond the
    // simulator's weights + max-batch-activations reservation.
    workload::MemoryFootprint one = workload::estimateMemory(
        spec.model, 1, spec.promptLen + spec.genTokens);
    workload::MemoryFootprint at_cap = workload::estimateMemory(
        spec.model, spec.replicas[0].maxActive, spec.promptLen);
    spec.replicas[0].platform.gpu.hbmCapacityGiB =
        (at_cap.weightsBytes + at_cap.activationBytes +
         4.5 * one.kvCacheBytes) /
        (1024.0 * 1024.0 * 1024.0);

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    EXPECT_GT(result.replicas[0].peakKvBytes, 0.0);
    // Despite maxActive=64, KV memory admits only ~4 sequences.
    EXPECT_LE(result.replicas[0].peakKvBytes,
              4.5 * one.kvCacheBytes);
    EXPECT_LT(result.replicas[0].meanActive, 5.0);
}

// ---------------------------------------------------------------------
// exec registry integration
// ---------------------------------------------------------------------

TEST(ClusterAnalysis, RegisteredAndReportsClusterMetrics)
{
    ASSERT_TRUE(exec::hasAnalysis("cluster"));
    exec::RunSpec spec = exec::RunSpec::of("GPT2")
                             .on("GH200")
                             .seqLen(128)
                             .opt("replicas", 2)
                             .opt("rate", 40.0)
                             .opt("horizon-sec", 2.0)
                             .opt("max-active", 16)
                             .opt("gen-tokens", 4);
    json::Value doc = exec::analysisByName("cluster")(spec);
    const json::Object &obj = doc.asObject();
    EXPECT_EQ(obj.at("replica_count").asInt(), 2);
    EXPECT_EQ(obj.at("router").asString(), "least-outstanding");
    EXPECT_GT(obj.at("completed").asInt(), 0);
    EXPECT_GT(obj.at("slo_attainment").asDouble(), 0.0);
    EXPECT_TRUE(obj.has("goodput_rps"));
    EXPECT_EQ(obj.at("replicas").asArray().size(), 2u);
}

TEST(ClusterAnalysis, CostCacheRefusesMismatchedSpecs)
{
    cluster::ClusterSpec spec = smallSpec();
    cluster::CostCache costs;
    costs.build(spec);
    EXPECT_NO_THROW(costs.build(spec)); // idempotent
    cluster::ClusterSpec other = spec;
    other.promptLen = 256;
    EXPECT_THROW(costs.build(other), FatalError);
    EXPECT_THROW(costs.get("not-a-platform"), FatalError);
}

// ---------------------------------------------------------------------
// Jobs matrix: report, obs and span bytes at any worker count
// ---------------------------------------------------------------------

namespace
{

/**
 * The adversarial spec for the jobs matrix: a disaggregated
 * prefill/decode fleet on a PCIe platform (staging lanes live), an
 * explicit dispatch hop, staged dispatch, a mid-run crash, and a
 * two-point rate sweep so --jobs has something to fan across.
 */
cluster::ClusterSpec
matrixSpec()
{
    cluster::ClusterSpec spec;
    spec.model = workload::gpt2();
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::intelH100();
    replica.maxActive = 8;
    replica.role = cluster::ReplicaRole::Prefill;
    spec.replicas.push_back(replica);
    replica.role = cluster::ReplicaRole::Decode;
    spec.replicas.push_back(replica);
    spec.replicas.push_back(replica);
    spec.replicas.push_back(replica);
    spec.rates = {30.0, 60.0};
    spec.arrivalRatePerSec = 30.0;
    spec.horizonSec = 3.0;
    spec.promptLen = 64;
    spec.genTokens = 8;
    spec.sessions = 32;
    spec.dispatchUs = 5.0;
    spec.stagedDispatch = true;
    spec.seed = 7;
    cluster::FaultSpec fault;
    fault.atSec = 1.5;
    fault.replica = 2;
    fault.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(fault);
    return spec;
}

} // namespace

TEST(ClusterMatrix, ReportObsSpansIdenticalAcrossJobs)
{
    cluster::ClusterSpec spec = matrixSpec();
    cluster::CostCache costs;
    costs.build(spec);

    std::string reference;
    for (int jobs : {1, 8}) {
        std::size_t n = spec.scenarioCount();
        ASSERT_EQ(n, 2u);
        std::vector<cluster::ClusterResult> results(n);
        std::vector<std::unique_ptr<obs::Collector>> collectors(n);
        std::vector<std::unique_ptr<obs::SpanLog>> spans(n);
        std::vector<core::ShardStats> stats(n);
        for (std::size_t i = 0; i < n; ++i) {
            collectors[i] = std::make_unique<obs::Collector>(50.0);
            spans[i] = std::make_unique<obs::SpanLog>();
        }
        exec::Pool pool(jobs);
        pool.run(n, [&](std::size_t i) {
            results[i] = cluster::simulateCluster(
                spec.scenarioAt(i), costs, collectors[i].get(),
                spans[i].get(), &stats[i]);
        });
        std::string doc;
        for (std::size_t i = 0; i < n; ++i) {
            doc += json::write(results[i].toJson());
            doc += json::write(collectors[i]->toJson());
            doc += spans[i]->toChromeText();
            EXPECT_GT(stats[i].events, 0u);
        }
        if (reference.empty())
            reference = doc;
        EXPECT_EQ(doc, reference) << "output diverged at jobs=" << jobs;
    }
    ASSERT_FALSE(reference.empty());
}

// ---------------------------------------------------------------------
// Staged-dispatch bandwidth contention
// ---------------------------------------------------------------------

namespace
{

/**
 * KV-pressured disaggregated PCIe pair with a deliberately slow link:
 * every finished prefill pages its sequence's KV out over the prefill
 * replica's lane (the handoff into decode), and the squeezed HBM adds
 * eviction page-outs on top — so a staged dispatch (admission gated on
 * the prompt's staging transfer) queues behind that KV traffic.
 *
 * @p gen_tokens is the traffic dial: at 1 there is no decode phase,
 * hence no handoffs and no KV pressure — the lane carries only the
 * staging transfers themselves, while the prefill-side request flow
 * (arrivals, routing, prefill compute) is byte-for-byte the same as
 * the heavy run.
 */
cluster::ClusterSpec
contentionSpec(int gen_tokens, bool staged)
{
    cluster::ClusterSpec spec;
    spec.model = workload::gpt2();
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::intelH100();
    replica.platform.gpu.hbmCapacityGiB = 0.30;
    replica.platform.link.bwGBs = 0.5; // slow lane: contention bites
    replica.maxActive = 8;
    cluster::ReplicaSpec prefill = replica;
    prefill.role = cluster::ReplicaRole::Prefill;
    cluster::ReplicaSpec decode = replica;
    decode.role = cluster::ReplicaRole::Decode;
    spec.replicas = {prefill, decode};
    spec.arrivalRatePerSec = 25.0;
    spec.horizonSec = 8.0;
    spec.promptLen = 256; // big KV footprint: ~10 MB/seq page-outs
    spec.genTokens = gen_tokens;
    spec.sessions = 64;
    spec.seed = 7;
    spec.stagedDispatch = staged;
    spec.kvTier.policy = kv::OffloadPolicy::LruBySession;
    spec.kvTier.hostCapacityGiB = 1.0;
    spec.kvTier.watermarkFrac = 0.9;
    return spec;
}

TEST(ShardContention, StagedDispatchQueuesBehindKvOffloadTraffic)
{
    cluster::CostCache costs;
    costs.build(contentionSpec(16, false));

    auto run = [&](int gen_tokens, bool staged) {
        return cluster::simulateCluster(
            contentionSpec(gen_tokens, staged), costs);
    };
    cluster::ClusterResult heavy_off = run(16, false);
    cluster::ClusterResult heavy_on = run(16, true);
    cluster::ClusterResult light_off = run(1, false);
    cluster::ClusterResult light_on = run(1, true);

    ASSERT_GT(heavy_on.kv.offloads, 0u)
        << "spec no longer generates offload traffic";
    // The two unstaged controls must agree at the median: decode-side
    // traffic does not touch prefill compute, so any staged-mode gap
    // between heavy and light is lane contention, not workload drift.
    EXPECT_DOUBLE_EQ(heavy_off.p50TtftNs, light_off.p50TtftNs);

    // Gating admission on the staging transfer costs exactly the
    // uncontended transfer time when the lane is idle (the light
    // delta); under heavy KV traffic the median dispatch must queue
    // behind page-outs and pay several times that.
    double delta_heavy = heavy_on.p50TtftNs - heavy_off.p50TtftNs;
    double delta_light = light_on.p50TtftNs - light_off.p50TtftNs;
    EXPECT_GT(delta_light, 0.0);
    EXPECT_GT(delta_heavy, 2.0 * delta_light);
    // The tail pays too: p99 dispatch latency rises under offload.
    EXPECT_GT(heavy_on.p99TtftNs - heavy_off.p99TtftNs, delta_light);
}

} // namespace

// ---------------------------------------------------------------------
// Removed execution options fail loudly
// ---------------------------------------------------------------------

namespace
{

RunFlags
parseFlags(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "test");
    CliArgs args(static_cast<int>(argv.size()), argv.data());
    return parseRunFlags(args);
}

/** Expect @p fn to throw a FatalError whose message contains @p name. */
template <class Fn>
void
expectFatalNaming(Fn &&fn, const std::string &name)
{
    try {
        fn();
        FAIL() << "'" << name << "' was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(name), std::string::npos)
            << err.what();
    }
}

/** smallSpec() as a JSON document with @p key set to @p value. */
json::Value
specWith(const char *key, double value)
{
    json::Object obj = smallSpec().toJson().asObject();
    obj.set(key, value);
    return json::Value(std::move(obj));
}

} // namespace

TEST(RemovedOptions, ShardsFlagIsFatal)
{
    expectFatalNaming([] { parseFlags({"--shards", "4"}); }, "--shards");
    expectFatalNaming([] { parseFlags({"--shards=1"}); }, "--shards");
}

TEST(RemovedOptions, ShardThreadsFlagIsFatal)
{
    expectFatalNaming([] { parseFlags({"--shard-threads", "2"}); },
                      "--shard-threads");
}

TEST(RemovedOptions, QueueFlagIsFatal)
{
    expectFatalNaming([] { parseFlags({"--queue", "heap"}); }, "--queue");
    expectFatalNaming([] { parseFlags({"--queue", "calendar"}); },
                      "--queue");
    // Flags that remain still parse.
    EXPECT_EQ(parseFlags({"--jobs", "4"}).jobs, 4);
}

TEST(RemovedOptions, ShardsSpecKeyIsFatal)
{
    expectFatalNaming(
        [] { cluster::ClusterSpec::fromJson(specWith("shards", 1.0)); },
        "shards");
    // The spec echo never carried the key, so a saved spec re-imports.
    EXPECT_NO_THROW(cluster::ClusterSpec::fromJson(smallSpec().toJson()));
}

TEST(RemovedOptions, ShardThreadsSpecKeyIsFatal)
{
    expectFatalNaming(
        [] {
            cluster::ClusterSpec::fromJson(specWith("shard-threads", 2.0));
        },
        "shard-threads");
}
