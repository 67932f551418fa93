/**
 * @file
 * Lifecycle span tests: the SpanLog recording hooks (stage partition,
 * KV-fetch carve and clamp, restart collapse, disaggregated handoff),
 * the streamed Chrome-trace export (a pinned golden, canonical-JSON
 * form, escaping and number edge cases), its round trip and its
 * malformed-document errors, the checkSpans structural validator,
 * latency attribution over hand-built span sets, and the
 * cluster-integration determinism contract (byte-identical span
 * export across repeated runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "check/span_check.hh"
#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "obs/attribution.hh"
#include "obs/span.hh"
#include "scenario/registry.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

/** Top-level stage spans of @p request, in begin order. */
std::vector<obs::Span>
stagesOf(const std::vector<obs::Span> &spans, std::int64_t request)
{
    std::int64_t root = -1;
    for (const obs::Span &s : spans) {
        if (s.request == request && s.parent < 0)
            root = s.id;
    }
    std::vector<obs::Span> stages;
    for (const obs::Span &s : spans) {
        if (s.request == request && s.parent == root)
            stages.push_back(s);
    }
    std::sort(stages.begin(), stages.end(),
              [](const obs::Span &a, const obs::Span &b) {
                  if (a.beginNs != b.beginNs)
                      return a.beginNs < b.beginNs;
                  return a.id < b.id;
              });
    return stages;
}

/** The request root span of @p request (asserts it exists). */
obs::Span
rootOf(const std::vector<obs::Span> &spans, std::int64_t request)
{
    for (const obs::Span &s : spans) {
        if (s.request == request && s.parent < 0)
            return s;
    }
    ADD_FAILURE() << "no root span for request " << request;
    return obs::Span{};
}

/** A small, fast-to-simulate cluster scenario. */
cluster::ClusterSpec
smallClusterSpec(int replicas = 2)
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

// ---------------------------------------------------------- SpanLog

TEST(SpanLog, BasicLifecyclePartitionsTheRequestInterval)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 1000.0, 0, "round-robin");
    log.onAdmit(0, 3000.0, 0.0, false);
    log.onFirstToken(0, 5000.0);
    log.onDecodeIter(0, 5000.0, 5500.0, 4);
    log.onDecodeIter(0, 5500.0, 6100.0, 3);
    log.onComplete(0, 6100.0);

    ASSERT_EQ(log.requestCount(), 1u);
    const std::vector<obs::Span> &spans = log.spans();
    // root + 4 stages + route + 2 decode iters
    ASSERT_EQ(spans.size(), 8u);

    obs::Span root = rootOf(spans, 0);
    EXPECT_EQ(root.stage, obs::kStageRequest);
    EXPECT_EQ(root.beginNs, 0);
    EXPECT_EQ(root.durNs, 6100);

    std::vector<obs::Span> stages = stagesOf(spans, 0);
    ASSERT_EQ(stages.size(), 4u);
    EXPECT_EQ(stages[0].stage, obs::kStageQueue);
    EXPECT_EQ(stages[0].beginNs, 0);
    EXPECT_EQ(stages[0].durNs, 1000);
    EXPECT_EQ(stages[1].stage, obs::kStagePrefillWait);
    EXPECT_EQ(stages[1].beginNs, 1000);
    EXPECT_EQ(stages[1].durNs, 2000);
    EXPECT_EQ(stages[1].replica, 0);
    EXPECT_EQ(stages[2].stage, obs::kStagePrefill);
    EXPECT_EQ(stages[2].beginNs, 3000);
    EXPECT_EQ(stages[2].durNs, 2000);
    EXPECT_EQ(stages[3].stage, obs::kStageDecode);
    EXPECT_EQ(stages[3].beginNs, 5000);
    EXPECT_EQ(stages[3].durNs, 1100);

    // The route annotation is a zero-duration child of the queue
    // stage; the decode iterations are children of the decode stage.
    int routes = 0;
    int iters = 0;
    for (const obs::Span &s : spans) {
        if (s.stage == obs::kSpanRoute) {
            ++routes;
            EXPECT_EQ(s.parent, stages[0].id);
            EXPECT_EQ(s.durNs, 0);
            EXPECT_EQ(s.detail, "round-robin");
            EXPECT_EQ(s.replica, 0);
        }
        if (s.stage == obs::kSpanDecodeIter) {
            ++iters;
            EXPECT_EQ(s.parent, stages[3].id);
        }
    }
    EXPECT_EQ(routes, 1);
    EXPECT_EQ(iters, 2);

    // Ids seal in order starting at 0 for the first request.
    EXPECT_EQ(root.id, 0);
    check::SpanCheckReport report = check::checkSpans(spans);
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.requestsChecked, 1u);
}

TEST(SpanLog, KvFetchStallIsCarvedAndClamped)
{
    obs::SpanLog log;
    // Request 0: a 300 ns stall fits inside the 800 ns prefill stage.
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 1, "kv-aware");
    log.onAdmit(0, 200.0, 300.0, false);
    log.onFirstToken(0, 1000.0);
    log.onComplete(0, 1400.0);
    // Request 1: the raw stall (5000 ns) outlasts the stage, so the
    // carve clamps at the stage close and prefill collapses to zero.
    log.onArrival(1, 0.0);
    log.onRoute(1, 100.0, 0, "kv-aware");
    log.onAdmit(1, 200.0, 5000.0, false);
    log.onFirstToken(1, 1000.0);
    log.onComplete(1, 1400.0);

    std::vector<obs::Span> s0 = stagesOf(log.spans(), 0);
    ASSERT_EQ(s0.size(), 5u);
    EXPECT_EQ(s0[2].stage, obs::kStageKvFetch);
    EXPECT_EQ(s0[2].beginNs, 200);
    EXPECT_EQ(s0[2].durNs, 300);
    EXPECT_EQ(s0[3].stage, obs::kStagePrefill);
    EXPECT_EQ(s0[3].beginNs, 500);
    EXPECT_EQ(s0[3].durNs, 500);

    std::vector<obs::Span> s1 = stagesOf(log.spans(), 1);
    ASSERT_EQ(s1.size(), 5u);
    EXPECT_EQ(s1[2].stage, obs::kStageKvFetch);
    EXPECT_EQ(s1[2].beginNs, 200);
    EXPECT_EQ(s1[2].durNs, 800); // clamped to the stage close
    EXPECT_EQ(s1[3].stage, obs::kStagePrefill);
    EXPECT_EQ(s1[3].beginNs, 1000);
    EXPECT_EQ(s1[3].durNs, 0);

    check::SpanCheckReport report = check::checkSpans(log.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

TEST(SpanLog, RestartCollapsesTheAttemptIntoOneDisruptedStage)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onRestart(0, 700.0);
    log.onRoute(0, 800.0, 1, "rr after crash");
    log.onAdmit(0, 900.0, 0.0, false);
    log.onFirstToken(0, 1200.0);
    log.onComplete(0, 1500.0);

    std::vector<obs::Span> stages = stagesOf(log.spans(), 0);
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].stage, obs::kStageDisrupted);
    EXPECT_EQ(stages[0].beginNs, 0);
    EXPECT_EQ(stages[0].durNs, 700);
    EXPECT_EQ(stages[0].replica, 0); // died on the first replica
    EXPECT_EQ(stages[1].stage, obs::kStageQueue);
    EXPECT_EQ(stages[1].beginNs, 700);
    EXPECT_EQ(stages[2].stage, obs::kStagePrefillWait);
    EXPECT_EQ(stages[3].stage, obs::kStagePrefill);
    EXPECT_EQ(stages[4].stage, obs::kStageDecode);
    EXPECT_EQ(stages[4].beginNs + stages[4].durNs, 1500);

    check::SpanCheckReport report = check::checkSpans(log.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

TEST(SpanLog, DisaggregatedHandoffBecomesItsOwnStage)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "prefill-pool");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onFirstToken(0, 600.0);
    log.onHandoffStart(0, 600.0);
    // Decode-pool re-dispatch: the handoff stage stays open and gains
    // the route annotation instead of re-opening a queue stage.
    log.onRoute(0, 700.0, 1, "decode-pool");
    log.onAdmit(0, 800.0, 0.0, true);
    log.onDecodeIter(0, 800.0, 900.0, 2);
    log.onComplete(0, 1000.0);

    std::vector<obs::Span> stages = stagesOf(log.spans(), 0);
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].stage, obs::kStageQueue);
    EXPECT_EQ(stages[1].stage, obs::kStagePrefillWait);
    EXPECT_EQ(stages[2].stage, obs::kStagePrefill);
    EXPECT_EQ(stages[3].stage, obs::kStageHandoff);
    EXPECT_EQ(stages[3].beginNs, 600);
    EXPECT_EQ(stages[3].durNs, 200);
    EXPECT_EQ(stages[4].stage, obs::kStageDecode);
    EXPECT_EQ(stages[4].beginNs, 800);
    EXPECT_EQ(stages[4].durNs, 200);

    // The decode-pool route child hangs off the handoff stage.
    bool found = false;
    for (const obs::Span &s : log.spans()) {
        if (s.stage == obs::kSpanRoute && s.detail == "decode-pool") {
            found = true;
            EXPECT_EQ(s.parent, stages[3].id);
            EXPECT_EQ(s.replica, 1);
        }
    }
    EXPECT_TRUE(found);

    check::SpanCheckReport report = check::checkSpans(log.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

TEST(SpanLog, IncompleteRequestsAreNeverSealed)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    // Never completes: nothing sealed, nothing exported.
    EXPECT_EQ(log.requestCount(), 0u);
    EXPECT_TRUE(log.spans().empty());
    // Hooks on unknown/never-arrived ids are ignored.
    log.onFirstToken(7, 500.0);
    log.onComplete(7, 900.0);
    EXPECT_TRUE(log.spans().empty());
}

// ------------------------------------------------- Chrome round trip

/** A route reason / meta value holding every byte class that escapes. */
const std::string kAwkwardText = "q\"b\\s\nc\x01t\x1f\x7f \xc3\xa9!";

/**
 * A small hand-built log that reaches every stage (queue, prefill_wait,
 * kv_fetch, prefill, handoff, decode, disrupted), both child kinds
 * (route, decode_iter), replica -1 (the router track), nanosecond
 * values that are not multiples of 1000 and values past 2^53 and 1e17.
 */
void
recordGoldenLog(obs::SpanLog &log)
{
    log.setMeta("ttft_slo_ms", "250");
    log.setMeta("note", kAwkwardText);
    // Request 0: KV fetch carved out of prefill, two decode iterations.
    log.onArrival(0, 1234.0);
    log.onRoute(0, 2500.5, 1, kAwkwardText);
    log.onAdmit(0, 3001.0, 450.0, false);
    log.onFirstToken(0, 5999.0);
    log.onDecodeIter(0, 5999.0, 6500.0, 4);
    log.onDecodeIter(0, 6500.0, 7123.0, 3);
    // Request 1: disaggregated prefill -> handoff -> decode pool.
    log.onArrival(1, 2000.0);
    log.onRoute(1, 2100.0, 0, "prefill-pool");
    log.onAdmit(1, 2200.0, 0.0, false);
    log.onFirstToken(1, 4000.0);
    log.onHandoffStart(1, 4000.0);
    log.onRoute(1, 4300.0, 2, "decode-pool");
    log.onAdmit(1, 4700.0, 120.0, true);
    log.onDecodeIter(1, 4700.0, 5100.0, 2);
    log.onComplete(0, 7123.0);
    // Request 2: restarted before routing (a disrupted span on the
    // router track) and again after admission.
    log.onArrival(2, 3000.0);
    log.onRestart(2, 3500.0);
    log.onRoute(2, 3600.0, 0, "rr");
    log.onAdmit(2, 3700.0, 0.0, false);
    log.onRestart(2, 4100.0);
    log.onRoute(2, 4200.0, 1, "rr after crash");
    log.onAdmit(2, 4300.0, 0.0, false);
    log.onFirstToken(2, 5000.0);
    log.onComplete(2, 5000.0);
    log.onComplete(1, 5100.0);
    // Request 3: past 2^53 ns integers take the %.17g path, which
    // switches to exponent form from 1e17.
    log.onArrival(3, 9007199254740993.0);
    log.onRoute(3, 9007199254741999.0, 0, "rr");
    log.onAdmit(3, 123456789012345678.0, 0.0, false);
    log.onFirstToken(3, 123456789012349999.0);
    log.onComplete(3, 123456789012399999.0);
}

/** Every Span field of @p got matches @p want. */
void
expectSameSpans(const std::vector<obs::Span> &got,
                const std::vector<obs::Span> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id);
        EXPECT_EQ(got[i].parent, want[i].parent);
        EXPECT_EQ(got[i].request, want[i].request);
        EXPECT_EQ(got[i].stage, want[i].stage);
        EXPECT_EQ(got[i].beginNs, want[i].beginNs);
        EXPECT_EQ(got[i].durNs, want[i].durNs);
        EXPECT_EQ(got[i].replica, want[i].replica);
        EXPECT_EQ(got[i].detail, want[i].detail);
    }
}

TEST(SpanExport, PinnedGolden)
{
    // Captured from the DOM-based exporter (json::write of a
    // json::Value tree) that the streaming one replaced: every byte of
    // the format is pinned.
    const std::string golden =
        R"({"skipsimMeta":{"kind":"spans",)"
        R"("note":"q\"b\\s\nc\u0001t\u001f)" "\x7f" R"( )" "\xc3\xa9" R"(!",)"
        R"("ttft_slo_ms":"250"},"traceEvents":[)"
        R"({"ph":"b","cat":"request","id":0,"name":"request","pid":0,"tid":0,)"
        R"("ts":1.234,"ts_ns":1234},)"
        R"({"ph":"X","name":"request","cat":"cpu_op","pid":0,"tid":0,)"
        R"("ts":1.234,"dur":5.8890000000000002,"args":{"ts_ns":1234,)"
        R"("dur_ns":5889,"thread":0,"span_id":0,"parent":-1,"request":0,)"
        R"("replica":-1}},)"
        R"({"ph":"e","cat":"request","id":0,"name":"request","pid":0,"tid":0,)"
        R"("ts":7.1230000000000002,"ts_ns":7123},)"
        R"({"ph":"X","name":"queue","cat":"cpu_op","pid":0,"tid":0,)"
        R"("ts":1.234,"dur":1.2669999999999999,"args":{"ts_ns":1234,)"
        R"("dur_ns":1267,"thread":0,"span_id":1,"parent":0,"request":0,)"
        R"("replica":-1}},)"
        R"({"ph":"X","name":"route","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":2.5009999999999999,"dur":0,"args":{"ts_ns":2501,"dur_ns":0,)"
        R"("thread":2,"span_id":2,"parent":1,"request":0,"replica":1,)"
        R"("detail":"q\"b\\s\nc\u0001t\u001f)"
        "\x7f" R"( )" "\xc3\xa9" R"(!"}},)"
        
        R"({"ph":"X","name":"prefill_wait","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":2.5009999999999999,"dur":0.5,"args":{"ts_ns":2501,)"
        R"("dur_ns":500,"thread":2,"span_id":3,"parent":0,"request":0,)"
        R"("replica":1}},)"
        R"({"ph":"X","name":"kv_fetch","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":3.0009999999999999,"dur":0.45000000000000001,)"
        R"("args":{"ts_ns":3001,"dur_ns":450,"thread":2,"span_id":4,)"
        R"("parent":0,"request":0,"replica":1}},)"
        R"({"ph":"X","name":"prefill","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":3.4510000000000001,"dur":2.548,"args":{"ts_ns":3451,)"
        R"("dur_ns":2548,"thread":2,"span_id":5,"parent":0,"request":0,)"
        R"("replica":1}},)"
        R"({"ph":"X","name":"decode","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":5.9989999999999997,"dur":1.1240000000000001,)"
        R"("args":{"ts_ns":5999,"dur_ns":1124,"thread":2,"span_id":6,)"
        R"("parent":0,"request":0,"replica":1}},)"
        R"({"ph":"X","name":"decode_iter","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":5.9989999999999997,"dur":0.501,"args":{"ts_ns":5999,)"
        R"("dur_ns":501,"thread":2,"span_id":7,"parent":6,"request":0,)"
        R"("replica":1,"detail":"b=4"}},)"
        R"({"ph":"X","name":"decode_iter","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":6.5,"dur":0.623,"args":{"ts_ns":6500,"dur_ns":623,"thread":2,)"
        R"("span_id":8,"parent":6,"request":0,"replica":1,"detail":"b=3"}},)"
        R"({"ph":"b","cat":"request","id":2,"name":"request","pid":0,"tid":0,)"
        R"("ts":3,"ts_ns":3000},)"
        R"({"ph":"X","name":"request","cat":"cpu_op","pid":0,"tid":0,"ts":3,)"
        R"("dur":2,"args":{"ts_ns":3000,"dur_ns":2000,"thread":0,"span_id":9,)"
        R"("parent":-1,"request":2,"replica":-1}},)"
        R"({"ph":"e","cat":"request","id":2,"name":"request","pid":0,"tid":0,)"
        R"("ts":5,"ts_ns":5000},)"
        R"({"ph":"X","name":"disrupted","cat":"cpu_op","pid":0,"tid":0,)"
        R"("ts":3,"dur":0.5,"args":{"ts_ns":3000,"dur_ns":500,"thread":0,)"
        R"("span_id":10,"parent":9,"request":2,"replica":-1}},)"
        R"({"ph":"X","name":"disrupted","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":3.5,"dur":0.59999999999999998,"args":{"ts_ns":3500,)"
        R"("dur_ns":600,"thread":1,"span_id":11,"parent":9,"request":2,)"
        R"("replica":0}},)"
        R"({"ph":"X","name":"queue","cat":"cpu_op","pid":0,"tid":0,)"
        R"("ts":4.0999999999999996,"dur":0.10000000000000001,)"
        R"("args":{"ts_ns":4100,"dur_ns":100,"thread":0,"span_id":12,)"
        R"("parent":9,"request":2,"replica":-1}},)"
        R"({"ph":"X","name":"route","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":4.2000000000000002,"dur":0,"args":{"ts_ns":4200,"dur_ns":0,)"
        R"("thread":2,"span_id":13,"parent":12,"request":2,"replica":1,)"
        R"("detail":"rr after crash"}},)"
        R"({"ph":"X","name":"prefill_wait","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":4.2000000000000002,"dur":0.10000000000000001,)"
        R"("args":{"ts_ns":4200,"dur_ns":100,"thread":2,"span_id":14,)"
        R"("parent":9,"request":2,"replica":1}},)"
        R"({"ph":"X","name":"prefill","cat":"cpu_op","pid":0,"tid":2,)"
        R"("ts":4.2999999999999998,"dur":0.69999999999999996,)"
        R"("args":{"ts_ns":4300,"dur_ns":700,"thread":2,"span_id":15,)"
        R"("parent":9,"request":2,"replica":1}},)"
        R"({"ph":"X","name":"decode","cat":"cpu_op","pid":0,"tid":2,"ts":5,)"
        R"("dur":0,"args":{"ts_ns":5000,"dur_ns":0,"thread":2,"span_id":16,)"
        R"("parent":9,"request":2,"replica":1}},)"
        R"({"ph":"b","cat":"request","id":1,"name":"request","pid":0,"tid":0,)"
        R"("ts":2,"ts_ns":2000},)"
        R"({"ph":"X","name":"request","cat":"cpu_op","pid":0,"tid":0,"ts":2,)"
        R"("dur":3.1000000000000001,"args":{"ts_ns":2000,"dur_ns":3100,)"
        R"("thread":0,"span_id":17,"parent":-1,"request":1,"replica":-1}},)"
        R"({"ph":"e","cat":"request","id":1,"name":"request","pid":0,"tid":0,)"
        R"("ts":5.0999999999999996,"ts_ns":5100},)"
        R"({"ph":"X","name":"queue","cat":"cpu_op","pid":0,"tid":0,"ts":2,)"
        R"("dur":0.10000000000000001,"args":{"ts_ns":2000,"dur_ns":100,)"
        R"("thread":0,"span_id":18,"parent":17,"request":1,"replica":-1}},)"
        R"({"ph":"X","name":"route","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":2.1000000000000001,"dur":0,"args":{"ts_ns":2100,"dur_ns":0,)"
        R"("thread":1,"span_id":19,"parent":18,"request":1,"replica":0,)"
        R"("detail":"prefill-pool"}},)"
        R"({"ph":"X","name":"prefill_wait","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":2.1000000000000001,"dur":0.10000000000000001,)"
        R"("args":{"ts_ns":2100,"dur_ns":100,"thread":1,"span_id":20,)"
        R"("parent":17,"request":1,"replica":0}},)"
        R"({"ph":"X","name":"prefill","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":2.2000000000000002,"dur":1.8,"args":{"ts_ns":2200,)"
        R"("dur_ns":1800,"thread":1,"span_id":21,"parent":17,"request":1,)"
        R"("replica":0}},)"
        R"({"ph":"X","name":"handoff","cat":"cpu_op","pid":0,"tid":1,"ts":4,)"
        R"("dur":0.69999999999999996,"args":{"ts_ns":4000,"dur_ns":700,)"
        R"("thread":1,"span_id":22,"parent":17,"request":1,"replica":0}},)"
        R"({"ph":"X","name":"route","cat":"cpu_op","pid":0,"tid":3,)"
        R"("ts":4.2999999999999998,"dur":0,"args":{"ts_ns":4300,"dur_ns":0,)"
        R"("thread":3,"span_id":23,"parent":22,"request":1,"replica":2,)"
        R"("detail":"decode-pool"}},)"
        R"({"ph":"X","name":"kv_fetch","cat":"cpu_op","pid":0,"tid":3,)"
        R"("ts":4.7000000000000002,"dur":0.12,"args":{"ts_ns":4700,)"
        R"("dur_ns":120,"thread":3,"span_id":24,"parent":17,"request":1,)"
        R"("replica":2}},)"
        R"({"ph":"X","name":"decode","cat":"cpu_op","pid":0,"tid":3,)"
        R"("ts":4.8200000000000003,"dur":0.28000000000000003,)"
        R"("args":{"ts_ns":4820,"dur_ns":280,"thread":3,"span_id":25,)"
        R"("parent":17,"request":1,"replica":2}},)"
        R"({"ph":"X","name":"decode_iter","cat":"cpu_op","pid":0,"tid":3,)"
        R"("ts":4.7000000000000002,"dur":0.40000000000000002,)"
        R"("args":{"ts_ns":4700,"dur_ns":400,"thread":3,"span_id":26,)"
        R"("parent":25,"request":1,"replica":2,"detail":"b=2"}},)"
        R"({"ph":"b","cat":"request","id":3,"name":"request","pid":0,"tid":0,)"
        R"("ts":9007199254740.9922,"ts_ns":9007199254740992},)"
        R"({"ph":"X","name":"request","cat":"cpu_op","pid":0,"tid":0,)"
        R"("ts":9007199254740.9922,"dur":114449589757659.02,)"
        R"("args":{"ts_ns":9007199254740992,"dur_ns":1.1444958975765901e+17,)"
        R"("thread":0,"span_id":27,"parent":-1,"request":3,"replica":-1}},)"
        R"({"ph":"e","cat":"request","id":3,"name":"request","pid":0,"tid":0,)"
        R"("ts":123456789012400,"ts_ns":1.234567890124e+17},)"
        R"({"ph":"X","name":"queue","cat":"cpu_op","pid":0,"tid":0,)"
        R"("ts":9007199254740.9922,"dur":1.008,)"
        R"("args":{"ts_ns":9007199254740992,"dur_ns":1008,"thread":0,)"
        R"("span_id":28,"parent":27,"request":3,"replica":-1}},)"
        R"({"ph":"X","name":"route","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":9007199254742,"dur":0,"args":{"ts_ns":9007199254742000,)"
        R"("dur_ns":0,"thread":1,"span_id":29,"parent":28,"request":3,)"
        R"("replica":0,"detail":"rr"}},)"
        R"({"ph":"X","name":"prefill_wait","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":9007199254742,"dur":114449589757603.69,)"
        R"("args":{"ts_ns":9007199254742000,"dur_ns":1.1444958975760368e+17,)"
        R"("thread":1,"span_id":30,"parent":27,"request":3,"replica":0}},)"
        R"({"ph":"X","name":"prefill","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":123456789012345.69,"dur":4.3200000000000003,)"
        R"("args":{"ts_ns":1.2345678901234568e+17,"dur_ns":4320,"thread":1,)"
        R"("span_id":31,"parent":27,"request":3,"replica":0}},)"
        R"({"ph":"X","name":"decode","cat":"cpu_op","pid":0,"tid":1,)"
        R"("ts":123456789012350,"dur":50,"args":{"ts_ns":1.2345678901235e+17,)"
        R"("dur_ns":50000,"thread":1,"span_id":32,"parent":27,"request":3,)"
        R"("replica":0}}],"displayTimeUnit":"ns"})";
    obs::SpanLog log;
    recordGoldenLog(log);
    EXPECT_EQ(log.toChromeText(), golden);
}

TEST(SpanExport, EmptyLogAndKindOverride)
{
    obs::SpanLog empty;
    EXPECT_EQ(empty.toChromeText(),
              R"({"skipsimMeta":{"kind":"spans"},"traceEvents":[],)"
              R"("displayTimeUnit":"ns"})");
    // A "kind" entry overwrites the default in first position; the
    // other entries follow in key order.
    obs::SpanLog custom;
    custom.setMeta("zeta", "z");
    custom.setMeta("kind", "custom");
    custom.setMeta("alpha", "a");
    EXPECT_EQ(custom.toChromeText(),
              R"({"skipsimMeta":{"kind":"custom","alpha":"a","zeta":"z"},)"
              R"("traceEvents":[],"displayTimeUnit":"ns"})");
}

TEST(SpanExport, TextIsCanonicalJsonAndRoundTrips)
{
    obs::SpanLog log;
    recordGoldenLog(log);
    const std::string text = log.toChromeText();
    // The writer's canonical form of the parsed text is the text.
    EXPECT_EQ(json::write(json::parse(text)), text);

    obs::SpanFile file = obs::spansFromChromeJson(json::parse(text));
    EXPECT_EQ(file.meta.at("kind"), "spans");
    EXPECT_EQ(file.meta.at("note"), kAwkwardText);
    EXPECT_EQ(file.meta.at("ttft_slo_ms"), "250");
    expectSameSpans(file.spans, log.spans());
}

TEST(SpanExport, RecordedKvOffloadRunIsCanonical)
{
    json::Object params;
    params.set("horizon-sec", 4.0);
    params.set("replicas", 1);
    params.set("seed", 3);
    cluster::ClusterSpec spec =
        scenario::buildScenario("kv_offload", params);
    obs::SpanLog log;
    log.setMeta("scenario", "kv_offload");
    cluster::simulateCluster(spec, nullptr, &log);
    ASSERT_GT(log.requestCount(), 0u);
    bool fetched = false;
    for (const obs::Span &s : log.spans())
        fetched = fetched || s.stage == obs::kStageKvFetch;
    EXPECT_TRUE(fetched) << "the run should page KV back in";

    const std::string text = log.toChromeText();
    EXPECT_EQ(json::write(json::parse(text)), text);
    expectSameSpans(
        obs::spansFromChromeJson(json::parse(text)).spans, log.spans());
}

TEST(SpanFile, ChromeExportRoundTripsEverySealedSpan)
{
    obs::SpanLog log;
    log.setMeta("ttft_slo_ms", "250");
    log.onArrival(0, 0.0);
    log.onRoute(0, 1000.0, 0, "rr");
    log.onAdmit(0, 3000.0, 450.0, false);
    log.onFirstToken(0, 5000.0);
    log.onDecodeIter(0, 5000.0, 5500.0, 4);
    log.onComplete(0, 6100.0);

    obs::SpanFile file =
        obs::spansFromChromeJson(json::parse(log.toChromeText()));
    EXPECT_EQ(file.meta.at("kind"), "spans");
    EXPECT_EQ(file.meta.at("ttft_slo_ms"), "250");
    expectSameSpans(file.spans, log.spans());
}

TEST(SpanFile, MalformedDocumentsAreFatal)
{
    EXPECT_THROW(obs::spansFromChromeJson(json::Value(3.0)),
                 FatalError);
    EXPECT_THROW(obs::spansFromChromeJson(
                     json::parse("{\"skipsimMeta\": {}}")),
                 FatalError);
    // An "X" event carrying span_id but missing the other span args
    // names the offending event index.
    try {
        obs::spansFromChromeJson(json::parse(
            "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"queue\","
            " \"args\": {\"span_id\": 1}}]}"));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("event 0"),
                  std::string::npos);
    }
    // Foreign "X" events without span args are skipped, not fatal.
    obs::SpanFile file = obs::spansFromChromeJson(json::parse(
        "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"gemm\","
        " \"args\": {\"thread\": 0}}, {\"ph\": \"b\", \"id\": 0}]}"));
    EXPECT_TRUE(file.spans.empty());
}

// -------------------------------------------------------- checkSpans

TEST(SpanCheck, DetectsPartitionGapsOverlapsAndOrphans)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onFirstToken(0, 600.0);
    log.onComplete(0, 1000.0);
    std::vector<obs::Span> spans = log.spans();

    // Open a gap: shrink the prefill stage's duration.
    std::vector<obs::Span> gapped = spans;
    for (obs::Span &s : gapped) {
        if (s.stage == obs::kStagePrefill)
            s.durNs -= 50;
    }
    check::SpanCheckReport gap = check::checkSpans(gapped);
    EXPECT_FALSE(gap.ok());
    EXPECT_TRUE(gap.has("span-stage-gap")) << gap.render();

    // Overlap: grow it instead.
    std::vector<obs::Span> overlapped = spans;
    for (obs::Span &s : overlapped) {
        if (s.stage == obs::kStagePrefill)
            s.durNs += 50;
    }
    check::SpanCheckReport overlap = check::checkSpans(overlapped);
    EXPECT_FALSE(overlap.ok());
    EXPECT_TRUE(overlap.has("span-stage-overlap")) << overlap.render();

    // Orphan: a span pointing at a parent id that was never sealed.
    std::vector<obs::Span> orphaned = spans;
    orphaned.back().parent = 9999;
    EXPECT_TRUE(
        check::checkSpans(orphaned).has("span-orphan"));

    // Drop the root: stages with no request root.
    std::vector<obs::Span> rootless;
    for (const obs::Span &s : spans) {
        if (s.parent >= 0)
            rootless.push_back(s);
    }
    check::SpanCheckReport missing = check::checkSpans(rootless);
    EXPECT_FALSE(missing.ok());
    EXPECT_TRUE(missing.has("span-orphan") ||
                missing.has("span-missing-root"))
        << missing.render();
}

// ------------------------------------------------------- attribution

TEST(Attribution, HandBuiltBreakdownAndSloDominance)
{
    obs::SpanLog log;
    // Request 0: ttft 600 ns, e2e 1000 ns.
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onFirstToken(0, 600.0);
    log.onComplete(0, 1000.0);
    // Request 1: ttft 800 ns, e2e 1600 ns.
    log.onArrival(1, 0.0);
    log.onRoute(1, 300.0, 1, "rr");
    log.onAdmit(1, 400.0, 0.0, false);
    log.onFirstToken(1, 800.0);
    log.onComplete(1, 1600.0);

    // SLOs in ms; 0.0005 ms = 500 ns, so both requests violate ttft
    // and only request 1 violates e2e (1600 > 1200).
    obs::AttributionReport report =
        obs::attributeSpans(log.spans(), 0.0005, 0.0012);
    EXPECT_EQ(report.requests, 2u);
    EXPECT_DOUBLE_EQ(report.meanTtftNs, 700.0);
    EXPECT_DOUBLE_EQ(report.meanE2eNs, 1300.0);

    // E2E totals: queue 400, prefill_wait 200, prefill 800, decode
    // 1200 -> shares over 2600 summed interval time.
    std::map<std::string, obs::StageStat> e2e;
    double share_sum = 0.0;
    for (const obs::StageStat &s : report.e2eStages) {
        e2e[s.stage] = s;
        share_sum += s.share;
    }
    ASSERT_EQ(e2e.size(), 4u);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageQueue].totalNs, 400.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStagePrefillWait].totalNs, 200.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStagePrefill].totalNs, 800.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageDecode].totalNs, 1200.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageDecode].share, 1200.0 / 2600.0);
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
    EXPECT_EQ(e2e[obs::kStageQueue].count, 2u);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageQueue].meanNs, 200.0);

    // Stage rows come out in lifecycle order.
    ASSERT_EQ(report.e2eStages.size(), 4u);
    EXPECT_EQ(report.e2eStages[0].stage, obs::kStageQueue);
    EXPECT_EQ(report.e2eStages[3].stage, obs::kStageDecode);

    // The TTFT window excludes decode entirely.
    for (const obs::StageStat &s : report.ttftStages)
        EXPECT_NE(s.stage, obs::kStageDecode);

    // SLO table: ttft violators (both) dominated by prefill (800 of
    // 1400 ttft-window ns); e2e violators (request 1) by decode.
    ASSERT_EQ(report.sloRows.size(), 2u);
    EXPECT_EQ(report.sloRows[0].klass, "ttft");
    EXPECT_EQ(report.sloRows[0].violations, 2u);
    EXPECT_EQ(report.sloRows[0].dominantStage, obs::kStagePrefill);
    EXPECT_DOUBLE_EQ(report.sloRows[0].dominantTotalNs, 800.0);
    EXPECT_EQ(report.sloRows[1].klass, "e2e");
    EXPECT_EQ(report.sloRows[1].violations, 1u);
    EXPECT_EQ(report.sloRows[1].dominantStage, obs::kStageDecode);

    // Relaxed SLOs -> no violation rows.
    obs::AttributionReport relaxed =
        obs::attributeSpans(log.spans(), 1000.0, 1000.0);
    EXPECT_TRUE(relaxed.sloRows.empty());
    // The JSON document always carries the fixed top-level keys.
    json::Value doc = relaxed.toJson();
    EXPECT_TRUE(doc.asObject().has("ttft_stages"));
    EXPECT_TRUE(doc.asObject().has("e2e_stages"));
    EXPECT_TRUE(doc.asObject().has("slo_violations"));
}

// ------------------------------------------------ cluster integration

TEST(ClusterSpans, SimulationSpansAreValidAndByteIdentical)
{
    cluster::ClusterSpec spec = smallClusterSpec(2);

    obs::SpanLog first;
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, nullptr, &first);
    ASSERT_GT(first.requestCount(), 0u);
    EXPECT_EQ(first.requestCount(),
              static_cast<std::size_t>(result.completed));

    check::SpanCheckReport report = check::checkSpans(first.spans());
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.requestsChecked, first.requestCount());

    // A fresh run (fresh cost cache and all) must export the same
    // bytes: span ids are sealed in deterministic event order.
    obs::SpanLog second;
    cluster::simulateCluster(spec, nullptr, &second);
    EXPECT_EQ(first.toChromeText(), second.toChromeText());

    // And attribution over those spans is equally deterministic.
    EXPECT_EQ(json::write(obs::attributeSpans(first.spans(),
                                              spec.ttftSloMs,
                                              spec.e2eSloMs)
                              .toJson()),
              json::write(obs::attributeSpans(second.spans(),
                                              spec.ttftSloMs,
                                              spec.e2eSloMs)
                              .toJson()));
}

TEST(ClusterSpans, FaultRestartsShowUpAsDisruptedStages)
{
    cluster::ClusterSpec spec = smallClusterSpec(2);
    cluster::FaultSpec crash;
    crash.atSec = 1.0;
    crash.replica = 0;
    crash.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(crash);

    obs::SpanLog spans;
    cluster::simulateCluster(spec, nullptr, &spans);
    ASSERT_GT(spans.requestCount(), 0u);

    std::size_t disrupted = 0;
    for (const obs::Span &s : spans.spans()) {
        if (s.stage == obs::kStageDisrupted)
            ++disrupted;
    }
    EXPECT_GT(disrupted, 0u);

    // The partition invariant survives the restarts.
    check::SpanCheckReport report = check::checkSpans(spans.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

} // namespace
