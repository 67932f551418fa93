#include "obs/span.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/parser.hh"
#include "json/writer.hh"

namespace skipsim::obs
{

namespace
{

std::int64_t
roundNs(double tNs)
{
    return std::llround(tNs);
}

} // namespace

SpanLog::Journal &
SpanLog::journal(std::size_t id)
{
    if (id >= _journals.size())
        _journals.resize(id + 1);
    return _journals[id];
}

void
SpanLog::openStage(Journal &j, const char *stage, std::int64_t tNs,
                   int replica, std::int64_t stallNs)
{
    j.openStage = stage;
    j.openBeginNs = tNs;
    j.openReplica = replica;
    j.stallNs = std::max<std::int64_t>(0, stallNs);
}

void
SpanLog::closeOpen(Journal &j, std::int64_t tNs)
{
    if (j.openStage.empty())
        return;
    std::int64_t begin = j.openBeginNs;
    if (j.stallNs > 0) {
        // The KV-tier transfer stalls the front of this stage. The
        // raw stall is charged to the admitting iteration *before*
        // duration scaling (clock/slowdown/jitter), so it can outlast
        // the scaled stage — clamp to the stage close to keep the
        // partition exact.
        std::int64_t kv_end = std::min(begin + j.stallNs, tNs);
        Rec kv;
        kv.parentLocal = 0;
        kv.stage = kStageKvFetch;
        kv.beginNs = begin;
        kv.durNs = kv_end - begin;
        kv.replica = j.openReplica;
        j.recs.push_back(std::move(kv));
        begin = kv_end;
        j.stallNs = 0;
    }
    Rec stage;
    stage.parentLocal = 0;
    stage.stage = j.openStage;
    stage.beginNs = begin;
    stage.durNs = tNs - begin;
    stage.replica = j.openReplica;
    int stage_idx = static_cast<int>(j.recs.size());
    j.recs.push_back(std::move(stage));
    for (Rec &kid : j.pendingKids) {
        kid.parentLocal = stage_idx;
        j.recs.push_back(std::move(kid));
    }
    j.pendingKids.clear();
    j.openStage.clear();
}

void
SpanLog::onArrival(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    j = Journal{};
    j.active = true;
    j.arrivalNs = roundNs(tNs);
    j.segStartNs = j.arrivalNs;
    Rec root;
    root.parentLocal = -1;
    root.stage = kStageRequest;
    root.beginNs = j.arrivalNs;
    j.recs.push_back(std::move(root));
    j.segFirstIdx = j.recs.size();
    openStage(j, kStageQueue, j.arrivalNs, -1);
}

void
SpanLog::onRoute(std::size_t id, double tNs, int replica,
                 const std::string &reason)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    j.replica = replica;
    Rec route;
    route.stage = kSpanRoute;
    route.beginNs = t;
    route.replica = replica;
    route.detail = reason;
    j.pendingKids.push_back(std::move(route));
    if (j.openStage == kStageQueue) {
        // The routing decision ends the router queue wait; the route
        // annotation stays a child of the queue stage it concluded.
        closeOpen(j, t);
        openStage(j, kStagePrefillWait, t, replica);
    }
    // Otherwise (a decode-pool re-dispatch mid-handoff) the handoff
    // stage stays open and just gains the route child.
}

void
SpanLog::onAdmit(std::size_t id, double tNs, double stallNs,
                 bool decodeEntry)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    closeOpen(j, t);
    openStage(j, decodeEntry ? kStageDecode : kStagePrefill, t,
              j.replica, roundNs(stallNs));
}

void
SpanLog::onFirstToken(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    closeOpen(j, t);
    openStage(j, kStageDecode, t, j.replica);
}

void
SpanLog::onHandoffStart(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    // Fired at the first-token instant on a prefill-pool replica: the
    // decode stage onFirstToken just opened has recorded nothing yet,
    // so it simply becomes the handoff stage.
    (void)tNs;
    j.openStage = kStageHandoff;
}

void
SpanLog::onDecodeIter(std::size_t id, double beginNs, double endNs,
                      int batch)
{
    Journal &j = journal(id);
    if (!j.active || j.openStage != kStageDecode)
        return;
    Rec iter;
    iter.stage = kSpanDecodeIter;
    iter.beginNs = roundNs(beginNs);
    iter.durNs = roundNs(endNs) - iter.beginNs;
    iter.replica = j.replica;
    iter.detail = "b=" + std::to_string(batch);
    j.pendingKids.push_back(std::move(iter));
}

void
SpanLog::onRestart(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    // The attempt's tokens (and any handed-off KV) died with the
    // replica: its stages are unrepresentative of a clean lifecycle,
    // so the whole attempt collapses into one disrupted stage and the
    // partition stays exact across the re-route.
    j.recs.resize(j.segFirstIdx);
    j.pendingKids.clear();
    j.openStage.clear();
    j.stallNs = 0;
    Rec lost;
    lost.parentLocal = 0;
    lost.stage = kStageDisrupted;
    lost.beginNs = j.segStartNs;
    lost.durNs = t - j.segStartNs;
    lost.replica = j.replica;
    j.recs.push_back(std::move(lost));
    j.segStartNs = t;
    j.segFirstIdx = j.recs.size();
    j.replica = -1;
    openStage(j, kStageQueue, t, -1);
}

void
SpanLog::onComplete(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    closeOpen(j, t);
    j.recs[0].durNs = t - j.recs[0].beginNs;

    // Seal: global ids are assigned in completion-event order, which
    // the engine's (time, priority, seq) ordering makes a pure
    // function of the spec — never of host threading.
    std::int64_t base = _nextId;
    for (std::size_t i = 0; i < j.recs.size(); ++i) {
        Rec &rec = j.recs[i];
        Span span;
        span.id = base + static_cast<std::int64_t>(i);
        span.parent = rec.parentLocal < 0
            ? -1
            : base + static_cast<std::int64_t>(rec.parentLocal);
        span.request = static_cast<std::int64_t>(id);
        span.stage = std::move(rec.stage);
        span.beginNs = rec.beginNs;
        span.durNs = rec.durNs;
        span.replica = rec.replica;
        span.detail = std::move(rec.detail);
        _sealed.push_back(std::move(span));
    }
    _nextId += static_cast<std::int64_t>(j.recs.size());
    ++_sealedRequests;
    j = Journal{}; // journal memory is done; active = false
}

void
SpanLog::setMeta(const std::string &key, const std::string &value)
{
    _meta[key] = value;
}

std::string
SpanLog::toChromeText() const
{
    // Written straight into one string, with no document model: the
    // keys, their order and each number's form are what json::write()
    // prints for the equivalent json::Value document. Every number
    // goes through appendNumber(double), so ns values past 2^53 round
    // exactly as a Value would hold them.
    std::string out;
    std::size_t text_bytes = 0;
    for (const Span &span : _sealed)
        text_bytes += span.stage.size() + span.detail.size();
    // Keys and numbers take ~200 bytes per "X" event and ~130 per flow
    // event; over-reserving a little keeps this to one allocation.
    out.reserve(128 + text_bytes + 240 * _sealed.size() +
                2 * 150 * _sealedRequests);

    // "kind" leads the meta object; a "kind" entry overrides its value.
    out += "{\"skipsimMeta\":{\"kind\":";
    auto kind = _meta.find("kind");
    json::appendString(out, kind == _meta.end() ? "spans" : kind->second);
    for (const auto &[key, value] : _meta) {
        if (key == "kind")
            continue;
        out.push_back(',');
        json::appendString(out, key);
        out.push_back(':');
        json::appendString(out, value);
    }
    out += "},\"traceEvents\":[";

    // Appends `<prefix><number>`; prefixes carry the JSON punctuation.
    auto num = [&out](const char *prefix, double value) {
        out += prefix;
        json::appendNumber(out, value);
    };
    // Async "b"/"e" flow event: one Perfetto row per request id.
    auto flow = [&](const char *phase, const Span &root, std::int64_t tNs) {
        out += phase;
        num(",\"cat\":\"request\",\"id\":",
            static_cast<double>(root.request));
        num(",\"name\":\"request\",\"pid\":0,\"tid\":0,\"ts\":",
            static_cast<double>(tNs) / 1000.0);
        num(",\"ts_ns\":", static_cast<double>(tNs));
        out += "},";
    };
    for (const Span &span : _sealed) {
        const bool is_root = span.parent < 0;
        if (is_root)
            flow("{\"ph\":\"b\"", span, span.beginNs);
        // "cpu_op" keeps the export parseable by trace::readChromeFile
        // (and therefore skipctl validate), which skips unmodeled
        // categories.
        const int tid = span.replica < 0 ? 0 : span.replica + 1;
        out += "{\"ph\":\"X\",\"name\":";
        json::appendString(out, span.stage);
        num(",\"cat\":\"cpu_op\",\"pid\":0,\"tid\":", tid);
        num(",\"ts\":", static_cast<double>(span.beginNs) / 1000.0);
        num(",\"dur\":", static_cast<double>(span.durNs) / 1000.0);
        num(",\"args\":{\"ts_ns\":", static_cast<double>(span.beginNs));
        num(",\"dur_ns\":", static_cast<double>(span.durNs));
        num(",\"thread\":", tid);
        num(",\"span_id\":", static_cast<double>(span.id));
        num(",\"parent\":", static_cast<double>(span.parent));
        num(",\"request\":", static_cast<double>(span.request));
        num(",\"replica\":", span.replica);
        if (!span.detail.empty()) {
            out += ",\"detail\":";
            json::appendString(out, span.detail);
        }
        out += "}},";
        if (is_root)
            flow("{\"ph\":\"e\"", span, span.beginNs + span.durNs);
    }
    if (out.back() == ',')
        out.pop_back(); // no trailing comma after the last event
    out += "],\"displayTimeUnit\":\"ns\"}";
    return out;
}

void
SpanLog::writeChromeFile(const std::string &path) const
{
    json::writeTextFile(path, toChromeText());
}

SpanFile
spansFromChromeJson(const json::Value &doc)
{
    SpanFile out;
    if (!doc.isObject())
        fatal("span trace: top level must be an object with "
              "'traceEvents'");
    const json::Object &root = doc.asObject();
    if (root.has("skipsimMeta")) {
        const json::Object &meta = root.at("skipsimMeta").asObject();
        for (const auto &key : meta.keys())
            out.meta[key] = meta.at(key).asString();
    }
    if (!root.has("traceEvents") || !root.at("traceEvents").isArray())
        fatal("span trace: missing 'traceEvents' array");
    std::size_t index = 0;
    for (const auto &item : root.at("traceEvents").asArray()) {
        try {
            if (!item.isObject())
                fatal("event is not a JSON object");
            const json::Object &obj = item.asObject();
            if (obj.get("ph", json::Value("")).asString() != "X") {
                ++index;
                continue; // flow events and foreign records
            }
            const json::Value null_value;
            const json::Value &args_value = obj.get("args", null_value);
            if (!args_value.isObject() ||
                !args_value.asObject().has("span_id")) {
                ++index;
                continue; // an "X" event from another writer
            }
            const json::Object &args = args_value.asObject();
            Span span;
            span.id = args.at("span_id").asInt();
            span.parent = args.at("parent").asInt();
            span.request = args.at("request").asInt();
            span.stage = obj.at("name").asString();
            span.beginNs = args.at("ts_ns").asInt();
            span.durNs = args.at("dur_ns").asInt();
            span.replica =
                static_cast<int>(args.get("replica", json::Value(-1))
                                     .asInt());
            span.detail =
                args.get("detail", json::Value("")).asString();
            out.spans.push_back(std::move(span));
        } catch (const FatalError &err) {
            fatal(strprintf("span trace: event %zu: %s", index,
                            err.what()));
        }
        ++index;
    }
    return out;
}

SpanFile
readSpanFile(const std::string &path)
{
    return spansFromChromeJson(json::parseFile(path));
}

} // namespace skipsim::obs
