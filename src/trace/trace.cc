#include "trace/trace.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::trace
{

void
Trace::setMeta(const std::string &key, const std::string &value)
{
    for (auto &entry : _meta) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    _meta.emplace_back(key, value);
}

std::string
Trace::meta(const std::string &key) const
{
    for (const auto &entry : _meta) {
        if (entry.first == key)
            return entry.second;
    }
    return {};
}

std::uint64_t
Trace::add(TraceEvent event)
{
    event.id = _events.size();
    _posOfId.push_back(_events.size());
    _events.push_back(std::move(event));
    return _events.back().id;
}

void
Trace::addCounter(CounterEvent counter)
{
    _counters.push_back(std::move(counter));
}

void
Trace::addInstant(InstantEvent instant)
{
    _instants.push_back(std::move(instant));
}

void
Trace::sortByTime()
{
    auto before = [](const TraceEvent &a, const TraceEvent &b) {
        if (a.tsBeginNs != b.tsBeginNs)
            return a.tsBeginNs < b.tsBeginNs;
        return a.id < b.id;
    };
    // Traces are often sorted already (the simulator sorts its
    // output); one check is cheaper than a stable sort's moves of
    // whole events, and leaves the id index valid.
    if (!std::is_sorted(_events.begin(), _events.end(), before)) {
        std::stable_sort(_events.begin(), _events.end(), before);
        for (std::size_t pos = 0; pos < _events.size(); ++pos)
            _posOfId[_events[pos].id] = pos;
    }
    std::stable_sort(_counters.begin(), _counters.end(),
                     [](const CounterEvent &a, const CounterEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
    std::stable_sort(_instants.begin(), _instants.end(),
                     [](const InstantEvent &a, const InstantEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
}

const TraceEvent &
Trace::byId(std::uint64_t id) const
{
    if (id < _posOfId.size())
        return _events[_posOfId[id]];
    fatal(strprintf("Trace: no event with id %llu",
                    static_cast<unsigned long long>(id)));
}

std::vector<TraceEvent>
Trace::ofKind(EventKind kind) const
{
    std::vector<TraceEvent> out;
    for (const auto &ev : _events) {
        if (ev.kind == kind)
            out.push_back(ev);
    }
    return out;
}

std::size_t
Trace::countOf(EventKind kind) const
{
    std::size_t n = 0;
    for (const auto &ev : _events) {
        if (ev.kind == kind)
            ++n;
    }
    return n;
}

std::int64_t
Trace::beginNs() const
{
    if (_events.empty())
        fatal("Trace::beginNs on empty trace");
    std::int64_t ts = _events.front().tsBeginNs;
    for (const auto &ev : _events)
        ts = std::min(ts, ev.tsBeginNs);
    return ts;
}

std::int64_t
Trace::endNs() const
{
    if (_events.empty())
        fatal("Trace::endNs on empty trace");
    std::int64_t ts = _events.front().tsEndNs();
    for (const auto &ev : _events)
        ts = std::max(ts, ev.tsEndNs());
    return ts;
}

std::vector<std::string>
Trace::validate() const
{
    std::vector<std::string> problems;

    std::map<std::uint64_t, int> launch_corr;
    std::map<std::uint64_t, int> kernel_corr;

    for (const auto &ev : _events) {
        if (ev.durNs < 0) {
            problems.push_back(strprintf(
                "event %llu '%s' has negative duration",
                static_cast<unsigned long long>(ev.id), ev.name.c_str()));
        }
        if (ev.onGpu() && ev.streamId < 0) {
            problems.push_back(strprintf(
                "GPU event %llu '%s' has no stream id",
                static_cast<unsigned long long>(ev.id), ev.name.c_str()));
        }
        if (ev.kind == EventKind::Runtime && ev.correlationId != 0)
            ++launch_corr[ev.correlationId];
        if (ev.onGpu() && ev.correlationId != 0)
            ++kernel_corr[ev.correlationId];
    }

    for (const auto &[corr, count] : launch_corr) {
        if (count > 1) {
            problems.push_back(strprintf(
                "correlation id %llu used by %d runtime calls",
                static_cast<unsigned long long>(corr), count));
        }
        auto it = kernel_corr.find(corr);
        if (it == kernel_corr.end())
            continue; // launch without kernel is legal (e.g. cudaMemset)
        if (it->second > 1) {
            problems.push_back(strprintf(
                "correlation id %llu matches %d kernels",
                static_cast<unsigned long long>(corr), it->second));
        }
    }
    for (const auto &[corr, count] : kernel_corr) {
        (void)count;
        if (!launch_corr.count(corr)) {
            problems.push_back(strprintf(
                "kernel correlation id %llu has no runtime launch",
                static_cast<unsigned long long>(corr)));
        }
    }
    return problems;
}

} // namespace skipsim::trace
