#include "skip/dep_graph.hh"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::skip
{

DependencyGraph
DependencyGraph::build(trace::Trace trace)
{
    DependencyGraph g;
    trace.sortByTime();
    g._trace = std::move(trace);

    const auto &events = g._trace.events();
    std::size_t max_id = 0;
    for (const auto &ev : events)
        max_id = std::max<std::size_t>(max_id, ev.id);
    g._parents.assign(max_id + 1, std::nullopt);
    g._children.assign(max_id + 1, {});

    // --- CPU containment per thread -------------------------------
    // Events are processed in (begin asc, end desc) order so that a
    // parent precedes children sharing its begin timestamp.
    std::vector<const trace::TraceEvent *> cpu_events;
    for (const auto &ev : events) {
        if (ev.onCpu())
            cpu_events.push_back(&ev);
    }
    std::stable_sort(cpu_events.begin(), cpu_events.end(),
                     [](const trace::TraceEvent *a,
                        const trace::TraceEvent *b) {
                         if (a->tsBeginNs != b->tsBeginNs)
                             return a->tsBeginNs < b->tsBeginNs;
                         return a->tsEndNs() > b->tsEndNs();
                     });

    std::map<int, std::vector<const trace::TraceEvent *>> stacks;
    for (const auto *ev : cpu_events) {
        auto &stack = stacks[ev->tid];
        while (!stack.empty() && stack.back()->tsEndNs() <= ev->tsBeginNs)
            stack.pop_back();
        if (!stack.empty() && ev->tsEndNs() <= stack.back()->tsEndNs()) {
            g._parents[ev->id] = stack.back()->id;
            g._children[stack.back()->id].push_back(ev->id);
        }
        stack.push_back(ev);

        if (!g._parents[ev->id] &&
            ev->kind == trace::EventKind::Operator) {
            g._rootOps.push_back(ev->id);
        }
    }

    // --- Kernel linkage via correlation ids -----------------------
    // Events are in (begin, id) order, so the links come out in
    // stream (execution) order with no further sort.
    std::unordered_map<std::uint64_t, const trace::TraceEvent *> launches;
    launches.reserve(events.size());
    for (const auto &ev : events) {
        if (ev.kind == trace::EventKind::Runtime && ev.correlationId != 0)
            launches[ev.correlationId] = &ev;
    }

    for (const auto &ev : events) {
        if (!ev.onGpu())
            continue;
        auto it = launches.find(ev.correlationId);
        if (it == launches.end()) {
            fatal(strprintf(
                "dependency graph: kernel '%s' (id %llu) has no runtime "
                "launch with correlation id %llu",
                ev.name.c_str(),
                static_cast<unsigned long long>(ev.id),
                static_cast<unsigned long long>(ev.correlationId)));
        }
        KernelLink link;
        link.kernelId = ev.id;
        link.runtimeId = it->second->id;
        link.launchToStartNs = ev.tsBeginNs - it->second->tsBeginNs;
        if (auto parent = g._parents[it->second->id]) {
            link.leafOpId = parent;
            link.rootOpId = g.rootAncestorOf(*parent);
        }
        g._kernels.push_back(link);
    }
    return g;
}

std::optional<std::uint64_t>
DependencyGraph::parentOf(std::uint64_t id) const
{
    if (id >= _parents.size())
        fatal("DependencyGraph::parentOf: unknown event id");
    return _parents[id];
}

const std::vector<std::uint64_t> &
DependencyGraph::childrenOf(std::uint64_t id) const
{
    if (id >= _children.size())
        fatal("DependencyGraph::childrenOf: unknown event id");
    return _children[id];
}

std::uint64_t
DependencyGraph::rootAncestorOf(std::uint64_t id) const
{
    std::uint64_t cur = id;
    while (auto parent = parentOf(cur))
        cur = *parent;
    return cur;
}

std::vector<KernelLink>
DependencyGraph::computeKernelsOnly() const
{
    std::vector<KernelLink> out;
    for (const auto &link : _kernels) {
        if (_trace.byId(link.kernelId).kind == trace::EventKind::Kernel)
            out.push_back(link);
    }
    return out;
}

} // namespace skipsim::skip
