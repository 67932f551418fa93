#include "core/event_queue.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace skipsim::core
{

namespace
{

/** Children per heap node. A 4-ary heap is half as deep as a binary
 *  one, and a node's children sit next to each other in memory. */
constexpr std::size_t kArity = 4;

/** @return true when @p a executes before @p b under the project-wide
 *  (time, priority, seq) total order. */
bool
executesBefore(const EventKey &a, const EventKey &b)
{
    if (a.timeNs != b.timeNs)
        return a.timeNs < b.timeNs;
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.seq < b.seq;
}

} // namespace

std::uint32_t
ClosureSlab::put(EventFn &&fn)
{
    if (!_free.empty()) {
        const std::uint32_t slot = _free.back();
        _free.pop_back();
        _fns[slot] = std::move(fn);
        return slot;
    }
    if (_fns.size() >= std::numeric_limits<std::uint32_t>::max())
        panic("core::ClosureSlab: more than 2^32 - 1 pending events");
    _fns.push_back(std::move(fn));
    return static_cast<std::uint32_t>(_fns.size() - 1);
}

void
EventQueue::schedule(double timeNs, int priority, EventFn fn)
{
    if (std::isnan(timeNs))
        panic("core::EventQueue: NaN event time");
    const EventKey key{timeNs, priority, _slab.put(std::move(fn)),
                       _nextSeq++};
    // Sift up: move the hole from the new leaf towards the root.
    std::size_t i = _heap.size();
    _heap.push_back(key);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!executesBefore(key, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = key;
}

const EventKey &
EventQueue::peek() const
{
    if (_heap.empty())
        panic("core::EventQueue: peek on empty queue");
    return _heap.front();
}

Event
EventQueue::pop()
{
    if (_heap.empty())
        panic("core::EventQueue: pop from empty queue");
    const EventKey top = _heap.front();
    const EventKey last = _heap.back();
    _heap.pop_back();
    const std::size_t n = _heap.size();
    if (n > 0) {
        // Sift down: move the root hole towards the leaves until the
        // former last key fits.
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = i * kArity + 1;
            if (first >= n)
                break;
            const std::size_t end = std::min(first + kArity, n);
            std::size_t best = first;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (executesBefore(_heap[c], _heap[best]))
                    best = c;
            }
            if (!executesBefore(_heap[best], last))
                break;
            _heap[i] = _heap[best];
            i = best;
        }
        _heap[i] = last;
    }
    return Event{top.timeNs, top.priority, top.seq, _slab.take(top.slot)};
}

} // namespace skipsim::core
