#include "core/calendar_queue.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace skipsim::core
{

namespace
{

constexpr std::size_t kInitialBuckets = 16;

} // namespace

CalendarQueue::CalendarQueue()
{
    _buckets.resize(kInitialBuckets);
    _mask = kInitialBuckets - 1;
}

std::size_t
CalendarQueue::bucketOf(double timeNs) const
{
    // Negative times floor toward -inf so adjacent days stay adjacent.
    double day = std::floor(timeNs / _widthNs);
    // Large |day| wraps via the unsigned cast; only the low bits
    // matter for the ring index.
    return static_cast<std::size_t>(static_cast<std::int64_t>(day)) &
        _mask;
}

void
CalendarQueue::insertSorted(std::vector<EventKey> &bucket,
                            const EventKey &key)
{
    // Descending order: the bucket minimum lives at back() so pop is
    // an O(1) pop_back. Linear insertion is fine — the width estimate
    // keeps buckets near one event per day, so the scan is short.
    auto it = bucket.end();
    while (it != bucket.begin() && executesBefore(*(it - 1), key))
        --it;
    bucket.insert(it, key);
}

void
CalendarQueue::schedule(double timeNs, int priority, EventFn fn)
{
    Event ev;
    ev.timeNs = timeNs;
    ev.priority = priority;
    ev.seq = _nextSeq++;
    ev.fn = std::move(fn);
    push(std::move(ev));
}

void
CalendarQueue::push(Event &&ev)
{
    if (std::isnan(ev.timeNs))
        panic("core::CalendarQueue: NaN event time");
    const EventKey key{ev.timeNs, ev.priority,
                       _slab.put(std::move(ev.fn)), ev.seq};
    std::size_t b = bucketOf(key.timeNs);
    // Keep the min cache coherent: a new global minimum lands at the
    // back of its bucket, so the cache can follow it for free.
    if (_minValid && executesBefore(key, _buckets[_minBucket].back()))
        _minBucket = b;
    insertSorted(_buckets[b], key);
    ++_size;
    if (_size > 2 * _buckets.size())
        rebuild(_buckets.size() * 2);
}

void
CalendarQueue::directScan() const
{
    const EventKey *best = nullptr;
    std::size_t best_bucket = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i].empty())
            continue;
        const EventKey &cand = _buckets[i].back();
        if (best == nullptr || executesBefore(cand, *best)) {
            best = &cand;
            best_bucket = i;
        }
    }
    _minBucket = best_bucket;
    _minValid = true;
}

void
CalendarQueue::findMin() const
{
    if (_minValid)
        return;
    if (_size == 0)
        panic("core::CalendarQueue: scan on empty queue");
    // Before the first pop there is no day cursor yet: direct scan.
    if (!std::isfinite(_lastNs)) {
        directScan();
        return;
    }
    // Walk the calendar day by day from the last pop's day. The first
    // bucket whose minimum falls inside its current day holds the
    // global minimum: earlier walk positions cover earlier days, and
    // an event of an earlier day in a later bucket would have to
    // predate the cursor (handled by the direct-scan fallback).
    std::int64_t d0 = static_cast<std::int64_t>(
        std::floor(_lastNs / _widthNs));
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        std::int64_t day = d0 + static_cast<std::int64_t>(i);
        std::size_t b = static_cast<std::size_t>(day) & _mask;
        const std::vector<EventKey> &bucket = _buckets[b];
        if (!bucket.empty()) {
            const EventKey &cand = bucket.back();
            // Same floor arithmetic as bucketOf: comparing against
            // day boundaries computed by multiplication instead would
            // disagree with the mapping near the boundary (floating
            // point), skipping the minimum inside its own bucket.
            std::int64_t cand_day = static_cast<std::int64_t>(
                std::floor(cand.timeNs / _widthNs));
            if (cand_day < d0) {
                // An event behind the cursor (posted into the past —
                // the engine panics on it later, but order must stay
                // exact until then): the walk invariant is broken, so
                // fall back to the full scan.
                directScan();
                return;
            }
            if (cand_day == day) {
                _minBucket = b;
                _minValid = true;
                return;
            }
        }
    }
    // A full lap without a same-year hit: everything pending is at
    // least a calendar-year ahead. One direct scan jumps the cursor.
    directScan();
}

const EventKey &
CalendarQueue::peek() const
{
    if (_size == 0)
        panic("core::CalendarQueue: peek on empty queue");
    findMin();
    return _buckets[_minBucket].back();
}

double
CalendarQueue::nextTimeNs() const
{
    if (_size == 0)
        panic("core::CalendarQueue: nextTimeNs on empty queue");
    return peek().timeNs;
}

int
CalendarQueue::nextPriority() const
{
    if (_size == 0)
        panic("core::CalendarQueue: nextPriority on empty queue");
    return peek().priority;
}

Event
CalendarQueue::pop()
{
    if (_size == 0)
        panic("core::CalendarQueue: pop from empty queue");
    findMin();
    std::vector<EventKey> &bucket = _buckets[_minBucket];
    const EventKey key = bucket.back();
    bucket.pop_back();
    --_size;
    _minValid = false;
    _lastNs = key.timeNs;
    if (_buckets.size() > kInitialBuckets &&
        _size < _buckets.size() / 4)
        rebuild(_buckets.size() / 2);
    return Event{key.timeNs, key.priority, key.seq, _slab.take(key.slot)};
}

void
CalendarQueue::clear()
{
    for (auto &bucket : _buckets)
        bucket.clear();
    _slab.clear();
    _size = 0;
    _minValid = false;
    _lastNs = -std::numeric_limits<double>::infinity();
}

void
CalendarQueue::rebuild(std::size_t buckets)
{
    std::vector<EventKey> all;
    all.reserve(_size);
    for (auto &bucket : _buckets) {
        all.insert(all.end(), bucket.begin(), bucket.end());
        bucket.clear();
    }

    // Width estimate: spread the population's time span over the
    // population so the head region averages ~1 event per day.
    // Degenerate spans (all events at one instant) keep the previous
    // width.
    if (all.size() > 1) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const EventKey &key : all) {
            lo = std::min(lo, key.timeNs);
            hi = std::max(hi, key.timeNs);
        }
        double span = hi - lo;
        if (span > 0.0)
            _widthNs = span / static_cast<double>(all.size());
    }

    _buckets.assign(buckets, {});
    _mask = buckets - 1;
    _minValid = false;
    ++_resizes;
    for (const EventKey &key : all)
        insertSorted(_buckets[bucketOf(key.timeNs)], key);
}

} // namespace skipsim::core
