/**
 * @file
 * Calendar queue (Brown 1988): an alternative pending-event set to the
 * 4-ary heap in core::EventQueue. Time is divided into fixed-width
 * "days" mapped onto a power-of-two ring of buckets; an event lands in
 * the bucket of its day, each bucket is kept sorted, and pop walks the
 * calendar day by day. For the near-uniform event-time distributions a
 * serving simulation produces, enqueue and dequeue are O(1) amortized
 * against the heap's O(log n).
 *
 * Order contract: identical to EventQueue — the project-wide
 * (time, priority, seq) total order, where `seq` is the push serial.
 * Storage follows EventQueue too: buckets hold plain EventKeys and the
 * closures live in a ClosureSlab.
 * The randomized differential oracle in tests/test_core.cpp drives
 * both structures with colliding timestamps and asserts byte-equal pop
 * sequences; the datacenter bench byte-compares full cluster reports
 * across queue kinds.
 */

#ifndef SKIPSIM_CORE_CALENDAR_QUEUE_HH
#define SKIPSIM_CORE_CALENDAR_QUEUE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "core/event_queue.hh"

namespace skipsim::core
{

/** Calendar of sorted day-buckets ordered by (timeNs, priority, seq). */
class CalendarQueue
{
  public:
    CalendarQueue();

    /** Schedule @p fn at @p timeNs, stamping the push serial. */
    void schedule(double timeNs, int priority, EventFn fn);

    /** Insert a fully-formed event, keeping its pre-assigned seq
     *  (same contract as EventQueue::push). */
    void push(Event &&ev);

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** Timestamp of the next event. @throws PanicError when empty. */
    double nextTimeNs() const;

    /** Priority of the next event. @throws PanicError when empty. */
    int nextPriority() const;

    /** Key of the next event without removing it. @throws PanicError
     *  when empty. The reference is invalidated by any mutation. */
    const EventKey &peek() const;

    /** Remove and return the next event under (time, priority, seq). */
    Event pop();

    /** Drop every scheduled event (the push serial keeps counting). */
    void clear();

    /** Bucket-structure rebuilds so far (test hook). */
    std::size_t resizes() const { return _resizes; }

  private:
    /** Bucket index of @p timeNs under the current width. */
    std::size_t bucketOf(double timeNs) const;

    /** Locate the global minimum and cache its bucket; requires a
     *  non-empty calendar. */
    void findMin() const;

    /** Full-ring scan fallback of findMin (first pop, far-future
     *  jumps, past-posted events). */
    void directScan() const;

    /** Rebuild with @p buckets buckets and a width estimated from the
     *  current population. */
    void rebuild(std::size_t buckets);

    void insertSorted(std::vector<EventKey> &bucket,
                      const EventKey &key);

    /** Buckets sorted descending, so bucket.back() is its minimum. */
    std::vector<std::vector<EventKey>> _buckets;
    ClosureSlab _slab;
    std::size_t _mask = 0;
    double _widthNs = 1.0;
    std::size_t _size = 0;
    std::uint64_t _nextSeq = 0;
    std::size_t _resizes = 0;

    /** Day cursor: timestamp of the most recent pop (-inf before the
     *  first one). Pops are monotone in a discrete-event run, so the
     *  calendar walk can start at this day. */
    double _lastNs = -std::numeric_limits<double>::infinity();

    /** Cached bucket holding the global minimum (lazy; peek() fills
     *  it, push() keeps it coherent, pop() invalidates it). */
    mutable bool _minValid = false;
    mutable std::size_t _minBucket = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_CALENDAR_QUEUE_HH
