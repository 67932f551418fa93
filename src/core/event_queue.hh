/**
 * @file
 * Deterministic discrete-event queue: a 4-ary min-heap keyed by
 * (time, priority, seq). `seq` is the push serial, so events that
 * collide on both timestamp and priority pop in scheduling order —
 * never in heap-internal order. This total order is the project-wide
 * tie-breaking contract (docs/core.md): every engine built on the
 * queue is reproducible event-for-event from its inputs alone,
 * independent of host threading or library internals.
 *
 * Layout: the heap holds only 24-byte trivially copyable EventKeys,
 * so sifting moves plain words. Each event's closure sits in a
 * ClosureSlab at the key's `slot`; a free list recycles slots, so a
 * run whose pending set stays bounded stops allocating once the slab
 * has grown to that bound (closures that fit std::function's 16-byte
 * inline buffer allocate nothing themselves). pop() reassembles the
 * full Event; peek() exposes only the key.
 */

#ifndef SKIPSIM_CORE_EVENT_QUEUE_HH
#define SKIPSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace skipsim::core
{

/** Event handler; receives the event's timestamp. */
using EventFn = std::function<void(double tNs)>;

/** One scheduled event. */
struct Event
{
    double timeNs = 0.0;
    int priority = 0;
    std::uint64_t seq = 0;
    EventFn fn;
};

/** Ordering key of one pending event; its closure lives in a slab. */
struct EventKey
{
    double timeNs = 0.0;
    int priority = 0;
    /** Index of the event's closure in its queue's ClosureSlab. */
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
};

static_assert(std::is_trivially_copyable_v<EventKey> &&
                  sizeof(EventKey) == 24,
              "EventKey must stay a compact plain key");

/** Closures of pending events, indexed by EventKey::slot. */
class ClosureSlab
{
  public:
    /** Store @p fn in a free slot. @return the slot. */
    std::uint32_t put(EventFn &&fn);

    /** Move the closure out of @p slot and free the slot. */
    EventFn
    take(std::uint32_t slot)
    {
        EventFn fn = std::move(_fns[slot]);
        _free.push_back(slot);
        return fn;
    }

    void
    clear()
    {
        _fns.clear();
        _free.clear();
    }

  private:
    std::vector<EventFn> _fns;
    std::vector<std::uint32_t> _free;
};

/** Min-heap of events ordered by (timeNs, priority, seq). */
class EventQueue
{
  public:
    /** Schedule @p fn at @p timeNs. Events never execute here. */
    void schedule(double timeNs, int priority, EventFn fn);

    bool empty() const { return _heap.empty(); }
    std::size_t size() const { return _heap.size(); }

    /** Timestamp of the next event. @throws PanicError when empty. */
    double nextTimeNs() const { return peek().timeNs; }

    /** Priority of the next event. @throws PanicError when empty. */
    int nextPriority() const { return peek().priority; }

    /** Key of the next event without removing it. @throws PanicError
     *  when empty. The reference is invalidated by any mutation. */
    const EventKey &peek() const;

    /** Remove and return the next event (time, then priority, then
     *  scheduling order); queue must be non-empty. */
    Event pop();

    /** Drop every scheduled event (the push serial keeps counting). */
    void
    clear()
    {
        _heap.clear();
        _slab.clear();
    }

  private:
    std::vector<EventKey> _heap;
    ClosureSlab _slab;
    std::uint64_t _nextSeq = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_EVENT_QUEUE_HH
