/**
 * @file
 * Queue-kind selection for the engines: the 4-ary heap
 * (core::EventQueue) or the calendar queue (core::CalendarQueue)
 * behind one concrete wrapper. Both structures implement the same
 * (time, priority, seq) total order, so the choice is invisible in
 * simulation output — `--queue calendar` is a pure pending-set-
 * implementation switch, locked by the randomized differential oracle
 * and the datacenter bench's byte-compare across kinds.
 *
 * AnyQueue dispatches on a per-instance kind with an ordinary branch
 * rather than virtual calls: the branch is perfectly predicted in the
 * run loop and keeps both implementations inlineable, which matters on
 * the hottest path in the project.
 */

#ifndef SKIPSIM_CORE_ANY_QUEUE_HH
#define SKIPSIM_CORE_ANY_QUEUE_HH

#include <string>

#include "core/calendar_queue.hh"
#include "core/event_queue.hh"

namespace skipsim::core
{

/** Pending-event-set implementations selectable at engine build. */
enum class QueueKind
{
    Heap,    ///< 4-ary min-heap (core::EventQueue)
    Calendar ///< calendar queue (core::CalendarQueue)
};

/** Process-wide default used by engines constructed without an
 *  explicit kind (the CLI's --queue flag sets it once at startup;
 *  not thread-safe against concurrently constructing engines). */
QueueKind defaultQueueKind();
void setDefaultQueueKind(QueueKind kind);

/** @return the kind named by @p name ("heap" or "calendar").
 *  @throws FatalError on anything else, naming the valid values. */
QueueKind queueKindFromName(const std::string &name);

/** One pending-event set of the selected kind. */
class AnyQueue
{
  public:
    explicit AnyQueue(QueueKind kind = defaultQueueKind())
        : _kind(kind)
    {
    }

    QueueKind kind() const { return _kind; }

    void
    schedule(double timeNs, int priority, EventFn fn)
    {
        if (_kind == QueueKind::Heap)
            _heap.schedule(timeNs, priority, std::move(fn));
        else
            _calendar.schedule(timeNs, priority, std::move(fn));
    }

    void
    push(Event &&ev)
    {
        if (_kind == QueueKind::Heap)
            _heap.push(std::move(ev));
        else
            _calendar.push(std::move(ev));
    }

    bool
    empty() const
    {
        return _kind == QueueKind::Heap ? _heap.empty()
                                        : _calendar.empty();
    }

    std::size_t
    size() const
    {
        return _kind == QueueKind::Heap ? _heap.size()
                                        : _calendar.size();
    }

    double
    nextTimeNs() const
    {
        return _kind == QueueKind::Heap ? _heap.nextTimeNs()
                                        : _calendar.nextTimeNs();
    }

    int
    nextPriority() const
    {
        return _kind == QueueKind::Heap ? _heap.nextPriority()
                                        : _calendar.nextPriority();
    }

    const EventKey &
    peek() const
    {
        return _kind == QueueKind::Heap ? _heap.peek()
                                        : _calendar.peek();
    }

    Event
    pop()
    {
        return _kind == QueueKind::Heap ? _heap.pop()
                                        : _calendar.pop();
    }

    void
    clear()
    {
        if (_kind == QueueKind::Heap)
            _heap.clear();
        else
            _calendar.clear();
    }

  private:
    QueueKind _kind;
    EventQueue _heap;
    CalendarQueue _calendar;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_ANY_QUEUE_HH
