/**
 * @file
 * Partitioned discrete-event engine: K per-shard pending-event sets
 * advanced under conservative time-windowed synchronization, either by
 * one merge loop (threads == 1) or by a worker team that executes
 * whole shard windows in parallel (threads > 1). In both modes the
 * executed event sequence — and therefore every report, probe export
 * and span export — is byte-for-byte the one a single-queue
 * core::Engine would produce. That is the contract the cluster
 * simulator's shard-identity goldens lock (docs/core.md, "Sharded
 * execution" and "Threading model").
 *
 * Sequential mode picks the globally minimal event under the
 * project-wide (time, priority, seq) order with a single global push
 * serial; cross-shard postings push straight into the target queue
 * (the pick always re-scans every head, so a mailbox stage would be
 * an exact no-op — earlier inboxes were flushed before every pick).
 *
 * Threaded mode partitions events into two classes, tagged at posting
 * time by which scheduler facet posted them:
 *
 *  - "safe" events (Shard::at, the default) only touch state owned by
 *    their shard and only post cross-shard or unsafe at least
 *    safeCrossNs into the future;
 *  - "unsafe" events (Shard::unsafeScheduler — e.g. a cluster's
 *    router arrivals and fault handlers) may read or write global
 *    state and post anywhere.
 *
 * Unsafe events always execute sequentially at the global minimum.
 * When the global minimum is safe, the loop opens a window [T, wEnd)
 * bounded by the earliest unsafe head, the next declared sync point
 * (observability boundaries) and T + safeCrossNs, and fans the active
 * shards across the worker team: each worker drains its own shards
 * and steals the rest through Chase–Lev deques. A worker executes its
 * shard's events in shard-local order, journaling intra-shard
 * postings with provisional serials, shipping cross-window postings
 * ("survivors") through a bounded MPSC mailbox the coordinator drains
 * concurrently, and journaling defer()ed global side effects. At the
 * window barrier the coordinator replays the per-shard execution logs
 * in exact (time, priority, seq) order, assigning the same global
 * serials a sequential run would have and running the deferred
 * effects in commit order — which is what makes the parallel run
 * byte-identical, not merely equivalent.
 */

#ifndef SKIPSIM_CORE_SHARDED_ENGINE_HH
#define SKIPSIM_CORE_SHARDED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/any_queue.hh"
#include "core/clock.hh"
#include "core/engine.hh"
#include "core/epoch_reclaimer.hh"
#include "core/event_queue.hh"
#include "core/mpsc_queue.hh"
#include "core/worksteal_deque.hh"

namespace skipsim::core
{

/** Synchronization counters of one sharded run (not part of any
 *  report JSON — execution topology must not leak into results). */
struct ShardStats
{
    std::size_t shards = 0;
    /** Execution threads the run was configured with. */
    std::size_t threads = 1;
    /** Events executed across all shards. */
    std::uint64_t events = 0;
    /** Synchronization intervals: lookahead windows in sequential
     *  mode; parallel windows plus single sequential steps in
     *  threaded mode. */
    std::uint64_t windows = 0;
    /** Windows executed by the worker team (threaded mode only). */
    std::uint64_t parallelWindows = 0;
    /** Events executed inside parallel windows. */
    std::uint64_t parallelEvents = 0;
    /** Events posted from a handler on one shard onto another. */
    std::uint64_t crossShardMessages = 0;
    /** Cross-shard messages that arrived closer than the lookahead
     *  promised — zero on a correctly derived lookahead. */
    std::uint64_t lookaheadViolations = 0;
    /** Lookahead the run was configured with. */
    double lookaheadNs = 0.0;
};

/** K shard queues + one clock + the windowed merge loop. */
class ShardedEngine
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Execution configuration beyond the shard count. */
    struct Options
    {
        /** Minimum cross-shard latency of the model: a handler on one
         *  shard never affects another sooner than this. Zero
         *  collapses sequential windows to a single timestamp. */
        double lookaheadNs = 0.0;

        /** Worker threads for parallel windows; <= 1 runs the classic
         *  sequential merge loop. (The calling thread additionally
         *  coordinates windows and drains the survivor mailbox.) */
        std::size_t threads = 1;

        /** Minimum latency of a *safe* event's cross-shard or unsafe
         *  postings; caps parallel windows at T + safeCrossNs.
         *  Negative (the default) falls back to lookaheadNs;
         *  +infinity declares that safe events only ever post onto
         *  their own shard's safe queue (windows bounded only by
         *  unsafe heads and sync points). */
        double safeCrossNs = -1.0;

        /** Pending-set implementation for every shard queue. */
        QueueKind queueKind = defaultQueueKind();
    };

    /**
     * One shard's scheduling surface. Processes pinned to the shard
     * hold it as their core::Scheduler; postings route through the
     * owner so the global serial stays centralized. Events posted via
     * the Shard itself are tagged parallel-safe: their handlers may
     * only touch state owned by this shard (plus engine.defer() for
     * global effects). Events posted via unsafeScheduler() always
     * execute sequentially at the global minimum and may touch
     * anything — the tag rides with the event, so one shard can host
     * both classes (a cluster's shard 0 runs the router *and* its
     * share of replicas).
     */
    class Shard final : public Scheduler
    {
      public:
        /** Inside a parallel window this is the executing event's
         *  timestamp (the exact value a sequential run would see);
         *  otherwise the engine clock. */
        double nowNs() const override;
        void at(double tNs, int priority, EventFn fn) override;
        std::size_t index() const { return _index; }

        /** Scheduling facet whose postings are tagged unsafe. */
        Scheduler &unsafeScheduler() { return _unsafeFacet; }

      private:
        friend class ShardedEngine;

        /** Facet tagging postings unsafe; see Shard comment. */
        class UnsafeFacet final : public Scheduler
        {
          public:
            explicit UnsafeFacet(Shard &shard) : _shard(shard) {}
            double nowNs() const override { return _shard.nowNs(); }
            void
            at(double tNs, int priority, EventFn fn) override
            {
                _shard._owner.post(_shard._index, tNs, priority,
                                   std::move(fn), /*unsafe=*/true);
            }

          private:
            Shard &_shard;
        };

        Shard(ShardedEngine &owner, std::size_t index, QueueKind kind)
            : _owner(owner), _index(index), _safe(kind), _unsafe(kind),
              _unsafeFacet(*this)
        {
        }

        /** One executed event of the current parallel window. */
        struct ExecRec
        {
            double timeNs;
            int priority;
            /** Final serial, or kIntraBit | intra ordinal. */
            std::uint64_t seq;
            /** Ends (exclusive) of this event's slices of _postIntra
             *  and _defers; begins are the previous record's ends. */
            std::uint32_t postEnd;
            std::uint32_t deferEnd;
        };

        ShardedEngine &_owner;
        std::size_t _index;
        AnyQueue _safe;
        AnyQueue _unsafe;
        UnsafeFacet _unsafeFacet;

        /** @name Parallel-window journal
         *  Written only by the worker executing this shard's window;
         *  read and cleared by the coordinator at the barrier.
         *  @{ */
        std::vector<ExecRec> _log;
        /** One entry per posting, in posting order: 1 = intra-shard
         *  (provisional serial), 0 = survivor (mailboxed). */
        std::vector<std::uint8_t> _postIntra;
        /** Journaled defer() closures, in call order. */
        std::vector<std::function<void()>> _defers;
        /** Intra-shard postings so far this window (provisional
         *  serials 0.._intraCount-1 under kIntraBit). */
        std::uint64_t _intraCount = 0;
        /** Final serial of each intra posting, filled at replay. */
        std::vector<std::uint64_t> _intraFinal;
        /** @} */
    };

    /** Classic two-argument form: sequential, default queue kind. */
    explicit ShardedEngine(std::size_t shards, double lookaheadNs = 0.0)
        : ShardedEngine(shards, Options{lookaheadNs})
    {
    }

    /**
     * @param shards number of partitions (>= 1).
     * @param opts   execution options; see Options.
     */
    ShardedEngine(std::size_t shards, const Options &opts);
    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;
    ~ShardedEngine();

    Shard &shard(std::size_t index);
    std::size_t shardCount() const { return _shards.size(); }

    double nowNs() const { return _clock.nowNs(); }
    const Clock &clock() const { return _clock; }
    double lookaheadNs() const { return _lookaheadNs; }
    std::size_t threads() const { return _threads; }

    /** Pre-event hook, same contract as Engine::onBeforeEvent. In
     *  threaded mode it fires once per sequential step and once per
     *  parallel window (with the window's first event time) — the
     *  observable effect is identical because windows never span a
     *  declared sync point. */
    void
    onBeforeEvent(EventFn hook)
    {
        _beforeEvent = std::move(hook);
    }

    /**
     * Declare the model's synchronization points (e.g. probe-sampling
     * boundaries): @p fn(t) returns the first point strictly after
     * @p t, and parallel windows never extend across it. Values <= t
     * mean "no constraint". Without a hook that samples state, no
     * sync-point function is needed.
     */
    void
    setSyncPoint(std::function<double(double)> fn)
    {
        _syncPoint = std::move(fn);
    }

    /**
     * Run @p fn's global side effects at this event's commit point:
     * immediately when called outside a parallel window, or at the
     * window barrier — in exact global event order — when called from
     * a handler executing inside one. Handlers of safe events that
     * must touch state owned outside their shard (routers, global
     * accumulators, ordered exports) wrap those writes in defer();
     * everything shard-local stays inline. Deferred closures must not
     * post events. Only a journaled call is wrapped in a
     * std::function; the inline path calls @p fn directly, so
     * sequential runs pay no allocation for it.
     */
    template <class F>
    void
    defer(F &&fn)
    {
        if (inParallelWindow())
            journalDefer(std::function<void()>(std::forward<F>(fn)));
        else
            fn();
    }

    /** Run until every queue drains. @return events processed. */
    std::size_t run();

    bool idle() const;
    std::size_t pendingEvents() const;

    const ShardStats &stats() const { return _stats; }

  private:
    /** Provisional-serial tag: sorts after every final serial at the
     *  same (time, priority), which is exactly where an intra-window
     *  posting belongs — every final serial in the queue predates the
     *  window. */
    static constexpr std::uint64_t kIntraBit = std::uint64_t{1} << 63;

    /** A cross-window posting shipped through the survivor mailbox. */
    struct SurvivorMsg
    {
        std::uint32_t src = 0;    ///< posting shard
        std::uint32_t order = 0;  ///< index into the source shard's
                                  ///< posting journal (sort key)
        std::uint32_t target = 0; ///< destination shard
        std::uint8_t unsafeTag = 0;
        Event ev;                 ///< seq assigned at replay
    };

    /** Head of a shard's pending events (which queue it came from). */
    struct Head
    {
        std::size_t shard = npos;
        bool fromUnsafe = false;
    };

    /** True on a worker thread executing one of this engine's
     *  parallel windows. */
    bool inParallelWindow() const;
    /** Journal a defer() made inside the executing window. */
    void journalDefer(std::function<void()> fn);

    void post(std::size_t target, double tNs, int priority, EventFn &&fn,
              bool unsafeTag);
    /** Route a posting made inside a parallel window. */
    void parallelPost(std::size_t src, std::size_t target, double tNs,
                      int priority, EventFn &&fn, bool unsafeTag);
    /** Push a final-serial event into @p target's queue by tag. */
    void deliver(std::size_t target, Event &&ev, bool unsafeTag);

    /** Globally minimal head under (time, priority, seq); shard ==
     *  npos when every queue is empty. */
    Head globalMin() const;
    const EventKey &headEvent(const Head &head) const;

    std::size_t runSequential();
    std::size_t runThreaded();
    /** Execute the single event at @p head sequentially (threaded
     *  mode; the hook already fired). */
    void sequentialStepOne(const Head &head);
    /** Execute one parallel window over _actives. @return events. */
    std::size_t parallelWindow(double windowEnd);
    /** Drain one shard's window on a worker thread. */
    void runShardWindow(std::size_t shard, std::size_t worker);
    /** Deterministic barrier replay; assigns final serials, delivers
     *  survivors and runs deferred effects in commit order. */
    std::size_t replayWindow();

    void startTeam();
    void stopTeam();
    void workerMain(std::size_t worker);
    /** One worker's share of the current window. */
    void windowWork(std::size_t worker);
    void recordWorkerError();
    bool workerFailed();

    std::vector<std::unique_ptr<Shard>> _shards;
    Clock _clock;
    EventFn _beforeEvent;
    std::function<double(double)> _syncPoint;
    double _lookaheadNs = 0.0;
    double _safeCrossNs = 0.0;
    std::size_t _threads = 1;
    /** Shard whose handler is currently executing sequentially; npos
     *  outside the run loop (setup postings are never cross-shard). */
    std::size_t _running = npos;
    /** Global push serial: the single sequence every shard stamps
     *  from, which is what makes the K-way merge reproduce the
     *  one-queue order. */
    std::uint64_t _nextSeq = 0;
    ShardStats _stats;

    /** @name Worker-team state (threaded mode)
     *  @{ */
    std::vector<std::thread> _team;
    /** Window generation; bumped (release) to publish a window, woken
     *  via atomic notify. */
    std::atomic<std::uint64_t> _windowSeq{0};
    /** Workers finished with the current window. */
    std::atomic<std::size_t> _doneCount{0};
    std::atomic<bool> _shutdown{false};
    std::mutex _errorMu;
    std::exception_ptr _workerError;

    /** Published before the _windowSeq bump; read-only to workers. */
    double _winEnd = 0.0;
    std::vector<std::size_t> _actives;

    /** Cross-window postings: workers produce concurrently, the
     *  coordinator consumes while the window runs. Overflow spills to
     *  the producing worker's local vector (blocking would deadlock
     *  against the barrier). */
    MpscQueue<SurvivorMsg> _mail{1024};
    std::vector<std::vector<SurvivorMsg>> _spill;
    /** Survivors bucketed per source shard for the replay. */
    std::vector<std::vector<SurvivorMsg>> _buckets;

    /** Epoch domain for the deques' retired rings. */
    std::unique_ptr<EpochReclaimer> _reclaimer;
    /** One shard-distribution deque per worker. */
    std::vector<std::unique_ptr<WorkStealDeque<std::uint64_t>>> _deques;
    /** @} */
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_SHARDED_ENGINE_HH
