#include "core/sharded_engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace skipsim::core
{

namespace
{

/** Executing-window context of the current thread. `engine` is the
 *  routing discriminator: postings and defer() calls made while it
 *  matches belong to the window of shard `shard`. */
struct WindowTls
{
    const void *engine = nullptr;
    std::size_t worker = 0;
    std::size_t shard = 0;
    double winEnd = 0.0;
    /** Timestamp of the event currently executing — the value a
     *  sequential run's clock would hold. */
    double localNow = 0.0;
};

thread_local WindowTls t_window;

} // namespace

double
ShardedEngine::Shard::nowNs() const
{
    if (t_window.engine == &_owner)
        return t_window.localNow;
    return _owner.nowNs();
}

void
ShardedEngine::Shard::at(double tNs, int priority, EventFn fn)
{
    _owner.post(_index, tNs, priority, std::move(fn), /*unsafe=*/false);
}

ShardedEngine::ShardedEngine(std::size_t shards, const Options &opts)
    : _lookaheadNs(opts.lookaheadNs),
      _safeCrossNs(opts.safeCrossNs < 0.0 ? opts.lookaheadNs
                                          : opts.safeCrossNs),
      _threads(opts.threads)
{
    if (shards == 0)
        panic("core::ShardedEngine: shard count must be >= 1");
    if (opts.lookaheadNs < 0.0)
        panic("core::ShardedEngine: negative lookahead");
    if (opts.threads < 1)
        panic("core::ShardedEngine: thread count must be >= 1");
    _shards.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        _shards.emplace_back(new Shard(*this, i, opts.queueKind));
    _stats.shards = shards;
    _stats.threads = _threads;
    _stats.lookaheadNs = opts.lookaheadNs;
}

ShardedEngine::~ShardedEngine()
{
    stopTeam();
}

ShardedEngine::Shard &
ShardedEngine::shard(std::size_t index)
{
    if (index >= _shards.size())
        panic("core::ShardedEngine: shard index out of range");
    return *_shards[index];
}

void
ShardedEngine::deliver(std::size_t target, Event &&ev, bool unsafeTag)
{
    Shard &sh = *_shards[target];
    (unsafeTag ? sh._unsafe : sh._safe).push(std::move(ev));
}

void
ShardedEngine::post(std::size_t target, double tNs, int priority,
                    EventFn &&fn, bool unsafeTag)
{
    if (t_window.engine == this) {
        parallelPost(t_window.shard, target, tNs, priority,
                     std::move(fn), unsafeTag);
        return;
    }
    Event ev;
    ev.timeNs = tNs;
    ev.priority = priority;
    ev.seq = _nextSeq++;
    ev.fn = std::move(fn);
    if (_running != npos && _running != target) {
        ++_stats.crossShardMessages;
        if (_lookaheadNs > 0.0 && tNs < _clock.nowNs() + _lookaheadNs)
            ++_stats.lookaheadViolations;
    }
    deliver(target, std::move(ev), unsafeTag);
}

void
ShardedEngine::parallelPost(std::size_t src, std::size_t target,
                            double tNs, int priority, EventFn &&fn,
                            bool unsafeTag)
{
    Shard &sh = *_shards[src];
    if (target == src && !unsafeTag && tNs < t_window.winEnd) {
        // Lands inside the executing window: push straight into the
        // shard's own queue under a provisional serial. kIntraBit
        // sorts it after every final serial at the same (time,
        // priority) — correct, because every final serial already in
        // the queue predates the window — and intra postings compare
        // among themselves in posting order, which is final order.
        Event ev;
        ev.timeNs = tNs;
        ev.priority = priority;
        ev.seq = kIntraBit | sh._intraCount++;
        ev.fn = std::move(fn);
        sh._safe.push(std::move(ev));
        sh._postIntra.push_back(1);
        return;
    }
    // Survives the window: ship to the coordinator, which assigns the
    // final serial at replay. `order` self-describes the posting so
    // mailbox/spill interleaving never perturbs the replay.
    SurvivorMsg msg;
    msg.src = static_cast<std::uint32_t>(src);
    msg.order = static_cast<std::uint32_t>(sh._postIntra.size());
    msg.target = static_cast<std::uint32_t>(target);
    msg.unsafeTag = unsafeTag ? 1 : 0;
    msg.ev.timeNs = tNs;
    msg.ev.priority = priority;
    msg.ev.fn = std::move(fn);
    sh._postIntra.push_back(0);
    if (!_mail.tryPush(std::move(msg)))
        _spill[t_window.worker].push_back(std::move(msg));
}

bool
ShardedEngine::inParallelWindow() const
{
    return t_window.engine == this;
}

void
ShardedEngine::journalDefer(std::function<void()> fn)
{
    _shards[t_window.shard]->_defers.push_back(std::move(fn));
}

ShardedEngine::Head
ShardedEngine::globalMin() const
{
    Head best;
    const EventKey *bestEv = nullptr;
    for (std::size_t s = 0; s < _shards.size(); ++s) {
        const Shard &sh = *_shards[s];
        if (!sh._safe.empty()) {
            const EventKey &cand = sh._safe.peek();
            if (bestEv == nullptr || executesBefore(cand, *bestEv)) {
                best.shard = s;
                best.fromUnsafe = false;
                bestEv = &cand;
            }
        }
        if (!sh._unsafe.empty()) {
            const EventKey &cand = sh._unsafe.peek();
            if (bestEv == nullptr || executesBefore(cand, *bestEv)) {
                best.shard = s;
                best.fromUnsafe = true;
                bestEv = &cand;
            }
        }
    }
    return best;
}

const EventKey &
ShardedEngine::headEvent(const Head &head) const
{
    const Shard &sh = *_shards[head.shard];
    return (head.fromUnsafe ? sh._unsafe : sh._safe).peek();
}

std::size_t
ShardedEngine::run()
{
    if (_threads <= 1 || _shards.size() == 1)
        return runSequential();
    return runThreaded();
}

std::size_t
ShardedEngine::runSequential()
{
    std::size_t processed = 0;
    for (;;) {
        Head head = globalMin();
        if (head.shard == npos)
            break;
        // Open a window at the earliest pending event; everything up
        // to the lookahead horizon is safe to execute because no
        // cross-shard interaction can land sooner.
        const double windowEnd = headEvent(head).timeNs + _lookaheadNs;
        ++_stats.windows;
        while (head.shard != npos &&
               headEvent(head).timeNs <= windowEnd) {
            Shard &sh = *_shards[head.shard];
            Event ev = (head.fromUnsafe ? sh._unsafe : sh._safe).pop();
            if (_beforeEvent)
                _beforeEvent(ev.timeNs);
            _clock.advanceTo(ev.timeNs);
            ++_stats.events;
            ++processed;
            _running = head.shard;
            if (ev.fn)
                ev.fn(ev.timeNs);
            _running = npos;
            // Re-pick over every head: handlers push straight into
            // the target queues under the global serial, so the merge
            // always sees the true global minimum — this is what
            // keeps the sharded order identical to the one-queue
            // order at any shard count.
            head = globalMin();
        }
    }
    return processed;
}

std::size_t
ShardedEngine::runThreaded()
{
    startTeam();
    std::size_t processed = 0;
    try {
        for (;;) {
            Head head = globalMin();
            if (head.shard == npos)
                break;
            const double headNs = headEvent(head).timeNs;
            // The hook fires before the window bound is computed so a
            // sampling hook's own sync point has already advanced past
            // headNs — windows then never span a pending boundary.
            if (_beforeEvent)
                _beforeEvent(headNs);
            if (head.fromUnsafe) {
                sequentialStepOne(head);
                ++processed;
                continue;
            }
            double windowEnd = headNs + _safeCrossNs;
            for (const auto &sh : _shards)
                if (!sh->_unsafe.empty())
                    windowEnd =
                        std::min(windowEnd, sh->_unsafe.nextTimeNs());
            if (_syncPoint) {
                const double sync = _syncPoint(headNs);
                if (sync > headNs)
                    windowEnd = std::min(windowEnd, sync);
            }
            if (!(windowEnd > headNs)) {
                // Empty (or NaN) window: degrade to one step.
                sequentialStepOne(head);
                ++processed;
                continue;
            }
            _actives.clear();
            for (std::size_t s = 0; s < _shards.size(); ++s) {
                const Shard &sh = *_shards[s];
                if (!sh._safe.empty() &&
                    sh._safe.nextTimeNs() < windowEnd)
                    _actives.push_back(s);
            }
            if (_actives.size() < 2) {
                // One busy shard parallelizes nothing; keep the
                // cheaper sequential step.
                sequentialStepOne(head);
                ++processed;
                continue;
            }
            processed += parallelWindow(windowEnd);
            if (workerFailed())
                break;
        }
    } catch (...) {
        stopTeam();
        throw;
    }
    stopTeam();
    if (_workerError) {
        std::exception_ptr err = _workerError;
        _workerError = nullptr;
        std::rethrow_exception(err);
    }
    return processed;
}

void
ShardedEngine::sequentialStepOne(const Head &head)
{
    Shard &sh = *_shards[head.shard];
    Event ev = (head.fromUnsafe ? sh._unsafe : sh._safe).pop();
    _clock.advanceTo(ev.timeNs);
    ++_stats.windows;
    ++_stats.events;
    _running = head.shard;
    if (ev.fn)
        ev.fn(ev.timeNs);
    _running = npos;
}

std::size_t
ShardedEngine::parallelWindow(double windowEnd)
{
    _winEnd = windowEnd;
    ++_stats.windows;
    ++_stats.parallelWindows;
    const std::size_t team = _team.size();
    _doneCount.store(0, std::memory_order_relaxed);
    _windowSeq.fetch_add(1, std::memory_order_release);
    _windowSeq.notify_all();

    // Drain the survivor mailbox concurrently with the window: the
    // workers produce, this thread consumes. Overflow past the bounded
    // capacity spilled to per-worker vectors and is merged after the
    // barrier.
    SurvivorMsg msg;
    std::size_t idle = 0;
    while (_doneCount.load(std::memory_order_acquire) < team) {
        if (_mail.tryPop(msg)) {
            _buckets[msg.src].push_back(std::move(msg));
            idle = 0;
        } else if (++idle < 64) {
            std::this_thread::yield();
        } else {
            const std::size_t done =
                _doneCount.load(std::memory_order_acquire);
            if (done < team)
                _doneCount.wait(done, std::memory_order_acquire);
            idle = 0;
        }
    }
    while (_mail.tryPop(msg))
        _buckets[msg.src].push_back(std::move(msg));
    for (auto &spill : _spill) {
        for (SurvivorMsg &spilled : spill)
            _buckets[spilled.src].push_back(std::move(spilled));
        spill.clear();
    }
    if (workerFailed())
        return 0; // runThreaded stops the team and rethrows.
    return replayWindow();
}

std::size_t
ShardedEngine::replayWindow()
{
    // Survivors of one source shard may interleave between the
    // mailbox and the spill vector; `order` restores posting order.
    for (std::size_t s : _actives) {
        auto &bucket = _buckets[s];
        std::sort(bucket.begin(), bucket.end(),
                  [](const SurvivorMsg &a, const SurvivorMsg &b) {
                      return a.order < b.order;
                  });
        Shard &sh = *_shards[s];
        sh._intraFinal.assign(
            static_cast<std::size_t>(sh._intraCount), 0);
    }

    // K-way merge over the per-shard execution logs. A log head's
    // provisional serial always resolves: the posting event precedes
    // the posted event in the same shard's log, so its final serial
    // was assigned by an earlier commit.
    struct Cursor
    {
        std::size_t log = 0;
        std::size_t post = 0;
        std::size_t survivor = 0;
        std::size_t defer = 0;
        std::uint64_t intra = 0;
    };
    std::vector<Cursor> cursors(_actives.size());
    const auto resolvedSeq = [this](const Shard &sh,
                                    const Shard::ExecRec &rec) {
        if (rec.seq & kIntraBit)
            return sh._intraFinal[static_cast<std::size_t>(
                rec.seq & ~kIntraBit)];
        return rec.seq;
    };

    std::size_t committed = 0;
    for (;;) {
        std::size_t bestIdx = npos;
        double bestNs = 0.0;
        int bestPrio = 0;
        std::uint64_t bestSeq = 0;
        for (std::size_t i = 0; i < _actives.size(); ++i) {
            const Shard &sh = *_shards[_actives[i]];
            if (cursors[i].log == sh._log.size())
                continue;
            const Shard::ExecRec &rec = sh._log[cursors[i].log];
            const std::uint64_t seq = resolvedSeq(sh, rec);
            if (bestIdx == npos || rec.timeNs < bestNs ||
                (rec.timeNs == bestNs &&
                 (rec.priority < bestPrio ||
                  (rec.priority == bestPrio && seq < bestSeq)))) {
                bestIdx = i;
                bestNs = rec.timeNs;
                bestPrio = rec.priority;
                bestSeq = seq;
            }
        }
        if (bestIdx == npos)
            break;

        // Commit: the sequential run would execute exactly this event
        // now, so reproduce its observable effects in order — clock,
        // posting serials, survivor delivery, deferred side effects.
        const std::size_t shardIdx = _actives[bestIdx];
        Shard &sh = *_shards[shardIdx];
        Cursor &cur = cursors[bestIdx];
        const Shard::ExecRec &rec = sh._log[cur.log];
        _clock.advanceTo(rec.timeNs);
        ++_stats.events;
        ++_stats.parallelEvents;
        ++committed;
        auto &bucket = _buckets[shardIdx];
        for (; cur.post < rec.postEnd; ++cur.post) {
            const std::uint64_t finalSeq = _nextSeq++;
            if (sh._postIntra[cur.post]) {
                sh._intraFinal[static_cast<std::size_t>(cur.intra++)] =
                    finalSeq;
                continue;
            }
            if (cur.survivor == bucket.size())
                panic("core::ShardedEngine: window survivor lost in "
                      "transit");
            SurvivorMsg &sv = bucket[cur.survivor++];
            if (sv.order != cur.post)
                panic("core::ShardedEngine: survivor replay order "
                      "mismatch");
            sv.ev.seq = finalSeq;
            const std::size_t target = sv.target;
            if (target != shardIdx) {
                ++_stats.crossShardMessages;
                if (_lookaheadNs > 0.0 &&
                    sv.ev.timeNs < rec.timeNs + _lookaheadNs)
                    ++_stats.lookaheadViolations;
            }
            if (sv.ev.timeNs < _winEnd)
                panic("core::ShardedEngine: cross-shard or unsafe "
                      "posting landed inside a parallel window "
                      "(safeCrossNs overpromised)");
            deliver(target, std::move(sv.ev), sv.unsafeTag != 0);
        }
        for (; cur.defer < rec.deferEnd; ++cur.defer)
            sh._defers[cur.defer]();
        ++cur.log;
    }

    for (std::size_t i = 0; i < _actives.size(); ++i) {
        Shard &sh = *_shards[_actives[i]];
        const Cursor &cur = cursors[i];
        if (cur.post != sh._postIntra.size() ||
            cur.survivor != _buckets[_actives[i]].size() ||
            cur.defer != sh._defers.size() ||
            cur.intra != sh._intraCount)
            panic("core::ShardedEngine: window journal not fully "
                  "replayed");
        sh._log.clear();
        sh._postIntra.clear();
        sh._defers.clear();
        sh._intraCount = 0;
        sh._intraFinal.clear();
        _buckets[_actives[i]].clear();
    }
    return committed;
}

void
ShardedEngine::runShardWindow(std::size_t shardIdx, std::size_t worker)
{
    Shard &sh = *_shards[shardIdx];
    t_window.engine = this;
    t_window.worker = worker;
    t_window.shard = shardIdx;
    t_window.winEnd = _winEnd;
    while (!sh._safe.empty() && sh._safe.nextTimeNs() < _winEnd) {
        Event ev = sh._safe.pop();
        t_window.localNow = ev.timeNs;
        if (ev.fn)
            ev.fn(ev.timeNs);
        sh._log.push_back(Shard::ExecRec{
            ev.timeNs, ev.priority, ev.seq,
            static_cast<std::uint32_t>(sh._postIntra.size()),
            static_cast<std::uint32_t>(sh._defers.size())});
    }
    t_window = WindowTls{};
}

void
ShardedEngine::windowWork(std::size_t worker)
{
    WorkStealDeque<std::uint64_t> &own = *_deques[worker];
    const std::size_t team = _team.size();
    for (std::size_t i = worker; i < _actives.size(); i += team)
        own.push(static_cast<std::uint64_t>(_actives[i]));
    std::uint64_t shardIdx = 0;
    for (;;) {
        while (own.tryPop(shardIdx))
            runShardWindow(static_cast<std::size_t>(shardIdx), worker);
        bool stole = false;
        {
            EpochReclaimer::Guard guard(*_reclaimer, worker);
            for (std::size_t v = 1; v < team && !stole; ++v)
                stole = _deques[(worker + v) % team]->steal(shardIdx);
        }
        if (!stole)
            break; // Own deque empty and one full sweep came up dry;
                   // still-running peers drain their own deques.
        runShardWindow(static_cast<std::size_t>(shardIdx), worker);
    }
}

void
ShardedEngine::workerMain(std::size_t worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t current =
            _windowSeq.load(std::memory_order_acquire);
        std::size_t spins = 0;
        while (current == seen) {
            if (++spins < 64)
                std::this_thread::yield();
            else
                _windowSeq.wait(current, std::memory_order_acquire);
            current = _windowSeq.load(std::memory_order_acquire);
        }
        seen = current;
        if (_shutdown.load(std::memory_order_acquire))
            return;
        try {
            windowWork(worker);
        } catch (...) {
            recordWorkerError();
            // Drop the rest of this worker's share so the barrier is
            // still reached; the coordinator rethrows after joining.
            std::uint64_t discard = 0;
            while (_deques[worker]->tryPop(discard)) {
            }
            t_window = WindowTls{};
        }
        _doneCount.fetch_add(1, std::memory_order_release);
        _doneCount.notify_all();
    }
}

void
ShardedEngine::recordWorkerError()
{
    std::lock_guard<std::mutex> lock(_errorMu);
    if (!_workerError)
        _workerError = std::current_exception();
}

bool
ShardedEngine::workerFailed()
{
    std::lock_guard<std::mutex> lock(_errorMu);
    return static_cast<bool>(_workerError);
}

void
ShardedEngine::startTeam()
{
    if (!_team.empty())
        return;
    _reclaimer = std::make_unique<EpochReclaimer>(_threads);
    _deques.clear();
    for (std::size_t w = 0; w < _threads; ++w)
        _deques.push_back(
            std::make_unique<WorkStealDeque<std::uint64_t>>(
                *_reclaimer));
    _spill.assign(_threads, {});
    _buckets.assign(_shards.size(), {});
    _shutdown.store(false, std::memory_order_relaxed);
    _team.reserve(_threads);
    for (std::size_t w = 0; w < _threads; ++w)
        _team.emplace_back([this, w] { workerMain(w); });
}

void
ShardedEngine::stopTeam()
{
    if (_team.empty())
        return;
    _shutdown.store(true, std::memory_order_release);
    _windowSeq.fetch_add(1, std::memory_order_release);
    _windowSeq.notify_all();
    for (std::thread &worker : _team)
        worker.join();
    _team.clear();
    _deques.clear();
    if (_reclaimer) {
        _reclaimer->drain();
        _reclaimer.reset();
    }
}

bool
ShardedEngine::idle() const
{
    for (const auto &sh : _shards)
        if (!sh->_safe.empty() || !sh->_unsafe.empty())
            return false;
    return true;
}

std::size_t
ShardedEngine::pendingEvents() const
{
    std::size_t total = 0;
    for (const auto &sh : _shards)
        total += sh->_safe.size() + sh->_unsafe.size();
    return total;
}

} // namespace skipsim::core
