/**
 * @file
 * Fixed-size worker pool over an index range. Built for experiment
 * fan-out: every unit of work is one independent grid point that
 * writes only its own result slot, so the pool needs no result
 * synchronization beyond the final join. Workers claim the next
 * unclaimed index from one shared atomic counter; grid points are
 * coarse (each simulates a forward pass or a whole cluster run), so
 * one fetch-add per point is noise and skewed costs balance without
 * any stealing protocol.
 */

#ifndef SKIPSIM_EXEC_POOL_HH
#define SKIPSIM_EXEC_POOL_HH

#include <cstddef>
#include <functional>

namespace skipsim::exec
{

/**
 * A fixed-worker-count experiment pool. Stateless between run() calls:
 * threads are spawned per run, so the pool itself is trivially
 * copyable and has no shutdown protocol. For experiment workloads
 * the per-run spawn cost is noise.
 */
class Pool
{
  public:
    /**
     * @param workers worker thread count; 0 selects hardwareWorkers().
     * @throws skipsim::FatalError for negative counts.
     */
    explicit Pool(int workers = 0);

    /** Worker threads used by run(). */
    int workers() const { return _workers; }

    /** std::thread::hardware_concurrency, clamped to >= 1. */
    static int hardwareWorkers();

    /**
     * Execute fn(i) for every i in [0, n), fanned across the workers.
     * Blocks until all indices complete. With one worker (or one
     * index) the indices run inline on the calling thread in order.
     *
     * Exceptions thrown by fn are captured; the first one (in worker
     * encounter order) is rethrown on the calling thread after every
     * worker has drained.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn) const;

  private:
    int _workers = 1;
};

} // namespace skipsim::exec

#endif // SKIPSIM_EXEC_POOL_HH
