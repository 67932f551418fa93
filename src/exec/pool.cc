#include "exec/pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace skipsim::exec
{

Pool::Pool(int workers)
{
    if (workers < 0)
        fatal("exec::Pool: worker count must be >= 0");
    _workers = workers == 0 ? hardwareWorkers() : workers;
}

int
Pool::hardwareWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
Pool::run(std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;

    if (_workers == 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker_main = [&] {
        try {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error)
                first_error = std::current_exception();
        }
    };

    const std::size_t workers =
        std::min(static_cast<std::size_t>(_workers), n);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(worker_main);
    for (auto &thread : threads)
        thread.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace skipsim::exec
