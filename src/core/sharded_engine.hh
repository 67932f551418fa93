/**
 * @file
 * Run counters of one cluster simulation (simulateCluster's optional
 * out-parameter). Diagnostics only: nothing here enters a report.
 */

#ifndef SKIPSIM_CORE_SHARDED_ENGINE_HH
#define SKIPSIM_CORE_SHARDED_ENGINE_HH

#include <cstdint>

namespace skipsim::core
{

/** Counters of one cluster run. */
struct ShardStats
{
    /** Events the run's core::Engine executed (Engine::processed()). */
    std::uint64_t events = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_SHARDED_ENGINE_HH
