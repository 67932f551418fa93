/**
 * @file
 * Fusion recommendation reports: run the proximity-score sweep over a
 * trace and render the per-length statistics and the top recommended
 * chains, the way SKIP's recommendation framework reports them.
 */

#ifndef SKIPSIM_FUSION_RECOMMEND_HH
#define SKIPSIM_FUSION_RECOMMEND_HH

#include <string>
#include <vector>

#include "fusion/proximity.hh"

namespace skipsim::fusion
{

/** Full fusion recommendation for one run. */
struct FusionReport
{
    /** Sequence length analyzed (K_eager). */
    std::size_t kEager = 0;

    /** Per-chain-length statistics, ascending length. */
    std::vector<ChainStats> byLength;

    /** The best-speedup entry of byLength. */
    const ChainStats &best() const;

    /** Top recommended chains at the best length (PS >= threshold). */
    std::vector<ChainCandidate> topCandidates;

    /** Aligned text rendering. */
    std::string render() const;
};

/**
 * Build a fusion recommendation from a kernel-name sequence.
 * @param sequence kernel names in stream order.
 * @param lengths chain lengths to analyze (default paper sweep).
 * @param threshold minimum PS for recommended chains (paper uses 1.0
 *        for actually-fusable chains).
 * @param max_candidates cap on reported chains.
 */
FusionReport recommend(std::vector<std::string> sequence,
                       const std::vector<std::size_t> &lengths =
                           defaultChainLengths(),
                       double threshold = 1.0,
                       std::size_t max_candidates = 8);

/** Convenience: recommend() over a trace's kernel sequence. */
FusionReport recommendFromTrace(const trace::Trace &trace,
                                const std::vector<std::size_t> &lengths =
                                    defaultChainLengths(),
                                double threshold = 1.0,
                                std::size_t max_candidates = 8);

} // namespace skipsim::fusion

#endif // SKIPSIM_FUSION_RECOMMEND_HH
