#include "fusion/recommend.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"

namespace skipsim::fusion
{

const ChainStats &
FusionReport::best() const
{
    if (byLength.empty())
        fatal("FusionReport::best on empty report");
    const ChainStats *best_stats = &byLength.front();
    for (const auto &stats : byLength) {
        if (stats.idealSpeedup > best_stats->idealSpeedup)
            best_stats = &stats;
    }
    return *best_stats;
}

std::string
FusionReport::render() const
{
    TextTable table(strprintf("Fusion recommendation (K_eager = %zu)",
                              kEager));
    table.setHeader({"L", "unique", "instances", "PS=1", "fused",
                     "K_fused", "speedup"});
    for (const auto &s : byLength) {
        table.addRow({std::to_string(s.length),
                      std::to_string(s.uniqueChains),
                      std::to_string(s.totalInstances),
                      std::to_string(s.deterministicChains),
                      std::to_string(s.fusedChains),
                      std::to_string(s.kFused),
                      strprintf("%.2fx", s.idealSpeedup)});
    }
    std::string out = table.render();

    if (!topCandidates.empty()) {
        out += strprintf("\nTop candidates at L = %zu:\n",
                         topCandidates.front().kernels.size());
        for (const auto &cand : topCandidates) {
            std::string head = cand.kernels.front();
            std::string tail = cand.kernels.back();
            out += strprintf("  x%zu  PS=%.2f  [%s ... %s]\n",
                             cand.frequency, cand.proximityScore,
                             head.c_str(), tail.c_str());
        }
    }
    return out;
}

FusionReport
recommend(std::vector<std::string> sequence,
          const std::vector<std::size_t> &lengths, double threshold,
          std::size_t max_candidates)
{
    if (lengths.empty())
        fatal("recommend: no chain lengths given");

    ProximityAnalyzer analyzer(std::move(sequence));
    FusionReport report;
    report.kEager = analyzer.sequenceLength();

    std::vector<std::size_t> sorted = lengths;
    std::sort(sorted.begin(), sorted.end());
    report.byLength = analyzer.sweep(sorted);

    const ChainStats &best_stats = report.best();
    report.topCandidates =
        analyzer.candidates(best_stats.length, threshold);
    if (report.topCandidates.size() > max_candidates)
        report.topCandidates.resize(max_candidates);
    return report;
}

FusionReport
recommendFromTrace(const trace::Trace &trace,
                   const std::vector<std::size_t> &lengths,
                   double threshold, std::size_t max_candidates)
{
    return recommend(kernelSequenceFromTrace(trace), lengths, threshold,
                     max_candidates);
}

} // namespace skipsim::fusion
