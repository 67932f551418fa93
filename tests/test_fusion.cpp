/**
 * @file
 * Unit tests for proximity-score chain mining (paper Eqs. 6-8):
 * PS arithmetic on hand-built sequences, greedy non-overlapping
 * selection, Eq. 7/8 launch accounting, recommendation reports, and a
 * differential test of the suffix-array miner against a brute-force
 * window counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "fusion/proximity.hh"
#include "fusion/recommend.hh"
#include "workload/builder.hh"
#include "workload/exec_mode.hh"
#include "workload/model_config.hh"

namespace skipsim::fusion
{
namespace
{

std::vector<std::string>
seqOf(const std::string &compact)
{
    // One kernel per character: "ABAB" -> {"A","B","A","B"}.
    std::vector<std::string> out;
    for (char c : compact)
        out.emplace_back(1, c);
    return out;
}

// ------------------------------------------------------------- frequencies

TEST(Proximity, KernelFrequencyCounts)
{
    ProximityAnalyzer pa(seqOf("ABCABCAB"));
    EXPECT_EQ(pa.kernelFrequency("A"), 3u);
    EXPECT_EQ(pa.kernelFrequency("C"), 2u);
    EXPECT_EQ(pa.kernelFrequency("Z"), 0u);
    EXPECT_EQ(pa.sequenceLength(), 8u);
}

TEST(Proximity, ChainFrequencyCountsOccurrences)
{
    ProximityAnalyzer pa(seqOf("ABCABCAB"));
    EXPECT_EQ(pa.chainFrequency(seqOf("AB")), 3u);
    EXPECT_EQ(pa.chainFrequency(seqOf("ABC")), 2u);
    EXPECT_EQ(pa.chainFrequency(seqOf("CA")), 2u);
    EXPECT_EQ(pa.chainFrequency(seqOf("ZZ")), 0u);
}

TEST(Proximity, OverlappingOccurrencesCounted)
{
    ProximityAnalyzer pa(seqOf("AAAA"));
    EXPECT_EQ(pa.chainFrequency(seqOf("AA")), 3u);
}

// ---------------------------------------------------------------- Eq. 6 PS

TEST(Proximity, DeterministicChainHasPsOne)
{
    // Every A is followed by B.
    ProximityAnalyzer pa(seqOf("ABxABxAB"));
    EXPECT_DOUBLE_EQ(pa.proximityScore(seqOf("AB")), 1.0);
}

TEST(Proximity, PartialChainHasFractionalPs)
{
    // A followed by B twice out of three As.
    ProximityAnalyzer pa(seqOf("ABABAC"));
    EXPECT_NEAR(pa.proximityScore(seqOf("AB")), 2.0 / 3.0, 1e-12);
}

TEST(Proximity, AbsentChainPsZero)
{
    ProximityAnalyzer pa(seqOf("ABC"));
    EXPECT_DOUBLE_EQ(pa.proximityScore(seqOf("CA")), 0.0);
    EXPECT_DOUBLE_EQ(pa.proximityScore(seqOf("ZZ")), 0.0);
}

TEST(Proximity, EmptyChainThrows)
{
    ProximityAnalyzer pa(seqOf("ABC"));
    EXPECT_THROW(pa.proximityScore({}), FatalError);
}

// ------------------------------------------------------------ analyze (L)

TEST(Analyze, UniqueAndTotalCounts)
{
    ProximityAnalyzer pa(seqOf("ABCABC"));
    ChainStats stats = pa.analyze(2);
    // Windows: AB BC CA AB BC -> unique {AB, BC, CA}, total 5.
    EXPECT_EQ(stats.uniqueChains, 3u);
    EXPECT_EQ(stats.totalInstances, 5u);
}

TEST(Analyze, DeterministicChainsIdentified)
{
    // AB deterministic (every A -> B); BC deterministic; CA is not
    // deterministic: the final C has no successor, so f(CA)=1 < f(C)=2.
    ProximityAnalyzer pa(seqOf("ABCABC"));
    ChainStats stats = pa.analyze(2);
    EXPECT_EQ(stats.deterministicChains, 2u);
}

TEST(Analyze, GreedyNonOverlappingSelection)
{
    // ABABAB: AB is deterministic; greedy fuses at 0, 2, 4.
    ProximityAnalyzer pa(seqOf("ABABAB"));
    ChainStats stats = pa.analyze(2);
    EXPECT_EQ(stats.fusedChains, 3u);
    EXPECT_EQ(stats.kernelsFused, 6u);
    // Eq. 7: K_fused = 6 - 3*(2-1) = 3; Eq. 8: speedup = 2.
    EXPECT_EQ(stats.kFused, 3u);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 2.0);
}

TEST(Analyze, GreedySkipsBrokenOccurrences)
{
    // "ABABAC": f(A)=3, f(AB)=2 -> AB is NOT deterministic and cannot
    // fuse, but BA (f=2, f(B)=2) is; the greedy pass fuses both BA
    // occurrences and skips over every AB window.
    ProximityAnalyzer pa(seqOf("ABABAC"));
    ChainStats stats = pa.analyze(2);
    EXPECT_EQ(stats.fusedChains, 2u);
    EXPECT_EQ(stats.kFused, 4u);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 1.5);
    // And AB itself is indeed not a PS=1 candidate.
    for (const auto &cand : pa.candidates(2, 1.0))
        EXPECT_NE(cand.kernels, seqOf("AB"));
}

TEST(Analyze, UniqueAnchorMakesLongChainFusable)
{
    // "S" occurs once, so the window starting at S is deterministic
    // regardless of its interior.
    ProximityAnalyzer pa(seqOf("SABXABYAB"));
    ChainStats stats = pa.analyze(4);
    EXPECT_GE(stats.fusedChains, 1u);
    EXPECT_EQ(stats.kEager, 9u);
}

TEST(Analyze, ChainLongerThanSequenceYieldsNothing)
{
    ProximityAnalyzer pa(seqOf("ABC"));
    ChainStats stats = pa.analyze(8);
    EXPECT_EQ(stats.uniqueChains, 0u);
    EXPECT_EQ(stats.fusedChains, 0u);
    EXPECT_EQ(stats.kFused, stats.kEager);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 1.0);
}

TEST(Analyze, LengthOneRejected)
{
    ProximityAnalyzer pa(seqOf("AB"));
    EXPECT_THROW(pa.analyze(1), FatalError);
    EXPECT_THROW(pa.analyze(0), FatalError);
}

TEST(Analyze, PeriodicSequenceEq7Accounting)
{
    // Period-3 sequence repeated 5 times: at L=3, windows starting at
    // each A are deterministic; greedy fuses 5 of them.
    ProximityAnalyzer pa(seqOf("ABCABCABCABCABC"));
    ChainStats stats = pa.analyze(3);
    EXPECT_EQ(stats.fusedChains, 5u);
    EXPECT_EQ(stats.kFused, 15u - 5u * 2u);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 3.0);
}

TEST(Analyze, SweepCoversAllLengths)
{
    ProximityAnalyzer pa(seqOf("ABCABCABC"));
    auto sweep = pa.sweep({2, 3, 4});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].length, 2u);
    EXPECT_EQ(sweep[2].length, 4u);
}

// -------------------------------------------------------------- candidates

TEST(Candidates, ThresholdFilters)
{
    ProximityAnalyzer pa(seqOf("ABABAC"));
    auto all = pa.candidates(2, 0.0);
    auto strict = pa.candidates(2, 1.0);
    EXPECT_GT(all.size(), strict.size());
    for (const auto &cand : strict)
        EXPECT_DOUBLE_EQ(cand.proximityScore, 1.0);
}

TEST(Candidates, SortedByFrequency)
{
    ProximityAnalyzer pa(seqOf("ABABABxCDx"));
    auto cands = pa.candidates(2, 1.0);
    ASSERT_GE(cands.size(), 2u);
    EXPECT_GE(cands[0].frequency, cands[1].frequency);
    EXPECT_EQ(cands[0].kernels, seqOf("AB"));
}

TEST(Candidates, BadThresholdThrows)
{
    ProximityAnalyzer pa(seqOf("AB"));
    EXPECT_THROW(pa.candidates(2, -0.1), FatalError);
    EXPECT_THROW(pa.candidates(2, 1.1), FatalError);
}

// ------------------------------------------------------------------ report

TEST(Recommend, ReportSelectsBestLength)
{
    // Strongly periodic: longer chains win.
    std::string compact;
    for (int i = 0; i < 16; ++i)
        compact += "ABCD";
    FusionReport report = recommend(seqOf(compact), {2, 4});
    EXPECT_EQ(report.kEager, 64u);
    EXPECT_EQ(report.best().length, 4u);
    EXPECT_DOUBLE_EQ(report.best().idealSpeedup, 4.0);
    EXPECT_FALSE(report.topCandidates.empty());
}

TEST(Recommend, RenderListsAllLengths)
{
    FusionReport report = recommend(seqOf("ABABABAB"), {2, 4});
    std::string text = report.render();
    EXPECT_NE(text.find("K_eager = 8"), std::string::npos);
    EXPECT_NE(text.find("speedup"), std::string::npos);
}

TEST(Recommend, EmptyLengthsThrow)
{
    EXPECT_THROW(recommend(seqOf("AB"), {}), FatalError);
}

TEST(Recommend, CandidateCapRespected)
{
    std::string compact;
    for (int i = 0; i < 30; ++i)
        compact += "AB";
    FusionReport report = recommend(seqOf(compact), {2}, 1.0, 1);
    EXPECT_LE(report.topCandidates.size(), 1u);
}

TEST(Recommend, BestOnEmptyReportThrows)
{
    FusionReport report;
    EXPECT_THROW(report.best(), FatalError);
}

// ------------------------------------------------------- trace integration

TEST(TraceSequence, ExtractsKernelsInStreamOrder)
{
    trace::Trace tr;
    auto add_kernel = [&](const char *name, std::int64_t ts) {
        trace::TraceEvent k;
        k.kind = trace::EventKind::Kernel;
        k.name = name;
        k.tsBeginNs = ts;
        k.durNs = 1;
        k.streamId = 7;
        k.correlationId = static_cast<std::uint64_t>(ts);
        tr.add(k);
    };
    add_kernel("late", 100);
    add_kernel("early", 1);
    trace::TraceEvent mc;
    mc.kind = trace::EventKind::Memcpy;
    mc.name = "Memcpy HtoD";
    mc.tsBeginNs = 0;
    mc.durNs = 1;
    mc.streamId = 7;
    tr.add(mc);

    auto seq = kernelSequenceFromTrace(tr);
    ASSERT_EQ(seq.size(), 2u); // memcpy excluded
    EXPECT_EQ(seq[0], "early");
    EXPECT_EQ(seq[1], "late");
}

TEST(DefaultLengths, MatchPaperSweep)
{
    auto lengths = defaultChainLengths();
    ASSERT_EQ(lengths.size(), 8u);
    EXPECT_EQ(lengths.front(), 2u);
    EXPECT_EQ(lengths.back(), 256u);
}

// --------------------------------------------- property-style parameterized

class GreedyInvariant : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GreedyInvariant, Eq7AccountingAlwaysConsistent)
{
    // A pseudo-random but deterministic sequence over a small alphabet.
    std::vector<std::string> seq;
    std::uint64_t state = 0x1234;
    for (int i = 0; i < 200; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        seq.emplace_back(1, static_cast<char>('A' + (state >> 60) % 6));
    }
    ProximityAnalyzer pa(seq);
    std::size_t length = GetParam();
    ChainStats stats = pa.analyze(length);

    // Invariants of Eqs. 7/8 and the greedy cover.
    EXPECT_EQ(stats.kernelsFused, stats.fusedChains * length);
    EXPECT_LE(stats.kernelsFused, stats.kEager);
    EXPECT_EQ(stats.kFused,
              stats.kEager - stats.fusedChains * (length - 1));
    EXPECT_GE(stats.idealSpeedup, 1.0);
    EXPECT_LE(stats.deterministicChains, stats.uniqueChains);
    if (stats.uniqueChains > 0) {
        EXPECT_EQ(stats.totalInstances,
                  stats.kEager - length + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, GreedyInvariant,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 64, 128));

// ------------------------------------------ differential vs brute force

/**
 * Test-only oracle: chain mining by brute force over a
 * std::map<std::vector<int>, size_t> of every length-L window (names
 * interned in first-appearance order). This is the window counter the
 * suffix-array miner replaced.
 */
class BruteForceMiner
{
  public:
    explicit BruteForceMiner(const std::vector<std::string> &sequence)
    {
        std::map<std::string, int> ids;
        for (const auto &name : sequence) {
            auto [it, inserted] =
                ids.emplace(name, static_cast<int>(_names.size()));
            if (inserted)
                _names.push_back(name);
            _seq.push_back(it->second);
        }
        _kernelFreq.assign(_names.size(), 0);
        for (int id : _seq)
            ++_kernelFreq[static_cast<std::size_t>(id)];
    }

    /** Length-L statistics plus the per-start PS = 1 mask. */
    std::pair<ChainStats, std::vector<bool>>
    analyze(std::size_t length) const
    {
        std::vector<Counts::const_iterator> window_at;
        Counts counts = windowCounts(length, &window_at);
        std::vector<bool> det_start(_seq.size(), false);
        for (std::size_t i = 0; i < window_at.size(); ++i)
            det_start[i] = psOne(window_at[i]);
        ChainStats stats;
        stats.length = length;
        stats.kEager = _seq.size();
        for (auto it = counts.cbegin(); it != counts.cend(); ++it) {
            ++stats.uniqueChains;
            stats.totalInstances += it->second;
            if (psOne(it))
                ++stats.deterministicChains;
        }
        // Greedy left-to-right non-overlapping PS = 1 cover (Eq. 7).
        std::size_t i = 0;
        while (i + length <= _seq.size()) {
            if (det_start[i]) {
                ++stats.fusedChains;
                i += length;
            } else {
                ++i;
            }
        }
        stats.kernelsFused = stats.fusedChains * length;
        stats.kFused = stats.kEager - stats.fusedChains * (length - 1);
        stats.idealSpeedup = stats.kFused > 0
            ? static_cast<double>(stats.kEager) /
                static_cast<double>(stats.kFused)
            : 1.0;
        return {stats, det_start};
    }

    /** Every length-L chain with its PS, (frequency desc, names asc). */
    std::vector<ChainCandidate>
    allCandidates(std::size_t length) const
    {
        std::vector<ChainCandidate> out;
        for (const auto &[window, freq] : windowCounts(length)) {
            ChainCandidate cand;
            cand.frequency = freq;
            cand.proximityScore = static_cast<double>(freq) /
                static_cast<double>(firstFreq(window));
            for (int id : window)
                cand.kernels.push_back(
                    _names[static_cast<std::size_t>(id)]);
            out.push_back(std::move(cand));
        }
        std::sort(out.begin(), out.end(),
                  [](const ChainCandidate &a, const ChainCandidate &b) {
                      if (a.frequency != b.frequency)
                          return a.frequency > b.frequency;
                      return a.kernels < b.kernels;
                  });
        return out;
    }

  private:
    using Counts = std::map<std::vector<int>, std::size_t>;

    std::vector<int> _seq;
    std::vector<std::string> _names;
    std::vector<std::size_t> _kernelFreq;

    std::size_t
    firstFreq(const std::vector<int> &window) const
    {
        return _kernelFreq[static_cast<std::size_t>(window.front())];
    }

    bool
    psOne(Counts::const_iterator it) const
    {
        return it->second == firstFreq(it->first);
    }

    /** Count every window; optionally record each start's entry. */
    Counts
    windowCounts(std::size_t length,
                 std::vector<Counts::const_iterator> *window_at =
                     nullptr) const
    {
        Counts counts;
        for (std::size_t i = 0; i + length <= _seq.size(); ++i) {
            std::vector<int> window(
                _seq.begin() + static_cast<long>(i),
                _seq.begin() + static_cast<long>(i + length));
            auto it = counts.try_emplace(std::move(window), 0).first;
            ++it->second;
            if (window_at)
                window_at->push_back(it);
        }
        return counts;
    }
};

/**
 * Check analyze() and deterministicStarts() at every L in
 * [2, max_length] against the brute-force miner, and candidates() at
 * thresholds 0, 0.5 and 1.
 * candidates() returns every chain, which costs O(N * L) per length on
 * both sides, so it is checked at every L <= 32, at the paper's
 * lengths 64, 128 and 256, and at L = N - 1, N, N + 1.
 */
void
expectMatchesBruteForce(const std::vector<std::string> &sequence,
                        std::size_t max_length, const std::string &label)
{
    ProximityAnalyzer pa(sequence);
    BruteForceMiner oracle(sequence);
    const std::size_t n = sequence.size();
    for (std::size_t length = 2; length <= max_length; ++length) {
        if (::testing::Test::HasFailure())
            return; // the first failing length says enough
        SCOPED_TRACE(label + " L=" + std::to_string(length));
        ChainStats got = pa.analyze(length);
        auto [want, want_det_start] = oracle.analyze(length);
        EXPECT_EQ(got.length, want.length);
        EXPECT_EQ(got.uniqueChains, want.uniqueChains);
        EXPECT_EQ(got.totalInstances, want.totalInstances);
        EXPECT_EQ(got.deterministicChains, want.deterministicChains);
        EXPECT_EQ(got.fusedChains, want.fusedChains);
        EXPECT_EQ(got.kernelsFused, want.kernelsFused);
        EXPECT_EQ(got.kEager, want.kEager);
        EXPECT_EQ(got.kFused, want.kFused);
        EXPECT_EQ(got.idealSpeedup, want.idealSpeedup);
        EXPECT_EQ(pa.deterministicStarts(length), want_det_start);

        bool near_n = length + 1 >= n && length <= n + 1;
        bool paper_length = length == 64 || length == 128 || length == 256;
        if (length > 32 && !paper_length && !near_n)
            continue;
        std::vector<ChainCandidate> all = oracle.allCandidates(length);
        for (double threshold : {0.0, 0.5, 1.0}) {
            std::vector<ChainCandidate> expected;
            for (const auto &cand : all) {
                if (cand.proximityScore + 1e-12 >= threshold)
                    expected.push_back(cand);
            }
            std::vector<ChainCandidate> actual =
                pa.candidates(length, threshold);
            ASSERT_EQ(actual.size(), expected.size())
                << "threshold " << threshold;
            for (std::size_t k = 0; k < actual.size(); ++k) {
                EXPECT_EQ(actual[k].kernels, expected[k].kernels);
                EXPECT_EQ(actual[k].frequency, expected[k].frequency);
                EXPECT_EQ(actual[k].proximityScore,
                          expected[k].proximityScore);
            }
        }
    }
}

TEST(ChainMiningDifferential, EveryShortSequenceMatchesBruteForce)
{
    // Exhaustive: every sequence of up to 7 kernels over {A, B, C}.
    for (std::size_t n = 0; n <= 7; ++n) {
        std::size_t count = 1;
        for (std::size_t i = 0; i < n; ++i)
            count *= 3;
        for (std::size_t code = 0; code < count; ++code) {
            std::vector<std::string> seq;
            for (std::size_t rest = code, i = 0; i < n; ++i, rest /= 3)
                seq.emplace_back(1, static_cast<char>('A' + rest % 3));
            std::string label;
            for (const auto &name : seq)
                label += name;
            expectMatchesBruteForce(seq, 9, "\"" + label + "\"");
            if (HasFailure())
                return;
        }
    }
}

class RandomSequenceDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomSequenceDifferential, MatchesBruteForce)
{
    // Three sequences over an alphabet of GetParam() kernels, N drawn
    // from [0, 600]; lengths run past N.
    std::uint64_t alphabet = GetParam();
    Rng rng(0xd1ff0000 + alphabet);
    for (int trial = 0; trial < 3; ++trial) {
        std::size_t n = static_cast<std::size_t>(rng.below(601));
        std::vector<std::string> seq;
        for (std::size_t i = 0; i < n; ++i)
            seq.emplace_back(1, static_cast<char>('A' + rng.below(alphabet)));
        expectMatchesBruteForce(seq, 300,
                                "trial " + std::to_string(trial) +
                                    " (N=" + std::to_string(n) + ")");
    }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, RandomSequenceDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

class ModelSequenceDifferential
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ModelSequenceDifferential, MatchesBruteForce)
{
    // Every execution mode's prefill kernel sequence of one model. The
    // miner sees only name equality and order, so names are replaced
    // by order-preserving short aliases; that keeps the oracle's string
    // copies cheap without changing the sequence's structure.
    workload::ModelConfig model = workload::allModels().at(GetParam());
    std::set<std::vector<std::string>> seen;
    for (workload::ExecMode mode : workload::allExecModes()) {
        workload::BuildOptions opts;
        opts.mode = mode;
        auto sequence =
            workload::buildPrefillGraph(model, opts).kernelSequence();
        std::map<std::string, std::string> alias;
        for (const auto &name : sequence)
            alias.emplace(name, "");
        int rank = 0;
        for (auto &[name, short_name] : alias)
            short_name = strprintf("k%04d", rank++);
        for (auto &name : sequence)
            name = alias.at(name);
        if (!seen.insert(sequence).second)
            continue;
        expectMatchesBruteForce(sequence, 300,
                                model.name + " / " +
                                    workload::execModeName(mode));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelSequenceDifferential,
    ::testing::Range<std::size_t>(0, workload::allModels().size()));

} // namespace
} // namespace skipsim::fusion
