#include "fusion/proximity.hh"

#include <algorithm>

#include "common/logging.hh"

namespace skipsim::fusion
{

namespace
{

/**
 * Suffix array of s (symbols in [0, alphabet)) by prefix doubling:
 * cyclic shifts of s plus a smallest sentinel, counting-sorted by
 * (class of first h symbols, class of next h) each round, O(N log N).
 * With a unique sentinel, cyclic-shift order is suffix order.
 */
std::vector<std::size_t>
suffixArray(const std::vector<int> &s, std::size_t alphabet)
{
    const std::size_t n = s.size() + 1;
    auto symbol = [&](std::size_t i) {
        return i < s.size() ? static_cast<std::size_t>(s[i]) + 1 : 0;
    };
    std::vector<std::size_t> sa(n), cls(n), tmp(n);
    std::vector<std::size_t> count(alphabet + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        ++count[symbol(i)];
    for (std::size_t c = 1; c < count.size(); ++c)
        count[c] += count[c - 1];
    for (std::size_t i = n; i-- > 0;)
        sa[--count[symbol(i)]] = i;
    std::size_t classes = 1;
    cls[sa[0]] = 0;
    for (std::size_t k = 1; k < n; ++k) {
        if (symbol(sa[k]) != symbol(sa[k - 1]))
            ++classes;
        cls[sa[k]] = classes - 1;
    }

    // Cyclic index i + h; h < n while classes < n.
    auto shift = [n](std::size_t i, std::size_t h) {
        return i + h < n ? i + h : i + h - n;
    };
    for (std::size_t h = 1; classes < n; h <<= 1) {
        // Shifting the current order back by h sorts by second key.
        for (std::size_t k = 0; k < n; ++k)
            tmp[k] = shift(sa[k], n - h);
        count.assign(classes, 0);
        for (std::size_t k = 0; k < n; ++k)
            ++count[cls[tmp[k]]];
        for (std::size_t c = 1; c < classes; ++c)
            count[c] += count[c - 1];
        for (std::size_t k = n; k-- > 0;)
            sa[--count[cls[tmp[k]]]] = tmp[k];

        classes = 1;
        tmp[sa[0]] = 0;
        for (std::size_t k = 1; k < n; ++k) {
            std::size_t cur = sa[k], prev = sa[k - 1];
            if (cls[cur] != cls[prev] ||
                cls[shift(cur, h)] != cls[shift(prev, h)])
                ++classes;
            tmp[cur] = classes - 1;
        }
        cls.swap(tmp);
    }
    sa.erase(sa.begin()); // the sentinel suffix sorts first
    return sa;
}

/** Kasai's LCP array: lcp[k] = LCP(s[sa[k-1]..], s[sa[k]..]), lcp[0] = 0. */
std::vector<std::size_t>
lcpArray(const std::vector<int> &s, const std::vector<std::size_t> &sa)
{
    const std::size_t n = s.size();
    std::vector<std::size_t> rank(n), lcp(n, 0);
    for (std::size_t k = 0; k < n; ++k)
        rank[sa[k]] = k;
    std::size_t h = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rank[i] == 0) {
            h = 0;
            continue;
        }
        std::size_t j = sa[rank[i] - 1];
        while (i + h < n && j + h < n && s[i + h] == s[j + h])
            ++h;
        lcp[rank[i]] = h;
        if (h > 0)
            --h;
    }
    return lcp;
}

} // namespace

ProximityAnalyzer::ProximityAnalyzer(std::vector<std::string> sequence)
{
    // Intern by rank in sorted name order (ids are assigned once every
    // name is known), so interned windows compare like name vectors.
    std::vector<std::map<std::string, int>::iterator> slots;
    slots.reserve(sequence.size());
    for (auto &name : sequence)
        slots.push_back(_ids.try_emplace(std::move(name), 0).first);
    _names.reserve(_ids.size());
    for (auto &[name, id] : _ids) {
        id = static_cast<int>(_names.size());
        _names.push_back(name);
    }
    _seq.reserve(slots.size());
    for (auto slot : slots)
        _seq.push_back(slot->second);

    _kernelFreq.assign(_names.size(), 0);
    for (int id : _seq)
        ++_kernelFreq[static_cast<std::size_t>(id)];

    _sa = suffixArray(_seq, _names.size());
    _lcp = lcpArray(_seq, _sa);
}

template <typename Fn>
void
ProximityAnalyzer::forEachWindow(std::size_t length, Fn &&fn) const
{
    const std::size_t n = _seq.size();
    if (length == 0 || length > n)
        return;
    // Equal windows are maximal runs with LCP >= L. A suffix shorter
    // than L has LCP < L with both neighbours, so it is a run of its
    // own and is skipped.
    std::size_t end = 0;
    for (std::size_t begin = 0; begin < n; begin = end) {
        end = begin + 1;
        while (end < n && _lcp[end] >= length)
            ++end;
        if (n - _sa[begin] >= length)
            fn(begin, end);
    }
}

bool
ProximityAnalyzer::deterministic(std::size_t begin, std::size_t end) const
{
    std::size_t first = static_cast<std::size_t>(_seq[_sa[begin]]);
    return end - begin == _kernelFreq[first];
}

int
ProximityAnalyzer::internedId(const std::string &name) const
{
    auto it = _ids.find(name);
    return it == _ids.end() ? -1 : it->second;
}

std::size_t
ProximityAnalyzer::kernelFrequency(const std::string &kernel) const
{
    int id = internedId(kernel);
    return id < 0 ? 0 : _kernelFreq[static_cast<std::size_t>(id)];
}

std::size_t
ProximityAnalyzer::chainFrequency(
    const std::vector<std::string> &chain) const
{
    if (chain.empty() || chain.size() > _seq.size())
        return 0;
    std::vector<int> ids;
    ids.reserve(chain.size());
    for (const auto &name : chain) {
        int id = internedId(name);
        if (id < 0)
            return 0;
        ids.push_back(id);
    }
    std::size_t count = 0;
    for (std::size_t i = 0; i + ids.size() <= _seq.size(); ++i) {
        bool match = true;
        for (std::size_t j = 0; j < ids.size(); ++j) {
            if (_seq[i + j] != ids[j]) {
                match = false;
                break;
            }
        }
        if (match)
            ++count;
    }
    return count;
}

double
ProximityAnalyzer::proximityScore(
    const std::vector<std::string> &chain) const
{
    if (chain.empty())
        fatal("proximityScore: empty chain");
    std::size_t f_chain = chainFrequency(chain);
    if (f_chain == 0)
        return 0.0;
    std::size_t f_first = kernelFrequency(chain.front());
    return static_cast<double>(f_chain) / static_cast<double>(f_first);
}

ChainStats
ProximityAnalyzer::analyze(std::size_t length) const
{
    if (length < 2)
        fatal("ProximityAnalyzer::analyze: chain length must be >= 2");

    ChainStats stats;
    stats.length = length;
    stats.kEager = _seq.size();
    stats.kFused = _seq.size();

    forEachWindow(length, [&](std::size_t begin, std::size_t end) {
        ++stats.uniqueChains;
        stats.totalInstances += end - begin;
        if (deterministic(begin, end))
            ++stats.deterministicChains;
    });

    // Greedy left-to-right non-overlapping selection of deterministic
    // chain occurrences: matches the paper's "actual deterministic
    // kernel chains that can be fused ... non-overlapping and PS = 1".
    std::vector<bool> det_start = deterministicStarts(length);
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
    return stats;
}

std::vector<ChainStats>
ProximityAnalyzer::sweep(const std::vector<std::size_t> &lengths) const
{
    std::vector<ChainStats> out;
    out.reserve(lengths.size());
    for (std::size_t length : lengths)
        out.push_back(analyze(length));
    return out;
}

std::vector<ChainCandidate>
ProximityAnalyzer::candidates(std::size_t length, double threshold) const
{
    if (threshold < 0.0 || threshold > 1.0)
        fatal("ProximityAnalyzer::candidates: threshold must be in [0,1]");

    std::vector<ChainCandidate> out;
    forEachWindow(length, [&](std::size_t begin, std::size_t end) {
        std::size_t start = _sa[begin];
        std::size_t freq = end - begin;
        std::size_t f_first =
            _kernelFreq[static_cast<std::size_t>(_seq[start])];
        double ps = static_cast<double>(freq) /
            static_cast<double>(f_first);
        if (ps + 1e-12 < threshold)
            return;
        ChainCandidate cand;
        cand.frequency = freq;
        cand.proximityScore = ps;
        cand.kernels.reserve(length);
        for (std::size_t j = start; j < start + length; ++j)
            cand.kernels.push_back(_names[static_cast<std::size_t>(_seq[j])]);
        out.push_back(std::move(cand));
    });
    // Windows arrive in suffix-array order, which is name order because
    // ids are name ranks; a stable sort on frequency alone therefore
    // gives (frequency desc, names asc).
    std::stable_sort(out.begin(), out.end(),
                     [](const ChainCandidate &a, const ChainCandidate &b) {
                         return a.frequency > b.frequency;
                     });
    return out;
}

std::vector<bool>
ProximityAnalyzer::deterministicStarts(std::size_t length) const
{
    std::vector<bool> out(_seq.size(), false);
    forEachWindow(length, [&](std::size_t begin, std::size_t end) {
        if (!deterministic(begin, end))
            return;
        for (std::size_t k = begin; k < end; ++k)
            out[_sa[k]] = true;
    });
    return out;
}

std::vector<std::size_t>
defaultChainLengths()
{
    return {2, 4, 8, 16, 32, 64, 128, 256};
}

std::vector<std::string>
kernelSequenceFromTrace(const trace::Trace &trace)
{
    std::vector<const trace::TraceEvent *> kernels;
    for (const auto &ev : trace.events()) {
        if (ev.kind == trace::EventKind::Kernel)
            kernels.push_back(&ev);
    }
    std::stable_sort(kernels.begin(), kernels.end(),
                     [](const trace::TraceEvent *a,
                        const trace::TraceEvent *b) {
                         return a->tsBeginNs < b->tsBeginNs;
                     });
    std::vector<std::string> out;
    out.reserve(kernels.size());
    for (const auto *k : kernels)
        out.push_back(k->name);
    return out;
}

} // namespace skipsim::fusion
