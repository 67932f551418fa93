#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace skipsim::stats
{

void
Summary::add(double x)
{
    if (_count == 0) {
        _min = x;
        _max = x;
    } else {
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }
    ++_count;
    _sum += x;
    double delta = x - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (x - _mean);
}

void
Summary::addAll(const std::vector<double> &xs)
{
    for (double x : xs)
        add(x);
}

double
Summary::min() const
{
    if (_count == 0)
        fatal("Summary::min on empty accumulator");
    return _min;
}

double
Summary::max() const
{
    if (_count == 0)
        fatal("Summary::max on empty accumulator");
    return _max;
}

double
Summary::mean() const
{
    if (_count == 0)
        fatal("Summary::mean on empty accumulator");
    return _mean;
}

double
Summary::variance() const
{
    if (_count < 2)
        return 0.0;
    return _m2 / static_cast<double>(_count - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

namespace
{

/** The two sorted positions percentile p interpolates between, and
 *  the weight of the upper one. */
struct Rank
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
};

/** Rank of percentile @p p in @p n sorted samples (n >= 1). */
Rank
rankOf(std::size_t n, double p)
{
    // Negated form so NaN (every comparison false) is rejected too,
    // instead of flowing into the rank arithmetic as UB.
    if (!(p >= 0.0 && p <= 100.0))
        fatal("percentile p must be within [0, 100]");
    double rank = p / 100.0 * static_cast<double>(n - 1);
    Rank out;
    out.lo = static_cast<std::size_t>(rank);
    out.hi = std::min(out.lo + 1, n - 1);
    out.frac = rank - static_cast<double>(out.lo);
    return out;
}

/** Percentile @p p of samples whose positions rankOf(xs.size(), p)
 *  names already hold their sorted values. */
double
sortedPercentile(const std::vector<double> &xs, double p)
{
    const Rank r = rankOf(xs.size(), p);
    if (xs.size() == 1)
        return xs[0];
    return xs[r.lo] * (1.0 - r.frac) + xs[r.hi] * r.frac;
}

} // namespace

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        fatal("percentile on empty sample set");
    std::sort(xs.begin(), xs.end());
    return sortedPercentile(xs, p);
}

std::vector<double>
percentiles(std::vector<double> xs, const std::vector<double> &ps)
{
    if (xs.empty())
        fatal("percentiles on empty sample set");
    // Only the order statistics at each percentile's two interpolation
    // ranks are read, so select those instead of sorting: nth_element
    // per rank in ascending order, each pass over the suffix the
    // previous one left. Same values as a full sort, in O(n) per rank.
    std::vector<std::size_t> ranks;
    for (double p : ps) {
        const Rank r = rankOf(xs.size(), p);
        ranks.push_back(r.lo);
        ranks.push_back(r.hi);
    }
    std::sort(ranks.begin(), ranks.end());
    auto from = xs.begin();
    for (std::size_t r : ranks) {
        const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(r);
        if (nth < from)
            continue; // already placed by the previous selection
        std::nth_element(from, nth, xs.end());
        from = nth + 1;
    }
    std::vector<double> out;
    out.reserve(ps.size());
    for (double p : ps)
        out.push_back(sortedPercentile(xs, p));
    return out;
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("geomean on empty sample set");
    double acc = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            fatal("geomean requires strictly positive samples");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(xs.size()));
}

LinearFit
fitLinear(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size())
        fatal("fitLinear: x and y sizes differ");
    if (xs.size() < 2)
        fatal("fitLinear: need at least 2 points");
    double n = static_cast<double>(xs.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    double denom = n * sxx - sx * sx;
    if (std::abs(denom) < 1e-12)
        fatal("fitLinear: degenerate x values");
    double slope = (n * sxy - sx * sy) / denom;
    double intercept = (sy - slope * sx) / n;
    return {intercept, slope};
}

} // namespace skipsim::stats
