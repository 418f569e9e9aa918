#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

/// The benchmark's own arithmetic: how host-time samples are summarized and
/// how spans and request outcomes reduce to the reported ratios.  Kept
/// header-only and free of simulator types so test_stats.cpp can pin it.
namespace perfbench {

/// Median; the mean of the two middle values for an even count.  Empty
/// samples are a caller bug.
inline double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// A tail summary: the percentile reported, its nearest-rank value, the
/// sample count, and how many samples lie beyond the chosen rank.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank index (0-based) of percentile `p` in a sorted sample of
/// `n`: the smallest rank with at least p% of the sample at or below it.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t k = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(k, n) - 1;
}

/// Nearest-rank percentile `p` of a sample.  Empty samples are a caller
/// bug.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(xs.begin(), xs.end());
  return xs[nearest_rank(p, xs.size())];
}

/// Samples needed beyond a reported percentile before it is trusted.
constexpr std::size_t kTailSupport = 10;

/// The highest percentile of {99.9, 99, 95, 90, 75} that has at least
/// kTailSupport samples beyond its nearest rank; the median when even p75
/// lacks that support (then `beyond` reports how thin the tail is).
inline Tail tail(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("tail of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const std::size_t k = nearest_rank(p, n);
    if (n - 1 - k >= kTailSupport) return {p, xs[k], n, n - 1 - k};
  }
  const std::size_t k = nearest_rank(50.0, n);
  return {50.0, xs[k], n, n - 1 - k};
}

/// A half-open host-time interval [start, end).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the part of it that its
/// children cover.  Children are clipped to the span and overlapping
/// children count once, so concurrent children never push self time
/// below zero.
inline double self_time(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double cursor = span.start;
  for (const Interval& child : children) {
    const double lo = std::max(child.start, cursor);
    const double hi = std::min(child.end, span.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (span.end - span.start) - covered;
}

/// Share of attempted requests that did not complete: requests shed by
/// the serving policy and requests left unfinished both count as failed.
/// `completed + shed` may not exceed `attempted`.
inline double failed_frac(std::size_t attempted, std::size_t completed,
                          std::size_t shed) {
  if (attempted == 0) throw std::invalid_argument("no requests attempted");
  if (completed + shed > attempted) {
    throw std::invalid_argument("more outcomes than requests attempted");
  }
  const std::size_t unfinished = attempted - completed - shed;
  return static_cast<double>(shed + unfinished) /
         static_cast<double>(attempted);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP
