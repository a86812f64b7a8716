// Order statistics over the samples a run collects.

#ifndef LMERGE_E2EBENCH_STATS_H_
#define LMERGE_E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace e2ebench {

// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The tail quantile `n` samples support: p99, or the highest percentile
// with at least ten samples beyond it; the median below forty samples.
inline double TailQuantileFor(size_t n) {
  if (n < 40) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

}  // namespace e2ebench

#endif  // LMERGE_E2EBENCH_STATS_H_
