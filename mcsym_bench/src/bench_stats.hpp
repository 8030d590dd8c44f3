// Order statistics for the benchmark's latency metrics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace mcsym_bench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples at
/// or below it (rank ceil(q*n), 1-based). Needs a non-empty sample.
inline double nearest_rank(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

/// Samples that lie beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

/// A percentile is reported only when at least this many samples lie beyond
/// it; fewer and one slow request moves it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5);
}

}  // namespace mcsym_bench
