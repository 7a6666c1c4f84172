// Order statistics for the end-to-end benchmark.
//
// Timings are reported as a median plus a *tail*: the highest
// percentile of a fixed ladder that still has at least kTailBeyond
// samples strictly above its rank, so a tail figure is never one or
// two stray samples. The percentile and the number of samples beyond
// it are reported next to the value.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace nat::e2e {

/// Samples a tail percentile must have beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// Candidate tail percentiles, highest first. The ladder stops at p99:
/// on a small shared host a p99.9 over one run mostly measures
/// scheduler and hypervisor hiccups, not the program.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};

/// Nearest-rank index of percentile p (0 < p <= 100) in n sorted samples.
inline std::size_t rank_index(double p, std::size_t n) {
  // The small offset keeps p·n/100 from rounding up past an exact rank
  // (99.9% of 10000 must be rank 9990, not 9991).
  auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  if (idx > 0) --idx;
  return std::min(idx, n == 0 ? 0 : n - 1);
}

/// Samples strictly beyond the nearest-rank position of percentile p.
inline std::size_t samples_beyond(double p, std::size_t n) {
  return n == 0 ? 0 : n - 1 - rank_index(p, n);
}

/// Nearest-rank percentile; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[rank_index(p, v.size())];
}

struct Tail {
  double percentile = 0.0;  // the ladder entry chosen (0 when none fits)
  std::size_t beyond = 0;   // samples strictly above it
  double value = 0.0;
};

/// Highest ladder percentile with at least kTailBeyond samples beyond
/// it. With fewer than kTailBeyond + 1 samples no percentile qualifies
/// and the maximum is reported with percentile 100.
inline Tail tail(const std::vector<double>& v) {
  Tail t;
  if (v.empty()) return t;
  for (double p : kTailLadder) {
    if (samples_beyond(p, v.size()) >= kTailBeyond) {
      t.percentile = p;
      t.beyond = samples_beyond(p, v.size());
      t.value = percentile(v, p);
      return t;
    }
  }
  t.percentile = 100.0;
  t.value = *std::max_element(v.begin(), v.end());
  return t;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace nat::e2e
