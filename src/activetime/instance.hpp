// Active-time problem instance: jobs plus the per-slot parallelism g.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "activetime/job.hpp"

namespace nat::at {

struct Instance {
  std::int64_t g = 1;      // jobs schedulable per active slot
  std::vector<Job> jobs;

  int num_jobs() const { return static_cast<int>(jobs.size()); }

  /// Throws util::CheckError when malformed (g < 1, p < 1, a window
  /// shorter than its job's processing time, or an uncertainty
  /// interval violating 1 <= p_lo <= p <= p_hi <= window length).
  void validate() const;

  /// True when any job carries a [p_lo, p_hi] uncertainty interval
  /// (docs/ROBUST.md). Point instances — the common case — return
  /// false and never touch the robust machinery.
  bool has_processing_intervals() const;

  /// The best-case corner: every interval job at p = p_lo, point jobs
  /// unchanged. Intervals are stripped so the corner is a point
  /// instance the solvers accept as-is.
  Instance lo_corner() const;

  /// The worst-case corner: every interval job at p = p_hi.
  Instance hi_corner() const;

  /// [min release, max deadline); empty interval when there are no jobs.
  Interval horizon() const;

  /// Total processing volume of all jobs.
  std::int64_t total_volume() const;

  /// True iff every pair of job windows is nested or disjoint.
  bool is_laminar() const;

  /// ceil(total volume / g): trivial lower bound on active slots.
  std::int64_t volume_lower_bound() const;
};

/// ceil(v / g) for v >= 0 and g >= 1. Unlike (v + g - 1) / g it cannot
/// overflow, even for g near INT64_MAX.
inline std::int64_t ceil_div(std::int64_t v, std::int64_t g) {
  return v / g + (v % g != 0);
}

/// Returns a human-readable one-line summary ("n=5 g=2 horizon=[0,10)").
std::string summary(const Instance& instance);

}  // namespace nat::at
