#include "activetime/instance.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace nat::at {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << '[' << iv.lo << ',' << iv.hi << ')';
}

std::ostream& operator<<(std::ostream& os, const Job& job) {
  return os << "job(p=" << job.processing << ", w=" << job.window() << ')';
}

void Instance::validate() const {
  NAT_CHECK_MSG(g >= 1, "instance: g must be >= 1, got " << g);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    NAT_CHECK_MSG(job.processing >= 1,
                  "job " << j << ": processing must be >= 1");
    // Payloads may sit near the int64 extremes: the window length and
    // release + max(p, p_hi) must fit, or the checks below (and every
    // Interval::length() downstream) would overflow.
    const std::int64_t longest = std::max(job.processing, job.processing_hi);
    Time length = 0;
    Time end = 0;
    NAT_CHECK_MSG(
        !__builtin_sub_overflow(job.deadline, job.release, &length) &&
            !__builtin_add_overflow(job.release, longest, &end),
        "job " << j << ": window " << job.window() << " with processing "
               << longest << " overflows int64");
    NAT_CHECK_MSG(job.deadline >= job.release + job.processing,
                  "job " << j << ": window " << job.window()
                         << " shorter than processing " << job.processing);
    if (job.has_processing_interval()) {
      NAT_CHECK_MSG(job.processing_lo >= 1,
                    "job " << j << ": processing_lo must be >= 1");
      NAT_CHECK_MSG(job.processing_lo <= job.processing &&
                        job.processing <= job.processing_hi,
                    "job " << j << ": processing interval ["
                           << job.processing_lo << "," << job.processing_hi
                           << "] must bracket processing "
                           << job.processing);
      NAT_CHECK_MSG(job.deadline >= job.release + job.processing_hi,
                    "job " << j << ": window " << job.window()
                           << " shorter than worst-case processing "
                           << job.processing_hi);
    }
  }
  // Every solver sums the volume (flow values, LP right-hand sides).
  std::int64_t volume = 0;
  for (const Job& job : jobs) {
    NAT_CHECK_MSG(!__builtin_add_overflow(
                      volume, std::max(job.processing, job.processing_hi),
                      &volume),
                  "instance: total processing volume overflows int64");
  }
}

bool Instance::has_processing_intervals() const {
  for (const Job& job : jobs) {
    if (job.has_processing_interval()) return true;
  }
  return false;
}

Instance Instance::lo_corner() const {
  Instance corner;
  corner.g = g;
  corner.jobs = jobs;
  for (Job& job : corner.jobs) {
    if (job.has_processing_interval()) job.processing = job.processing_lo;
    job.processing_lo = 0;
    job.processing_hi = 0;
  }
  return corner;
}

Instance Instance::hi_corner() const {
  Instance corner;
  corner.g = g;
  corner.jobs = jobs;
  for (Job& job : corner.jobs) {
    if (job.has_processing_interval()) job.processing = job.processing_hi;
    job.processing_lo = 0;
    job.processing_hi = 0;
  }
  return corner;
}

Interval Instance::horizon() const {
  if (jobs.empty()) return {};
  Interval h{jobs.front().release, jobs.front().deadline};
  for (const Job& job : jobs) {
    h.lo = std::min(h.lo, job.release);
    h.hi = std::max(h.hi, job.deadline);
  }
  return h;
}

std::int64_t Instance::total_volume() const {
  std::int64_t v = 0;
  for (const Job& job : jobs) v += job.processing;
  return v;
}

bool Instance::is_laminar() const {
  // O(n log n): sweep windows by (lo asc, hi desc) with a stack of the
  // currently-open ancestors. Each window must either start after the
  // innermost open window ends (disjoint — pop it) or nest inside it;
  // a partial overlap fails. Equal windows nest, matching the pairwise
  // definition (disjoint / a ⊆ b / b ⊆ a).
  std::vector<Interval> windows;
  windows.reserve(jobs.size());
  for (const Job& job : jobs) windows.push_back(job.window());
  std::sort(windows.begin(), windows.end(), [](const Interval& a,
                                               const Interval& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.hi > b.hi;
  });
  std::vector<Interval> open;
  for (const Interval& w : windows) {
    while (!open.empty() && open.back().hi <= w.lo) open.pop_back();
    if (!open.empty() && w.hi > open.back().hi) return false;
    open.push_back(w);
  }
  return true;
}

std::int64_t Instance::volume_lower_bound() const {
  return ceil_div(total_volume(), g);
}

std::string summary(const Instance& instance) {
  std::ostringstream os;
  os << "n=" << instance.num_jobs() << " g=" << instance.g << " horizon="
     << instance.horizon() << " volume=" << instance.total_volume();
  return os.str();
}

}  // namespace nat::at
