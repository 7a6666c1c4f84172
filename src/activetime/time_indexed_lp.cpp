#include "activetime/time_indexed_lp.hpp"

#include <algorithm>
#include <map>

#include "lp/backend.hpp"
#include "util/check.hpp"

namespace nat::at {

std::int64_t forced_volume(const Job& job, const Interval& interval) {
  const Interval w = job.window();
  const Time inter_lo = std::max(w.lo, interval.lo);
  const Time inter_hi = std::min(w.hi, interval.hi);
  const Time inside = std::max<Time>(0, inter_hi - inter_lo);
  const Time outside = w.length() - inside;
  return std::max<std::int64_t>(0, job.processing - outside);
}

TimeIndexedLp build_time_indexed_lp(const Instance& instance,
                                    CeilingIntervals intervals) {
  instance.validate();
  TimeIndexedLp out;
  const Interval horizon = instance.horizon();
  for (Time t = horizon.lo; t < horizon.hi; ++t) out.slots.push_back(t);
  const int T = static_cast<int>(out.slots.size());

  // x(t) in [0, 1].
  out.x_var.resize(T);
  for (int k = 0; k < T; ++k) {
    out.x_var[k] = out.model.add_variable(0.0, 1.0, 1.0);
  }

  // Symmetric job classes by (window, processing).
  struct Cls {
    Job job;
    int count = 0;
  };
  std::map<std::tuple<Time, Time, std::int64_t>, Cls> classes;
  for (const Job& job : instance.jobs) {
    auto& c = classes[{job.release, job.deadline, job.processing}];
    c.job = job;
    ++c.count;
  }

  std::vector<std::vector<std::pair<int, double>>> capacity(T);
  for (const auto& [key, cls] : classes) {
    (void)key;
    TimeIndexedClass out_cls;
    out_cls.job = cls.job;
    out_cls.count = cls.count;
    std::vector<std::pair<int, double>> coverage;
    for (int k = 0; k < T; ++k) {
      if (!cls.job.window().contains(out.slots[k])) continue;
      int v = out.model.add_variable(0.0, lp::kInf, 0.0);
      out_cls.y_vars.push_back({k, v});
      coverage.push_back({v, 1.0});
      capacity[k].push_back({v, 1.0});
      // y(t, j) <= x(t), aggregated over the class.
      out.model.add_row(
          lp::Sense::kLe, 0.0,
          {{v, 1.0}, {out.x_var[k], -static_cast<double>(cls.count)}});
    }
    out.model.add_row(lp::Sense::kGe,
                      static_cast<double>(cls.count) *
                          static_cast<double>(cls.job.processing),
                      std::move(coverage));
    out.classes.push_back(std::move(out_cls));
  }
  for (int k = 0; k < T; ++k) {
    if (capacity[k].empty()) continue;
    auto row = capacity[k];
    row.push_back({out.x_var[k], -static_cast<double>(instance.g)});
    out.model.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }

  if (intervals == CeilingIntervals::kNone) return out;

  // Ceiling rows over the chosen interval family.
  std::vector<Time> endpoints;
  if (intervals == CeilingIntervals::kAll) {
    for (Time t = horizon.lo; t <= horizon.hi; ++t) endpoints.push_back(t);
  } else {
    for (const Job& job : instance.jobs) {
      endpoints.push_back(job.release);
      endpoints.push_back(job.deadline);
    }
    std::sort(endpoints.begin(), endpoints.end());
    endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                    endpoints.end());
  }
  for (std::size_t a = 0; a < endpoints.size(); ++a) {
    for (std::size_t b = a + 1; b < endpoints.size(); ++b) {
      const Interval iv{endpoints[a], endpoints[b]};
      std::int64_t forced = 0;
      for (const Job& job : instance.jobs) forced += forced_volume(job, iv);
      if (forced == 0) continue;
      const std::int64_t rhs = ceil_div(forced, instance.g);
      std::vector<std::pair<int, double>> row;
      for (int k = 0; k < static_cast<int>(out.slots.size()); ++k) {
        if (iv.contains(out.slots[k])) row.push_back({out.x_var[k], 1.0});
      }
      out.model.add_row(lp::Sense::kGe, static_cast<double>(rhs),
                        std::move(row));
      ++out.num_ceiling_rows;
    }
  }
  return out;
}

double natural_lp_value(const Instance& instance) {
  TimeIndexedLp lp = build_time_indexed_lp(instance, CeilingIntervals::kNone);
  lp::Solution sol = lp::solve_auto(lp.model);
  NAT_CHECK_MSG(sol.status == lp::Status::kOptimal,
                "natural LP: " << lp::to_string(sol.status));
  return sol.objective;
}

double cw_lp_value(const Instance& instance, CeilingIntervals intervals) {
  TimeIndexedLp lp = build_time_indexed_lp(instance, intervals);
  lp::Solution sol = lp::solve_auto(lp.model);
  NAT_CHECK_MSG(sol.status == lp::Status::kOptimal,
                "CW LP: " << lp::to_string(sol.status));
  return sol.objective;
}

}  // namespace nat::at
