#include "baselines/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "activetime/feasibility.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::at::baselines {

const char* to_string(DeactivationOrder order) {
  switch (order) {
    case DeactivationOrder::kLeftToRight: return "left-to-right";
    case DeactivationOrder::kRightToLeft: return "right-to-left";
    case DeactivationOrder::kRandom: return "random";
    case DeactivationOrder::kSparsestFirst: return "sparsest-first";
    case DeactivationOrder::kDensestFirst: return "densest-first";
  }
  return "?";
}

GreedyResult greedy_minimal_feasible(const Instance& instance,
                                     DeactivationOrder order,
                                     std::uint64_t seed,
                                     const util::CancelToken* cancel) {
  obs::Span span_total("greedy_minimal_feasible");
  instance.validate();
  // Candidate slots: union of job windows.
  std::vector<Time> slots;
  for (const Job& job : instance.jobs) {
    for (Time t = job.release; t < job.deadline; ++t) slots.push_back(t);
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  const int S = static_cast<int>(slots.size());
  // One warm network for the whole scan: closing a slot retunes its
  // sink capacity to 0 and the next query augments from the retained
  // flow instead of solving from zero.
  SlotOracle oracle(instance, slots, cancel);
  for (int k = 0; k < S; ++k) oracle.set_open(k, true);
  NAT_CHECK_MSG(oracle.feasible(), "greedy: instance is infeasible");

  // Scan order, as indices into `slots`.
  std::vector<int> scan(static_cast<std::size_t>(S));
  std::iota(scan.begin(), scan.end(), 0);
  switch (order) {
    case DeactivationOrder::kLeftToRight:
      break;
    case DeactivationOrder::kRightToLeft:
      std::reverse(scan.begin(), scan.end());
      break;
    case DeactivationOrder::kRandom: {
      util::Rng rng(seed);
      for (std::size_t i = scan.size(); i > 1; --i) {
        std::swap(scan[i - 1],
                  scan[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      break;
    }
    case DeactivationOrder::kSparsestFirst:
    case DeactivationOrder::kDensestFirst: {
      // Number of job windows covering each slot; stable sort keeps
      // the left-to-right order within equal densities.
      auto density = [&instance](Time t) {
        std::int64_t d = 0;
        for (const Job& job : instance.jobs) {
          d += job.window().contains(t) ? 1 : 0;
        }
        return d;
      };
      std::vector<std::pair<std::int64_t, int>> keyed;
      keyed.reserve(scan.size());
      for (int k : scan) keyed.push_back({density(slots[k]), k});
      std::stable_sort(keyed.begin(), keyed.end(),
                       [order](const auto& a, const auto& b) {
                         return order == DeactivationOrder::kSparsestFirst
                                    ? a.first < b.first
                                    : a.first > b.first;
                       });
      for (std::size_t k = 0; k < scan.size(); ++k) scan[k] = keyed[k].second;
      break;
    }
  }

  const int closed = [&] {
    obs::Span span("greedy_minimal_feasible/deactivation");
    return oracle.close_while_feasible(scan);
  }();
  GreedyResult result;
  result.open_slots = oracle.open_slots();
  static obs::Counter& c_closed = obs::counter("baselines.greedy.closed");
  static obs::Counter& c_kept = obs::counter("baselines.greedy.kept");
  c_closed.add(closed);
  c_kept.add(static_cast<std::int64_t>(result.open_slots.size()));

  auto sched = schedule_with_slots(instance, result.open_slots);
  NAT_CHECK(sched.has_value());
  result.schedule = std::move(*sched);
  result.active_slots = result.schedule.active_slots();
  return result;
}

bool is_minimal_feasible(const Instance& instance,
                         const std::vector<Time>& open_slots) {
  if (!feasible_with_slots(instance, open_slots)) return false;
  for (Time t : open_slots) {
    std::vector<Time> without;
    for (Time u : open_slots) {
      if (u != t) without.push_back(u);
    }
    if (feasible_with_slots(instance, without)) return false;
  }
  return true;
}

}  // namespace nat::at::baselines
