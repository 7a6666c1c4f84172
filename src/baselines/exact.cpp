#include "baselines/exact.hpp"

#include <algorithm>
#include <bit>

#include "activetime/feasibility.hpp"
#include "activetime/oracle.hpp"
#include "activetime/tree.hpp"
#include "baselines/greedy.hpp"
#include "util/check.hpp"

namespace nat::at::baselines {

namespace {

class RegionSearch {
 public:
  RegionSearch(const LaminarForest& forest, std::int64_t node_budget,
               const util::CancelToken* cancel)
      : forest_(forest), oracle_(forest), budget_(node_budget),
        cancel_(cancel) {
    oracle_.set_cancel(cancel);
    const int m = forest.num_nodes();
    order_ = forest.postorder();
    pos_of_.assign(m, -1);
    for (std::size_t p = 0; p < order_.size(); ++p) {
      pos_of_[order_[p]] = static_cast<int>(p);
    }
    // Subtree sizes in postorder: subtree(i) occupies the contiguous
    // positions (pos(i) - size(i), pos(i)].
    size_.assign(m, 1);
    for (int i : order_) {
      for (int c : forest.node(i).children) size_[i] += size_[c];
    }
    // Per-subtree lower bounds: volume / g and the longest job.
    sub_lb_.assign(m, 0);
    for (int i : order_) {
      std::int64_t volume = 0;
      std::int64_t longest = 0;
      for (int d : forest.subtree(i)) {
        for (int j : forest.node(d).jobs) {
          volume += forest.jobs()[j].processing;
          longest = std::max(longest, forest.jobs()[j].processing);
        }
      }
      sub_lb_[i] = std::max(ceil_div(volume, forest.g()), longest);
    }
  }

  std::int64_t global_lower_bound() const {
    std::int64_t lb = 0;
    for (int r : forest_.roots()) lb += sub_lb_[r];
    return lb;
  }

  /// Tries to fit everything in at most `k` open slots. Returns the
  /// count vector on success. Sets exhausted() when the budget ran out.
  std::optional<std::vector<Time>> fit(std::int64_t k) {
    k_ = k;
    counts_.assign(forest_.num_nodes(), 0);
    exhausted_ = false;
    if (dfs(0, k)) return counts_;
    return std::nullopt;
  }

  bool exhausted() const { return exhausted_; }
  std::int64_t nodes_explored() const { return nodes_; }

 private:
  bool dfs(std::size_t pos, std::int64_t remaining) {
    if (pos == order_.size()) {
      return oracle_.feasible(counts_);
    }
    const int i = order_[pos];
    const Time cap = std::min<Time>(forest_.node(i).length(), remaining);
    for (Time c = cap; c >= 0; --c) {
      if (++nodes_ > budget_) {
        exhausted_ = true;
        return false;
      }
      // Deadline poll, amortized: most loop turns also hit an oracle
      // query (which polls on entry); this catches pruning-only runs.
      if ((nodes_ & 255) == 0) util::poll_cancel(cancel_);
      counts_[i] = c;
      // Subtree of i is fully assigned now; enforce its lower bound.
      std::int64_t sub_sum = 0;
      for (int p = static_cast<int>(pos) - size_[i] + 1;
           p <= static_cast<int>(pos); ++p) {
        sub_sum += counts_[order_[p]];
      }
      if (sub_sum < sub_lb_[i]) continue;
      // Relaxation: assigned regions at their counts, the rest full.
      // Successive relaxed vectors share almost every entry, so the
      // warm-started oracle pays only for the decremented prefix.
      std::vector<Time> relaxed = counts_;
      for (std::size_t p = pos + 1; p < order_.size(); ++p) {
        relaxed[order_[p]] = forest_.node(order_[p]).length();
      }
      if (!oracle_.feasible(relaxed)) continue;
      if (dfs(pos + 1, remaining - c)) return true;
      if (exhausted_) return false;
    }
    counts_[i] = 0;
    return false;
  }

  const LaminarForest& forest_;
  FeasibilityOracle oracle_;
  std::vector<int> order_;
  std::vector<int> pos_of_;
  std::vector<int> size_;
  std::vector<std::int64_t> sub_lb_;
  std::vector<Time> counts_;
  std::int64_t k_ = 0;
  std::int64_t budget_ = 0;
  std::int64_t nodes_ = 0;
  bool exhausted_ = false;
  const util::CancelToken* cancel_ = nullptr;
};

}  // namespace

std::optional<ExactResult> exact_opt_laminar(const Instance& instance,
                                             const ExactOptions& options) {
  instance.validate();
  if (instance.jobs.empty()) return ExactResult{};

  LaminarForest forest = LaminarForest::build(instance);
  forest.canonicalize();

  // Upper bound from greedy; also certifies feasibility. The scan is
  // the most expensive pre-search phase, so it shares the deadline.
  GreedyResult greedy = greedy_minimal_feasible(
      instance, DeactivationOrder::kRightToLeft, 0, options.cancel);
  const std::int64_t ub = greedy.active_slots;

  RegionSearch search(forest, options.node_budget, options.cancel);
  for (std::int64_t k = search.global_lower_bound(); k <= ub; ++k) {
    auto counts = search.fit(k);
    if (search.exhausted()) return std::nullopt;
    if (!counts.has_value()) continue;
    ExactResult result;
    result.nodes_explored = search.nodes_explored();
    auto sched = schedule_with_counts(forest, *counts);
    NAT_CHECK(sched.has_value());
    result.schedule = std::move(*sched);
    validate_schedule(instance, result.schedule);
    result.optimum = result.schedule.active_slots();
    NAT_CHECK_MSG(result.optimum <= k, "schedule used more slots than k");
    return result;
  }
  // The greedy solution itself is optimal.
  ExactResult result;
  result.nodes_explored = search.nodes_explored();
  result.schedule = greedy.schedule;
  result.optimum = ub;
  return result;
}

std::int64_t exact_opt_common_window(const Instance& instance) {
  instance.validate();
  if (instance.jobs.empty()) return 0;
  const Interval window = instance.jobs.front().window();
  std::int64_t volume = 0;
  std::int64_t longest = 0;
  for (const Job& job : instance.jobs) {
    NAT_CHECK_MSG(job.window() == window,
                  "exact_opt_common_window requires one shared window");
    volume += job.processing;
    longest = std::max(longest, job.processing);
  }
  const std::int64_t opt = std::max(ceil_div(volume, instance.g), longest);
  NAT_CHECK_MSG(opt <= window.length(), "instance is infeasible");
  return opt;
}

std::optional<std::int64_t> exact_opt_brute_force(const Instance& instance,
                                                  int max_horizon) {
  instance.validate();
  if (instance.jobs.empty()) return 0;
  // Candidate slots: union of windows.
  std::vector<Time> slots;
  for (const Job& job : instance.jobs) {
    for (Time t = job.release; t < job.deadline; ++t) slots.push_back(t);
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  const int T = static_cast<int>(slots.size());
  if (T > max_horizon) return std::nullopt;
  NAT_CHECK_MSG(feasible_with_slots(instance, slots),
                "brute force: instance is infeasible");

  int best = T;
  const std::uint32_t full = (T >= 32) ? 0xffffffffu : ((1u << T) - 1);
  for (std::uint32_t mask = 0; mask <= full; ++mask) {
    const int k = std::popcount(mask);
    if (k >= best) continue;
    std::vector<Time> open;
    for (int b = 0; b < T; ++b) {
      if (mask & (1u << b)) open.push_back(slots[b]);
    }
    if (feasible_with_slots(instance, open)) best = k;
    if (mask == full) break;  // avoid wrap when T == 32
  }
  return best;
}

}  // namespace nat::at::baselines
