#include "activetime/general.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "activetime/feasibility.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "flow/dinic.hpp"
#include "lp/backend.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nat::at {

const char* to_string(GeneralRounding rounding) {
  switch (rounding) {
    case GeneralRounding::kThreshold: return "threshold";
    case GeneralRounding::kSweep: return "sweep";
    case GeneralRounding::kGreedy: return "greedy";
  }
  return "?";
}

namespace {

/// Warm slot-level feasibility oracle over the full horizon: the
/// job→slot network of feasibility.cpp built once per solve, slot→sink
/// capacities retuned in place (g when open, 0 when closed), max-flow
/// warm-started between queries. The general-instance sibling of the
/// region-level FeasibilityOracle (oracle.hpp).
class SlotOracle {
 public:
  SlotOracle(const Instance& instance, std::vector<Time> slots,
             const util::CancelToken* cancel)
      : instance_(&instance),
        slots_(std::move(slots)),
        cancel_(cancel),
        graph_(instance.num_jobs() + static_cast<int>(slots_.size()) + 2) {
    const int n = instance.num_jobs();
    const int S = num_slots();
    s_ = n + S;
    t_ = n + S + 1;
    for (int j = 0; j < n; ++j) {
      graph_.add_edge(s_, j, instance.jobs[j].processing);
    }
    sink_edge_.resize(S);
    for (int k = 0; k < S; ++k) {
      sink_edge_[k] = graph_.add_edge(n + k, t_, 0);  // every slot closed
    }
    // Sparse job→slot arcs: a half-open window covers a contiguous run
    // of the sorted slot array, so per job we keep [first, last) slot
    // indices instead of the former dense n×S matrix (whose n*S index
    // products overflow 32 bits near the job-count cap on wide
    // horizons, and whose memory is quadratic for no reason).
    job_slot_range_.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const Interval w = instance.jobs[j].window();
      const auto first = std::lower_bound(slots_.begin(), slots_.end(), w.lo);
      const auto last = std::lower_bound(first, slots_.end(), w.hi);
      job_slot_range_[j] = {static_cast<int>(first - slots_.begin()),
                            static_cast<int>(last - slots_.begin())};
      for (auto it = first; it != last; ++it) {
        graph_.add_edge(j, n + static_cast<int>(it - slots_.begin()), 1);
      }
    }
    open_.assign(S, 0);
    total_volume_ = instance.total_volume();
  }

  int num_slots() const { return static_cast<int>(slots_.size()); }
  bool is_open(int k) const { return open_[k] != 0; }
  std::int64_t open_count() const { return open_count_; }

  void set_open(int k, bool open) {
    if (is_open(k) == open) return;
    open_[k] = open ? 1 : 0;
    open_count_ += open ? 1 : -1;
    graph_.set_capacity(sink_edge_[k], open ? instance_->g : 0);
  }

  void apply(const std::vector<char>& open) {
    NAT_CHECK(static_cast<int>(open.size()) == num_slots());
    for (int k = 0; k < num_slots(); ++k) set_open(k, open[k] != 0);
  }

  /// Warm max-flow saturation test for the current open set.
  bool feasible() {
    util::poll_cancel(cancel_);
    static obs::Counter& c = obs::counter("at.general.oracle_checks");
    c.add(1);
    graph_.max_flow(s_, t_);
    return graph_.flow_value() == total_volume_;
  }

  /// After an infeasible feasible(): true iff opening closed slot `k`
  /// creates an augmenting path — some min-cut-source-side job's window
  /// contains it, so s→…→j (residual) →k (cap 1, unused) →t (cap g)
  /// strictly grows the flow.
  bool open_can_help(int k, const std::vector<bool>& cut) const {
    const int n = instance_->num_jobs();
    for (int j = 0; j < n; ++j) {
      const auto& [first, last] = job_slot_range_[j];
      if (cut[j] && first <= k && k < last) return true;
    }
    return false;
  }

  std::vector<bool> cut_source_side() const {
    return graph_.min_cut_source_side(s_);
  }

  std::vector<Time> open_slots() const {
    std::vector<Time> out;
    for (int k = 0; k < num_slots(); ++k) {
      if (open_[k]) out.push_back(slots_[k]);
    }
    return out;
  }

 private:
  const Instance* instance_;
  std::vector<Time> slots_;
  const util::CancelToken* cancel_;
  flow::MaxFlowGraph graph_;
  int s_ = 0, t_ = 0;
  std::vector<int> sink_edge_;
  // Per-job [first, last) covered range of the sorted slot array.
  std::vector<std::pair<int, int>> job_slot_range_;
  std::vector<char> open_;
  std::int64_t open_count_ = 0;
  std::int64_t total_volume_ = 0;
};

/// Opens slots (in `priority` order, cut-guided) until feasible.
/// Every opened slot strictly increases the max flow, so the loop
/// terminates within num_slots() iterations on a feasible instance.
int repair_open_slots(SlotOracle& oracle, const std::vector<int>& priority,
                      const util::CancelToken* cancel) {
  int repairs = 0;
  static obs::Counter& c_skips = obs::counter("at.general.cut_skips");
  while (!oracle.feasible()) {
    util::poll_cancel(cancel);
    const std::vector<bool> cut = oracle.cut_source_side();
    int chosen = -1;
    for (int k : priority) {
      if (oracle.is_open(k)) continue;
      if (!oracle.open_can_help(k, cut)) {
        c_skips.add(1);
        continue;
      }
      chosen = k;
      break;
    }
    // A helpful closed slot always exists: otherwise every window slot
    // of every deficit job is already open and the instance would be
    // infeasible outright, which the precheck excluded.
    NAT_CHECK_MSG(chosen >= 0, "general repair: no slot can help");
    oracle.set_open(chosen, true);
    ++repairs;
    NAT_CHECK_MSG(repairs <= oracle.num_slots(),
                  "general repair failed to converge");
  }
  return repairs;
}

/// Closes slots (in `order`) while the oracle stays feasible. One pass
/// reaches minimality: feasibility is monotone in the open set.
void trim_open_slots(SlotOracle& oracle, const std::vector<int>& order,
                     const util::CancelToken* cancel) {
  for (int k : order) {
    if (!oracle.is_open(k)) continue;
    util::poll_cancel(cancel);
    oracle.set_open(k, false);
    if (!oracle.feasible()) oracle.set_open(k, true);
  }
}

constexpr double kEps = 1e-9;

}  // namespace

GeneralSolveResult solve_general(const Instance& instance,
                                 const GeneralSolverOptions& options) {
  GeneralSolveResult result;
  if (instance.jobs.empty()) return result;

  obs::Span span_total("solve_general");
  static obs::Counter& c_solves = obs::counter("at.general.solves");
  c_solves.add(1);

  const Interval horizon = instance.horizon();
  std::vector<Time> slots;
  slots.reserve(static_cast<std::size_t>(horizon.length()));
  for (Time t = horizon.lo; t < horizon.hi; ++t) slots.push_back(t);
  const int T = static_cast<int>(slots.size());

  SlotOracle oracle(instance, slots, options.cancel);

  // Feasibility of the instance itself (every slot open).
  {
    obs::Span span("solve_general/feasibility_precheck");
    for (int k = 0; k < T; ++k) oracle.set_open(k, true);
    NAT_CHECK_MSG(oracle.feasible(), "instance is infeasible");
  }

  // Greedy deactivation on the warm oracle: start all-open, close
  // right-to-left while feasible — a minimal feasible set (3-approx).
  // Used when the LP fails and as the last-resort budget fallback.
  std::vector<int> right_to_left(T);
  std::iota(right_to_left.rbegin(), right_to_left.rend(), 0);
  const auto run_greedy = [&] {
    obs::Span span("solve_general/greedy");
    std::vector<char> all(T, 1);
    oracle.apply(all);
    trim_open_slots(oracle, right_to_left, options.cancel);
    return oracle.open_count();
  };

  TimeIndexedLp lp = [&] {
    obs::Span span("solve_general/lp_build");
    return build_time_indexed_lp(instance);
  }();
  NAT_CHECK(static_cast<int>(lp.slots.size()) == T);
  lp::Solution lps = [&] {
    obs::Span span("solve_general/lp_solve");
    lp::SolveOptions lp_options;
    lp_options.cancel = options.cancel;
    return lp::solve_auto(lp.model, lp_options);
  }();

  std::vector<Time> best_slots;
  if (lps.status != lp::Status::kOptimal) {
    static obs::Counter& c_fail = obs::counter("at.general.lp_failures");
    c_fail.add(1);
    result.lp_failed = true;
    result.rounding = GeneralRounding::kGreedy;
    run_greedy();
    best_slots = oracle.open_slots();
  } else {
    result.lp_value = lps.objective;
    result.lp_iterations = lps.iterations;

    std::vector<double> x(T);
    for (int k = 0; k < T; ++k) x[k] = lps.x[lp.x_var[k]];

    // Deterministic orders keyed on the LP solution: repair prefers the
    // largest-x closed slots (the fractional support first), trim
    // removes the smallest-x slots first. Ties break on slot index.
    std::vector<int> by_x_desc(T), by_x_asc(T);
    std::iota(by_x_desc.begin(), by_x_desc.end(), 0);
    by_x_asc = by_x_desc;
    std::sort(by_x_desc.begin(), by_x_desc.end(), [&](int a, int b) {
      return x[a] != x[b] ? x[a] > x[b] : a < b;
    });
    std::sort(by_x_asc.begin(), by_x_asc.end(), [&](int a, int b) {
      return x[a] != x[b] ? x[a] < x[b] : a < b;
    });

    const auto run_candidate = [&](const std::vector<char>& open,
                                   int* repairs) {
      oracle.apply(open);
      *repairs = repair_open_slots(oracle, by_x_desc, options.cancel);
      // Trimming only removes slots, so feasibility and the budget hold;
      // unlike Algorithm 1, this rounding has no per-slot charging
      // argument that a trim could invalidate.
      trim_open_slots(oracle, by_x_asc, options.cancel);
      return oracle.open_count();
    };
    // ALG <= 2·LP, with double-path slack mirroring the rational
    // certificate (verify::check_general_budget).
    const auto within_budget = [&](std::int64_t count) {
      const double slack = verify::kDefaultRadius * (T + 2) *
                           std::max(1.0, std::abs(result.lp_value));
      return static_cast<double>(count) <= 2.0 * result.lp_value + slack;
    };

    // Threshold candidate: the x >= 1/2 support.
    std::vector<char> threshold(T, 0);
    for (int k = 0; k < T; ++k) {
      if (x[k] >= 0.5 - kEps) threshold[k] = 1;
    }
    {
      obs::Span span("solve_general/round_threshold");
      int repairs = 0;
      const std::int64_t count = run_candidate(threshold, &repairs);
      result.rounding = GeneralRounding::kThreshold;
      result.repairs = repairs;
      best_slots = oracle.open_slots();
      (void)count;
    }

    if (!within_budget(static_cast<std::int64_t>(best_slots.size()))) {
      // Sweep candidate: open a slot whenever the doubled cumulative LP
      // mass crosses an integer — at most floor(2·LP) slots, meeting
      // every interval lower bound ceil(q(I)/g) (docs/GENERAL.md).
      obs::Span span("solve_general/round_sweep");
      std::vector<char> sweep(T, 0);
      double cum = 0.0;
      std::int64_t crossed = 0;
      for (int k = 0; k < T; ++k) {
        cum += x[k];
        const auto up =
            static_cast<std::int64_t>(std::floor(2.0 * cum + kEps));
        if (up > crossed) {
          sweep[k] = 1;
          crossed = up;
        }
      }
      int repairs = 0;
      const std::int64_t count = run_candidate(sweep, &repairs);
      if (count < static_cast<std::int64_t>(best_slots.size())) {
        result.rounding = GeneralRounding::kSweep;
        result.repairs = repairs;
        best_slots = oracle.open_slots();
      }
    }

    if (!within_budget(static_cast<std::int64_t>(best_slots.size()))) {
      const std::int64_t count = run_greedy();
      if (count < static_cast<std::int64_t>(best_slots.size())) {
        result.rounding = GeneralRounding::kGreedy;
        result.repairs = 0;
        best_slots = oracle.open_slots();
      }
    }
  }

  static obs::Counter& c_repairs = obs::counter("at.general.repairs");
  c_repairs.add(result.repairs);
  switch (result.rounding) {
    case GeneralRounding::kThreshold: {
      static obs::Counter& c = obs::counter("at.general.round.threshold");
      c.add(1);
      break;
    }
    case GeneralRounding::kSweep: {
      static obs::Counter& c = obs::counter("at.general.round.sweep");
      c.add(1);
      break;
    }
    case GeneralRounding::kGreedy: {
      static obs::Counter& c = obs::counter("at.general.round.greedy");
      c.add(1);
      break;
    }
  }

  result.open_slots = std::move(best_slots);
  obs::Span span_extract("solve_general/extract");
  auto schedule = schedule_with_slots(instance, result.open_slots);
  NAT_CHECK_MSG(schedule.has_value(), "post-rounding extraction failed");
  result.schedule = std::move(*schedule);
  validate_schedule(instance, result.schedule);
  result.active_slots = result.schedule.active_slots();

  const verify::VerifyLevel vlevel =
      verify::resolve_level(options.verify_level);
  if (vlevel != verify::VerifyLevel::kOff) {
    obs::Span span("solve_general/verify_schedule");
    verify::require(
        "schedule",
        verify::check_schedule(instance, result.schedule, result.active_slots,
                               static_cast<std::int64_t>(
                                   result.open_slots.size())));
  }
  if (vlevel == verify::VerifyLevel::kFull && !result.lp_failed) {
    obs::Span span("solve_general/verify_budget");
    verify::require("general_budget",
                    verify::check_general_budget(result.active_slots,
                                                 result.lp_value, T));
  }
  return result;
}

}  // namespace nat::at
