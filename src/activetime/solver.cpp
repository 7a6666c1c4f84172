#include "activetime/solver.hpp"

#include <algorithm>

#include "activetime/feasibility.hpp"
#include "activetime/lp_transform.hpp"
#include "activetime/oracle.hpp"
#include "activetime/rounding.hpp"
#include "lp/backend.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace nat::at {

int repair_open_counts(const LaminarForest& forest, FeasibilityOracle& oracle,
                       std::vector<Time>& counts) {
  int repairs = 0;
  std::int64_t budget = 0;  // remaining closed slots; bounds the loop
  for (int i = 0; i < forest.num_nodes(); ++i) {
    budget += forest.node(i).length() - counts[i];
  }
  static obs::Counter& c_skips = obs::counter("at.oracle.cut_skips");
  while (!oracle.feasible(counts)) {
    // Prefer an increment that fixes feasibility outright; otherwise
    // open any closable slot — all-open is feasible, so this makes
    // progress toward a feasible vector. The oracle's min-cut
    // certificate rules most regions out without a probe: an increment
    // that does not grow the certified cut cannot restore feasibility.
    int chosen = -1;
    for (int i = 0; i < forest.num_nodes(); ++i) {
      if (counts[i] >= forest.node(i).length()) continue;
      if (chosen < 0) chosen = i;
      if (!oracle.increment_can_help(i)) {
        c_skips.add(1);
        continue;
      }
      if (oracle.feasible_if_incremented(i)) {
        chosen = i;
        break;
      }
    }
    NAT_CHECK_MSG(chosen >= 0, "repair: no region can be opened further");
    ++counts[chosen];
    ++repairs;
    NAT_CHECK_MSG(repairs <= budget, "repair loop failed to converge");
  }
  return repairs;
}

NestedSolveResult solve_nested(const Instance& instance,
                               const NestedSolverOptions& options) {
  NestedSolveResult result;
  if (instance.jobs.empty()) return result;

  obs::Span span_total("solve_nested");

  LaminarForest forest = [&] {
    obs::Span span("solve_nested/tree_build");
    LaminarForest f = LaminarForest::build(instance);
    f.canonicalize();
    return f;
  }();

  // One incremental oracle serves the precheck, repair, and trim: the
  // network is built once and each query warm-starts from the last.
  FeasibilityOracle oracle(forest);
  oracle.set_cancel(options.cancel);

  // Feasibility of the instance itself (all regions fully open).
  {
    obs::Span span("solve_nested/feasibility_precheck");
    std::vector<Time> full(forest.num_nodes());
    for (int i = 0; i < forest.num_nodes(); ++i) {
      full[i] = forest.node(i).length();
    }
    NAT_CHECK_MSG(oracle.feasible(full), "instance is infeasible");
  }

  StrongLp lp = [&] {
    obs::Span span("solve_nested/lp_build");
    return build_strong_lp(forest, options.lp);
  }();
  lp::Solution lps = [&] {
    obs::Span span("solve_nested/lp_solve");
    lp::SolveOptions lp_options;
    lp_options.cancel = options.cancel;
    return lp::solve_auto(lp.model, lp_options);
  }();
  NAT_CHECK_MSG(lps.status == lp::Status::kOptimal,
                "strong LP did not solve: " << lp::to_string(lps.status));
  result.lp_value = lps.objective;
  result.lp_iterations = lps.iterations;

  FractionalSolution frac = unpack(lp, lps);

  const verify::VerifyLevel vlevel =
      verify::resolve_level(options.verify_level);
  if (vlevel == verify::VerifyLevel::kFull) {
    obs::Span span("solve_nested/verify_lp");
    verify::require("lp",
                    verify::check_lp_solution(forest, lp, frac,
                                              result.lp_value));
  }

  if (options.naive_rounding) {
    result.x_rounded.resize(forest.num_nodes());
    for (int i = 0; i < forest.num_nodes(); ++i) {
      result.x_rounded[i] =
          std::min<Time>(eps_ceil(frac.x[i]), forest.node(i).length());
    }
    result.x_fractional = frac.x;
  } else {
    std::vector<double> x_before;
    if (vlevel == verify::VerifyLevel::kFull) x_before = frac.x;
    {
      obs::Span span("solve_nested/push_down");
      push_down_transform(forest, lp, frac);
    }
    if (vlevel == verify::VerifyLevel::kFull) {
      obs::Span span("solve_nested/verify_push_down");
      verify::require("push_down",
                      verify::check_push_down(forest, x_before, frac.x));
      // The transform must keep the solution LP-feasible (Lemma 3.1
      // moves volume alongside the opened mass).
      verify::require("lp_transformed",
                      verify::check_lp_solution(forest, lp, frac,
                                                result.lp_value));
    }
    result.x_fractional = frac.x;
    result.topmost = topmost_positive(forest, frac.x);
    {
      obs::Span span("solve_nested/rounding");
      RoundingResult rounded =
          round_solution(forest, frac.x, result.topmost);
      result.x_rounded = std::move(rounded.x_tilde);
    }
    if (vlevel == verify::VerifyLevel::kFull) {
      obs::Span span("solve_nested/verify_rounding");
      verify::require("rounding",
                      verify::check_rounding(forest, frac.x,
                                             result.x_rounded,
                                             result.topmost));
    }
  }

  {
    obs::Span span("solve_nested/repair");
    result.repairs = repair_open_counts(forest, oracle, result.x_rounded);
    static obs::Counter& c_repairs = obs::counter("at.solver.repairs");
    c_repairs.add(result.repairs);
  }

  if (options.trim_rounded) {
    // One pass suffices for minimality: feasibility is monotone in the
    // counts, so a slot that cannot be closed now never becomes
    // closable after further removals.
    obs::Span span("solve_nested/trim");
    for (int i = 0; i < forest.num_nodes(); ++i) {
      while (result.x_rounded[i] > 0) {
        --result.x_rounded[i];
        if (oracle.feasible(result.x_rounded)) continue;
        ++result.x_rounded[i];
        break;
      }
    }
  }

  obs::Span span_extract("solve_nested/extract");
  auto schedule = schedule_with_counts(forest, result.x_rounded);
  NAT_CHECK_MSG(schedule.has_value(), "post-repair extraction failed");
  result.schedule = std::move(*schedule);
  // The canonical forest only ever shrinks job windows, so the
  // schedule is feasible for the original instance too.
  validate_schedule(instance, result.schedule);
  result.active_slots = result.schedule.active_slots();
  if (vlevel != verify::VerifyLevel::kOff) {
    obs::Span span("solve_nested/verify_schedule");
    std::int64_t open_budget = 0;
    for (Time t : result.x_rounded) open_budget += t;
    verify::require("schedule",
                    verify::check_schedule(instance, result.schedule,
                                           result.active_slots,
                                           open_budget));
  }
  return result;
}

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kNested: return "nested";
    case Backend::kGeneral: return "general";
    case Backend::kGreedy: return "greedy";
  }
  return "?";
}

ActiveTimeResult solve_active_time(const Instance& instance,
                                   const ActiveTimeOptions& options) {
  ActiveTimeResult result;
  if (instance.is_laminar()) {
    static obs::Counter& c = obs::counter("at.dispatch.nested");
    c.add(1);
    NestedSolverOptions nested = options.nested;
    if (options.cancel != nullptr) nested.cancel = options.cancel;
    NestedSolveResult sub = solve_nested(instance, nested);
    result.backend = Backend::kNested;
    result.schedule = std::move(sub.schedule);
    result.active_slots = sub.active_slots;
    result.lp_value = sub.lp_value;
    result.repairs = sub.repairs;
    result.lp_iterations = sub.lp_iterations;
    return result;
  }
  GeneralSolverOptions general = options.general;
  if (options.cancel != nullptr) general.cancel = options.cancel;
  GeneralSolveResult sub = solve_general(instance, general);
  if (sub.lp_failed) {
    static obs::Counter& c = obs::counter("at.dispatch.greedy");
    c.add(1);
    result.backend = Backend::kGreedy;
  } else {
    static obs::Counter& c = obs::counter("at.dispatch.general");
    c.add(1);
    result.backend = Backend::kGeneral;
  }
  result.schedule = std::move(sub.schedule);
  result.active_slots = sub.active_slots;
  result.lp_value = sub.lp_value;
  result.repairs = sub.repairs;
  result.lp_iterations = sub.lp_iterations;
  return result;
}

double strong_lp_value(const Instance& instance,
                       const StrongLpOptions& options) {
  if (instance.jobs.empty()) return 0.0;
  LaminarForest forest = LaminarForest::build(instance);
  forest.canonicalize();
  StrongLp lp = build_strong_lp(forest, options);
  lp::Solution lps = lp::solve_auto(lp.model);
  NAT_CHECK_MSG(lps.status == lp::Status::kOptimal,
                "strong LP did not solve: " << lp::to_string(lps.status));
  return lps.objective;
}

}  // namespace nat::at
