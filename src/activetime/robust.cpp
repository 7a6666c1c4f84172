#include "activetime/robust.hpp"

#include <algorithm>
#include <vector>

#include "activetime/feasibility.hpp"
#include "activetime/oracle.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "activetime/tree.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nat::at {

namespace {

/// Lemma 4.1 worst-case feasibility: does the p_hi corner fit with
/// every slot open? Laminar corners ride the warm region-level
/// FeasibilityOracle (every region count at L(i)); general corners use
/// the slot-level network of feasibility.cpp.
bool worst_case_feasible(const Instance& hi,
                         const util::CancelToken* cancel) {
  if (hi.jobs.empty()) return true;
  util::poll_cancel(cancel);
  if (hi.is_laminar()) {
    LaminarForest forest = LaminarForest::build(hi);
    FeasibilityOracle oracle(forest);
    oracle.set_cancel(cancel);
    std::vector<Time> open(static_cast<std::size_t>(forest.num_nodes()));
    for (int i = 0; i < forest.num_nodes(); ++i) {
      open[static_cast<std::size_t>(i)] = forest.node(i).length();
    }
    return oracle.feasible(open);
  }
  const Interval horizon = hi.horizon();
  std::vector<Time> slots;
  slots.reserve(static_cast<std::size_t>(horizon.length()));
  for (Time t = horizon.lo; t < horizon.hi; ++t) slots.push_back(t);
  return feasible_with_slots(hi, slots);
}

/// LP lower bound of a point corner: the strengthened LP when laminar
/// (the bound the 9/5 pipeline is stated against), the natural
/// time-indexed LP otherwise. Both are valid relaxations, so the value
/// is <= OPT(corner).
double corner_lp_value(const Instance& corner, const StrongLpOptions& lp) {
  if (corner.jobs.empty()) return 0.0;
  if (corner.is_laminar()) return strong_lp_value(corner, lp);
  return natural_lp_value(corner);
}

}  // namespace

RobustSolveResult solve_robust(const Instance& instance,
                               const RobustSolverOptions& options) {
  instance.validate();

  ActiveTimeOptions base = options.base;
  if (options.cancel != nullptr) base.cancel = options.cancel;
  const util::CancelToken* cancel = base.cancel;

  RobustSolveResult result;
  if (!instance.has_processing_intervals()) {
    // Point instance: exactly one realization, so the nominal solve is
    // the whole certificate. This path is bit-identical to calling
    // solve_active_time directly (the differential fuzz leg pins it).
    static obs::Counter& c = obs::counter("at.robust.degenerate");
    c.add(1);
    result.degenerate = true;
    result.nominal = solve_active_time(instance, base);
    result.robust_lo = result.nominal.lp_value;
    result.robust_hi = result.nominal.active_slots;
    result.hi_backend = result.nominal.backend;
    return result;
  }

  obs::Span span_total("solve_robust");
  static obs::Counter& c_solves = obs::counter("at.robust.solves");
  c_solves.add(1);

  // Worst-case feasibility first: if the p_hi corner fits with every
  // slot open, every realization in the box fits (feasibility is
  // antitone in each p_j). The message carries "instance is
  // infeasible" so the service layers classify it as such.
  const Instance hi = instance.hi_corner();
  {
    obs::Span span("solve_robust/worst_case_feasibility");
    NAT_CHECK_MSG(worst_case_feasible(hi, cancel),
                  "instance is infeasible at the worst-case (p_hi) corner");
  }

  // Nominal solve. The solvers only ever read `processing`, so passing
  // the interval-carrying instance gives the same schedule as its
  // stripped point version.
  result.nominal = solve_active_time(instance, base);

  // Best-case lower bound: LP(p_lo) <= OPT(p_lo) <= OPT(p) for every
  // realization p in the box (OPT is monotone in each p_j).
  const Instance lo = instance.lo_corner();
  {
    obs::Span span("solve_robust/lo_corner_lp");
    result.robust_lo = corner_lp_value(lo, base.nested.lp);
  }

  // Worst-case upper bound: ALG(p_hi) >= OPT(p_hi) >= OPT(p), so that
  // many slots always suffice. The roundings are not provably monotone
  // in p, so clamp with the nominal cost to keep ALG(p) <= robust_hi
  // exact.
  {
    obs::Span span("solve_robust/hi_corner_solve");
    const ActiveTimeResult hi_result = solve_active_time(hi, base);
    result.hi_backend = hi_result.backend;
    result.robust_hi =
        std::max(hi_result.active_slots, result.nominal.active_slots);
  }

  const verify::VerifyLevel vlevel =
      verify::resolve_level(options.verify_level);
  if (vlevel == verify::VerifyLevel::kFull) {
    obs::Span span("solve_robust/verify_sandwich");
    const std::int64_t lp_terms =
        lo.horizon().length() + lo.num_jobs() + 1;
    verify::require("robust_sandwich",
                    verify::check_robust_sandwich(
                        result.robust_lo, result.nominal.active_slots,
                        result.robust_hi, lp_terms));
  }
  return result;
}

}  // namespace nat::at
