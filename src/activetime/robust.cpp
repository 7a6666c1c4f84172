#include "activetime/robust.hpp"

#include <algorithm>

#include "activetime/time_indexed_lp.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nat::at {

namespace {

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

  // The p_hi corner first. Its solve starts with the all-open Lemma 4.1
  // flow test, and if the worst corner fits, every realization in the
  // box fits (feasibility is antitone in each p_j). An infeasible corner
  // throws "instance is infeasible" before anything else runs, which
  // the service layers classify as such.
  const Instance hi = instance.hi_corner();
  ActiveTimeResult hi_result;
  {
    obs::Span span("solve_robust/hi_corner_solve");
    hi_result = solve_active_time(hi, base);
  }
  result.hi_backend = hi_result.backend;

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
  result.robust_hi =
      std::max(hi_result.active_slots, result.nominal.active_slots);

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
