// Robust active-time scheduling over interval processing times
// (docs/ROBUST.md).
//
// Jobs may carry an uncertainty box [p_lo, p_hi] around their nominal
// processing time (job.hpp). solve_robust certifies the whole box from
// its two cost corners, in this order:
//
//  * the p_hi corner solve — worst-case feasibility and the upper
//    bound. The corner's solve_active_time starts with its all-slots-
//    open Lemma 4.1 flow test (region-level FeasibilityOracle when
//    laminar, SlotOracle otherwise), so that precheck is the
//    worst-case test: if the worst corner fits, every realization in
//    the box fits, since feasibility is antitone in every p_j;
//  * the nominal solve;
//  * best-case lower bound `robust_lo` — the LP relaxation of the p_lo
//    corner (strengthened LP when laminar, natural time-indexed LP
//    otherwise). LP(p_lo) <= OPT(p_lo) <= OPT(p) for every realization
//    p in the box, because OPT is monotone in each p_j.
//
// The worst-case upper bound `robust_hi` is the algorithmic cost of the
// p_hi corner, clamped from below by the nominal cost. ALG(p_hi) >=
// OPT(p_hi) >= OPT(p) for every realization, so `robust_hi` open slots
// always suffice (the clamp covers the fact that the rounding
// heuristics are not provably monotone in p).
//
// The verify layer re-certifies the sandwich
// LP(p_lo) <= ALG(p) <= robust_hi in rational arithmetic at kFull
// (verify::check_robust_sandwich). Point instances (no intervals) take
// a degenerate path that is bit-identical to solve_active_time.
#pragma once

#include <cstdint>

#include "activetime/instance.hpp"
#include "activetime/solver.hpp"
#include "util/cancel.hpp"
#include "verify/verify.hpp"

namespace nat::at {

struct RobustSolverOptions {
  // Options forwarded to the nominal and hi-corner solves.
  ActiveTimeOptions base;
  // Exact-arithmetic certificate level for the sandwich.
  verify::VerifyLevel verify_level = verify::VerifyLevel::kDefault;
  // Convenience: when set, overrides the cancel token of every phase.
  const util::CancelToken* cancel = nullptr;
};

struct RobustSolveResult {
  // The nominal solve — identical to solve_active_time(instance).
  ActiveTimeResult nominal;
  // Best-case LP lower bound: LP(p_lo) <= OPT(p) for every realization.
  double robust_lo = 0.0;
  // Worst-case upper bound: max(ALG(p), ALG(p_hi)) slots always
  // suffice. Equals the nominal cost on point instances.
  std::int64_t robust_hi = 0;
  // Backend that solved the p_hi corner (== nominal.backend when
  // degenerate).
  Backend hi_backend = Backend::kNested;
  // True when the instance carries no uncertainty intervals and the
  // degenerate (pure point) path ran.
  bool degenerate = false;
};

/// Solves the nominal instance and certifies the uncertainty box.
/// Throws util::CheckError "instance is infeasible" (from the corner's
/// own precheck) when the worst-case (p_hi) corner does not fit with
/// every slot open.
RobustSolveResult solve_robust(const Instance& instance,
                               const RobustSolverOptions& options = {});

}  // namespace nat::at
