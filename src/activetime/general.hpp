// LP-rounding 2-approximation for *general* (non-laminar) active-time
// instances, after Chang–Khuller–Mukherjee (arXiv 1610.08154).
//
// The 9/5 pipeline of solver.hpp needs nested windows; this backend
// drops that restriction. It solves the natural time-indexed LP
// (time_indexed_lp.hpp) through the shared lp::solve_auto backend and
// rounds the fractional x(t) to an open-slot set with a flow-repair
// loop on a *warm* slot-level oracle (one Lemma-4.1-style network per
// solve, Dinic capacities retuned in place between queries):
//
//  * threshold candidate: open S = {t : x(t) >= 1/2}; while the flow
//    test fails, open the highest-x closed slot whose opening grows the
//    certified min cut (strict flow progress, so the loop terminates);
//  * sweep candidate (tried when the threshold result misses the
//    budget): open a slot every time the doubled cumulative LP mass
//    crosses an integer — exactly floor(2·LP) slots that satisfy every
//    interval lower bound ceil(q(I)/g) (docs/GENERAL.md has the proof
//    sketch);
//  * both candidates are trimmed back to minimal feasible (ascending
//    x), and greedy deactivation (all-open, close right-to-left on the
//    same warm oracle) is the final fallback when the LP fails or both
//    candidates exceed 2·LP.
//
// The returned solution is always flow-certified feasible; the 2·LP
// budget is certified in rational arithmetic by the verify layer
// (verify::check_general_budget) at kFull, and the differential fuzzer
// checks the full sandwich LP <= OPT <= ALG <= 2·OPT against the exact
// brute-force baseline on small instances.
#pragma once

#include <cstdint>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/schedule.hpp"
#include "util/cancel.hpp"
#include "verify/verify.hpp"

namespace nat::at {

/// Which rounding produced the returned open-slot set.
enum class GeneralRounding {
  kThreshold,  // x >= 1/2 support + flow repair + trim
  kSweep,      // doubled-prefix-mass crossings + flow repair + trim
  kGreedy,     // greedy deactivation fallback
};

const char* to_string(GeneralRounding rounding);

struct GeneralSolverOptions {
  // Exact-arithmetic self-check level (see verify/verify.hpp).
  verify::VerifyLevel verify_level = verify::VerifyLevel::kDefault;
  // Cooperative cancellation (util/cancel.hpp): polled at every simplex
  // pivot, oracle flow query, repair step, and trim step.
  const util::CancelToken* cancel = nullptr;
};

struct GeneralSolveResult {
  Schedule schedule;             // feasible for the instance
  std::int64_t active_slots = 0;
  std::vector<Time> open_slots;  // the rounded open set (sorted)
  double lp_value = 0.0;         // optimum of the time-indexed LP
  GeneralRounding rounding = GeneralRounding::kThreshold;
  // True when the LP backend failed to reach optimal and the solve fell
  // back to greedy deactivation (no 2·LP certificate in that case —
  // lp_value is 0 and rounding is kGreedy).
  bool lp_failed = false;
  int repairs = 0;               // slots opened by the flow-repair loop
  std::int64_t lp_iterations = 0;
};

/// Solves an arbitrary-window instance with the LP-rounding 2-approx.
/// NAT_CHECKs feasibility (the instance must fit with every slot open).
/// Laminar instances are accepted too — the dispatcher in solver.hpp
/// routes them to the 9/5 pipeline instead, but nothing here assumes
/// non-laminarity.
GeneralSolveResult solve_general(const Instance& instance,
                                 const GeneralSolverOptions& options = {});

}  // namespace nat::at
