// End-to-end 9/5-approximation for nested active-time scheduling
// (Theorem 4.15): canonicalize → strengthened LP → Lemma 3.1 transform
// → Algorithm 1 rounding → flow-certified schedule extraction.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "activetime/general.hpp"
#include "activetime/instance.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/schedule.hpp"
#include "activetime/tree.hpp"
#include "util/cancel.hpp"
#include "verify/verify.hpp"

namespace nat::at {

struct NestedSolverOptions {
  StrongLpOptions lp;          // ceiling-constraint / aggregation flags
  // Exact-arithmetic self-check level (see verify/verify.hpp).
  // kDefault resolves via NAT_VERIFY, else full in Debug builds and off
  // in Release — the Release hot path pays nothing.
  verify::VerifyLevel verify_level = verify::VerifyLevel::kDefault;
  // Ablation: skip the Lemma 3.1 transform and Algorithm 1, rounding
  // every region up instead (valid but without the 9/5 guarantee).
  bool naive_rounding = false;
  // Engineering addition (not in the paper): after rounding, close
  // opened region slots while the flow oracle stays feasible. Only ever
  // removes slots, so the 9/5 guarantee is preserved; off by default so
  // the default pipeline is the paper's algorithm verbatim.
  bool trim_rounded = false;
  // Cooperative cancellation/deadline (util/cancel.hpp): polled at
  // every simplex pivot, oracle query, repair step, and trim step, so
  // a fired token aborts the solve with CancelledError at the next
  // poll. The caller owns the token; nullptr disables polling.
  const util::CancelToken* cancel = nullptr;
};

struct NestedSolveResult {
  Schedule schedule;            // feasible for the *original* instance
  std::int64_t active_slots = 0;
  double lp_value = 0.0;        // optimum of the strengthened LP
  std::vector<double> x_fractional;  // transformed LP solution, per node
  std::vector<Time> x_rounded;       // integral open counts, per node
  std::vector<int> topmost;          // the set I
  // Extra region slots opened because floating-point slack made the
  // rounded vector flow-infeasible. Expected (and asserted in tests to
  // be) zero; reported for transparency.
  int repairs = 0;
  std::int64_t lp_iterations = 0;
};

/// Solves a laminar instance. NAT_CHECKs laminarity and feasibility
/// (the instance must fit when every slot is open). LP (1) is solved
/// cold by lp::solve_auto.
NestedSolveResult solve_nested(const Instance& instance,
                               const NestedSolverOptions& options = {});

/// The LP (1) step of solve_nested: solves the strengthened LP built
/// over the (canonical) forest.
using StrongLpStep =
    std::function<lp::Solution(const LaminarForest&, const StrongLp&)>;

/// solve_nested with the caller's LP (1) step; every other stage — the
/// precheck, push-down, Algorithm 1, repair, trim, extraction and the
/// verify hooks — is the same. The incremental session (session.hpp)
/// passes its warm, canonicalizing step here.
NestedSolveResult solve_nested(const Instance& instance,
                               const NestedSolverOptions& options,
                               const StrongLpStep& solve_lp);

class FeasibilityOracle;

/// Opens additional region slots until `counts` is flow-feasible.
/// Only ever triggered by floating-point slack in the LP; returns the
/// number of increments. solve_nested's repair stage, public so the
/// end-to-end benchmark's layer replay (bench_e2e/) can time it alone.
int repair_open_counts(const LaminarForest& forest, FeasibilityOracle& oracle,
                       std::vector<Time>& counts);

/// Value of the strengthened LP alone (lower bound on OPT).
double strong_lp_value(const Instance& instance,
                       const StrongLpOptions& options = {});

/// --- Laminarity auto-dispatch --------------------------------------------

/// Which pipeline actually solved the instance. Every service record
/// (batch cell, session op, daemon response) carries the tag as its
/// `backend` field.
enum class Backend {
  kNested,   // laminar: the 9/5 pipeline (solve_nested)
  kGeneral,  // non-laminar: the LP-rounding 2-approx (solve_general)
  kGreedy,   // non-laminar, LP failed: greedy deactivation fallback
};

const char* to_string(Backend backend);

struct ActiveTimeOptions {
  NestedSolverOptions nested;    // used on the laminar path
  GeneralSolverOptions general;  // used on the non-laminar path
  // Convenience: when set, overrides the cancel token of both paths.
  const util::CancelToken* cancel = nullptr;
};

struct ActiveTimeResult {
  Backend backend = Backend::kNested;
  Schedule schedule;
  std::int64_t active_slots = 0;
  double lp_value = 0.0;  // strengthened LP (nested) / natural LP (general)
  int repairs = 0;
  std::int64_t lp_iterations = 0;
};

/// Front-end dispatcher: tests Instance::is_laminar() (O(n log n)) and
/// routes laminar instances to solve_nested — bit-identical to calling
/// it directly — and everything else to solve_general. `backend`
/// records which path ran; at.dispatch.* counters track the split.
ActiveTimeResult solve_active_time(const Instance& instance,
                                   const ActiveTimeOptions& options = {});

}  // namespace nat::at
