// Dense two-phase tableau simplex in double (see lp/simplex.hpp for the
// algorithm): the oracle that NAT_LP_BACKEND=check and the tests compare
// the sparse backend against. Also home of the shared Solution and
// SolveOptions types.
#pragma once

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace nat::lp {

using Solution = GenericSolution<double>;

struct SolveOptions {
  double tol = 1e-9;
  double feas_tol = 1e-7;
  // Cooperative cancellation, polled per pivot (util/cancel.hpp).
  const util::CancelToken* cancel = nullptr;
};

/// Solves `model` (minimization) with the dense two-phase simplex.
Solution solve(const Model& model, const SolveOptions& options = {});

}  // namespace nat::lp
