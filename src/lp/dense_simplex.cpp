#include "lp/dense_simplex.hpp"

#include "obs/counters.hpp"

namespace nat::lp {

Solution solve(const Model& model, const SolveOptions& options) {
  TableauSimplex<DoubleTraits> solver;
  TableauSimplex<DoubleTraits>::Options opt;
  opt.tol = options.tol;
  opt.feas_tol = options.feas_tol;
  opt.cancel = options.cancel;
  Solution sol = solver.solve(model, opt);
  // Every iteration of the dense tableau backend is a pivot.
  static obs::Counter& c_solves = obs::counter("lp.dense.solves");
  static obs::Counter& c_pivots = obs::counter("lp.dense.pivots");
  c_solves.add(1);
  c_pivots.add(sol.iterations);
  return sol;
}

}  // namespace nat::lp
