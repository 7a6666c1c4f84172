// Sparse revised simplex (bounded variables, product-form inverse).
//
// The floating-point backend of every LP hot path in this repository
// (see lp/backend.hpp for the NAT_LP_BACKEND switch). The LP (1)
// constraint matrix is tree-structured and extremely sparse — coverage,
// capacity, per-job-cap, and ceiling rows each touch a handful of the
// columns — so the dense tableau (lp/dense_simplex.*, kept as the
// oracle) pays O(rows · cols) per pivot for arithmetic that is almost
// entirely zeros. This backend stores the standardized matrix in CSC
// form and keeps the basis inverse as an eta file (product-form updates
// in the Bartels–Golub tradition: one eta per pivot, periodic
// refactorization from the basis columns with partial pivoting), so one
// iteration costs
//   BTRAN                 O(nnz(eta file) + rows)
//   pricing               O(rows + nnz(rows whose dual changed)
//                           + entering candidates)
//   FTRAN                 O(nnz(eta file) + rows)
//   ratio test + update   O(nonzeros of the FTRAN'd column)
// instead of the dense tableau's O(rows · cols) elimination, plus one
//   re-inversion          O(nnz(B) + fill)
// per refactorization (formerly Θ(rows²)). Re-inversion peels the row
// singletons first: while some unassigned row meets exactly one unplaced
// basis column, that column pivots on that row, and its eta is the
// column itself, without fill. Only the rest (the bump) goes in
// sparsest-first with partial pivoting. A re-inversion is due after 100
// pivots or once the updates outgrow 8·rows + 512 nonzeros on top of the
// fresh factor, so a large factor does not use up the updates' budget.
// Pricing is incremental: a row-wise index of the matrix finds the
// columns that meet a row whose dual changed bits since the last
// iteration, and only those reduced costs are recomputed, with the
// expression a full scan uses, so every pivot is the one a full scan
// would pick. Re-inversion is hypersparse:
// each basis column is scattered into a zeroed work vector and only the
// etas whose pivot row it touches are applied. The eta file stays
// bit-identical to a dense FTRAN + scan because the etas run in file
// order, an eta with an exactly-zero pivot entry is skipped, pivot ties
// go to the lowest row (a row-singleton column pivots on its singleton
// row), and each eta stores its entries in ascending row order (BTRAN's
// summation order) — so the column order, not the placement mechanics,
// defines the pivots and vertices (docs/PERFORMANCE.md).
//
// Bounded variables (Dantzig's upper-bounding technique): nonbasic
// variables sit at either bound, the ratio test can end in a bound flip
// without a pivot, and no `x <= u` rows are materialized. Pricing is
// Dantzig with a permanent Bland fallback after a stall threshold
// (finite termination on degenerate/cycling-prone LPs); debug builds
// check every incremental pricing step against a full scan. Differentially
// tested against the dense tableau and the exact rational simplex on
// the LP corpus and random sweeps (tests/test_sparse_simplex.cpp).
//
// Warm starts (docs/INCREMENTAL.md): solve_sparse_warm accepts a Basis
// exported from a previous solve of a *similar* model, factorizes it
// (patching linearly dependent or missing columns), restores primal
// feasibility with a bounded dual-simplex phase when rhs/bound edits
// moved the old vertex out of the box, then finishes with the regular
// primal phase 2. Any anomaly — dimension mismatch, singular basis,
// dual stall — falls back to the cold two-phase path, so a warm call
// is never less robust than a cold one. The ladder is observable via
// lp.sparse.warm_hit / warm_repair / cold_fallback.
//
// The optional canonicalization pass pivots across the optimal face to
// the vertex minimizing a fixed generic secondary objective, so warm
// and cold solves of the same model land on the *same* vertex — the
// property the incremental session layer (activetime/session.*) relies
// on for bit-identical re-solves.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/dense_simplex.hpp"
#include "lp/model.hpp"

namespace nat::lp {

/// Deterministic per-solve statistics (also accumulated into the
/// lp.sparse.* obs counters; the struct exists so benches and tests can
/// read one solve's numbers without diffing the global registry).
struct SparseStats {
  std::int64_t pivots = 0;
  std::int64_t bound_flips = 0;
  std::int64_t degenerate = 0;
  std::int64_t refactorizations = 0;
  std::int64_t eta_nonzeros = 0;  // eta-file size at termination
  // Largest eta file right after a re-inversion (0: none ran).
  std::int64_t factor_nonzeros = 0;
  std::int64_t priced = 0;        // reduced costs computed by pricing
  // Warm-start ladder (solve_sparse_warm; all zero on cold solves).
  std::int64_t warm_hit = 0;       // imported basis was still optimal
  std::int64_t warm_repair = 0;    // warm path succeeded after pivots
  std::int64_t cold_fallback = 0;  // basis unusable, cold solve ran
  std::int64_t dual_pivots = 0;    // bounded dual-simplex repair pivots
  std::int64_t canonical_pivots = 0;  // optimal-face canonicalization
};

/// Nonbasic variables sit at a bound; everything else is basic. The
/// status of slack/artificial columns is not recorded — an import
/// completes the basis with logical columns deterministically.
enum class VarStatus : std::uint8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

/// Exportable basis snapshot: one status per *model* variable. The
/// snapshot is meaningful across models of the same family when the
/// caller maps variable indices by content (activetime/session.cpp).
struct Basis {
  std::vector<VarStatus> variables;
  bool empty() const { return variables.empty(); }
};

struct WarmOptions {
  const Basis* warm = nullptr;    // import hint; nullptr = cold solve
  Basis* export_basis = nullptr;  // filled on optimal termination
  bool canonical = false;         // pivot to the canonical optimal vertex
};

/// Solves `model` (minimization) with the sparse revised simplex.
/// Status/objective agree with lp::solve up to tolerances.
Solution solve_sparse(const Model& model, const SolveOptions& options = {},
                      SparseStats* stats = nullptr);

/// solve_sparse plus warm start / basis export / canonicalization.
Solution solve_sparse_warm(const Model& model, const SolveOptions& options,
                           const WarmOptions& warm,
                           SparseStats* stats = nullptr);

}  // namespace nat::lp
