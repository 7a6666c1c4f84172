// Floating-point LP backend selection (NAT_LP_BACKEND).
//
// Every LP hot path in the repository — the strong LP of solve_nested,
// the time-indexed LPs, and the LP-based exact B&B baseline — solves
// through solve_auto() so one environment switch picks the backend:
//
//   NAT_LP_BACKEND=sparse   sparse revised simplex (the default)
//   NAT_LP_BACKEND=check    sparse, differentially checked against the
//                           dense two-phase tableau (lp::solve) on every
//                           solve (status must match; objectives within
//                           kCheckRelTol) — the dense tableau is the
//                           oracle
//
// The variable is read once per process (first solve_auto call).
//
// Both backends solve a block-diagonal model one block at a time. LP (1)
// never couples two root window groups and a natural time-indexed LP
// separates at idle gaps, so these models split into many independent
// parts, and one simplex over all of them would price and ratio-test
// every part on every iteration. solve_with() takes the connected
// components of the row-variable graph (union-find over row supports,
// O(nnz)), ordered by smallest variable index; variables in no row and
// rows with no variable form one extra trailing block. Each block
// becomes a sub-model with its variables and rows in their original
// order and runs through solve_sparse. Then:
//   * x is scattered back into whole-model order;
//   * objective is recomputed as sum_i c_i x_i in variable order (the
//     sum solve_sparse's extract forms);
//   * iterations is the sum over the blocks;
//   * status is what one two-phase solve of the whole model reports:
//     infeasible as soon as a block is (the remaining blocks are not
//     solved), else iteration-limit if any block hit its cap, else
//     unbounded if any block is, else optimal; x is empty unless
//     optimal.
// A one-block model goes to solve_sparse unchanged, with no copy, so
// single-root LPs keep their pivots and vertex bit for bit. The blocks
// run one after another on the calling thread; callers already fill the
// thread pool with whole requests. `check` compares the stitched result
// against a dense solve of the whole model. The lp.sparse.* counters
// count one solve per block (docs/PERFORMANCE.md, docs/OBSERVABILITY.md).
#pragma once

#include "lp/dense_simplex.hpp"
#include "lp/model.hpp"

namespace nat::lp {

enum class BackendKind { kSparse, kCheck };

/// Relative objective tolerance of the `check` backend's differential
/// comparison (scaled by 1 + |objective|).
inline constexpr double kCheckRelTol = 1e-7;

/// Parses a NAT_LP_BACKEND value; NAT_CHECK-fails on unknown names.
BackendKind parse_backend(const char* name);

const char* backend_name(BackendKind kind);

/// The process-wide default (NAT_LP_BACKEND, read once; kSparse when
/// unset).
BackendKind default_backend();

/// Solves with an explicit backend, one simplex per block (see above).
Solution solve_with(BackendKind kind, const Model& model,
                    const SolveOptions& options = {});

/// Solves with the process-wide default backend.
Solution solve_auto(const Model& model, const SolveOptions& options = {});

}  // namespace nat::lp
