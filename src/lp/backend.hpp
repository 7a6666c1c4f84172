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

/// Solves with an explicit backend.
Solution solve_with(BackendKind kind, const Model& model,
                    const SolveOptions& options = {});

/// Solves with the process-wide default backend.
Solution solve_auto(const Model& model, const SolveOptions& options = {});

}  // namespace nat::lp
