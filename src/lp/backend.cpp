#include "lp/backend.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "lp/sparse_simplex.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"

namespace nat::lp {

BackendKind parse_backend(const char* name) {
  if (name == nullptr || *name == '\0') return BackendKind::kSparse;
  if (std::strcmp(name, "sparse") == 0) return BackendKind::kSparse;
  if (std::strcmp(name, "check") == 0) return BackendKind::kCheck;
  NAT_CHECK_MSG(false, "NAT_LP_BACKEND: unknown backend '"
                           << name << "' (expected sparse|check)");
  return BackendKind::kSparse;
}

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSparse: return "sparse";
    case BackendKind::kCheck: return "check";
  }
  return "?";
}

BackendKind default_backend() {
  static const BackendKind kind = parse_backend(std::getenv("NAT_LP_BACKEND"));
  return kind;
}

Solution solve_with(BackendKind kind, const Model& model,
                    const SolveOptions& options) {
  switch (kind) {
    case BackendKind::kSparse:
      return solve_sparse(model, options);
    case BackendKind::kCheck: {
      Solution sparse = solve_sparse(model, options);
      Solution dense = solve(model, options);
      static obs::Counter& c_checks = obs::counter("lp.backend.checks");
      c_checks.add(1);
      NAT_CHECK_MSG(sparse.status == dense.status,
                    "lp backend check: status mismatch (sparse="
                        << to_string(sparse.status) << ", dense="
                        << to_string(dense.status) << ")");
      if (sparse.status == Status::kOptimal) {
        const double diff = std::abs(sparse.objective - dense.objective);
        NAT_CHECK_MSG(
            diff <= kCheckRelTol * (1.0 + std::abs(dense.objective)),
            "lp backend check: objective mismatch (sparse="
                << sparse.objective << ", dense=" << dense.objective << ")");
      }
      return sparse;
    }
  }
  NAT_CHECK_MSG(false, "unreachable backend kind");
  return {};
}

Solution solve_auto(const Model& model, const SolveOptions& options) {
  return solve_with(default_backend(), model, options);
}

}  // namespace nat::lp
