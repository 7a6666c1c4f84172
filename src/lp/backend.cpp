#include "lp/backend.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

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

namespace {

/// One independent part of a block-diagonal model: whole-model variable
/// and row indices, each ascending.
struct Block {
  std::vector<int> vars;
  std::vector<int> rows;
};

/// Connected components of the row-variable graph (union-find over the
/// row supports, O(nnz)), ordered by smallest variable index. Variables
/// in no row and rows with no variable share one trailing block, so the
/// idle slots of a natural LP do not each pay for a simplex setup.
std::vector<Block> split_blocks(const Model& model) {
  const int n = model.num_variables();
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  std::vector<char> in_row(static_cast<std::size_t>(n), 0);
  for (const Row& row : model.rows()) {
    if (row.coeffs.empty()) continue;
    const int root = find(row.coeffs.front().first);
    for (const auto& term : row.coeffs) {
      in_row[term.first] = 1;
      parent[find(term.first)] = root;
    }
  }

  std::vector<Block> blocks;
  Block loose;
  std::vector<int> block_of(static_cast<std::size_t>(n), -1);  // by root
  for (int v = 0; v < n; ++v) {
    if (!in_row[v]) {
      loose.vars.push_back(v);
      continue;
    }
    int& b = block_of[find(v)];
    if (b < 0) {
      b = static_cast<int>(blocks.size());
      blocks.emplace_back();
    }
    blocks[b].vars.push_back(v);
  }
  for (int r = 0; r < model.num_rows(); ++r) {
    const Row& row = model.row(r);
    if (row.coeffs.empty()) {
      loose.rows.push_back(r);
    } else {
      blocks[block_of[find(row.coeffs.front().first)]].rows.push_back(r);
    }
  }
  if (!loose.vars.empty() || !loose.rows.empty()) {
    blocks.push_back(std::move(loose));
  }
  return blocks;
}

/// solve_sparse, one simplex per block; the stitching and status rules
/// are in backend.hpp.
Solution solve_split(const Model& model, const SolveOptions& options) {
  const std::vector<Block> blocks = split_blocks(model);
  if (blocks.size() <= 1) return solve_sparse(model, options);

  Solution out;
  out.status = Status::kOptimal;
  std::vector<double> x(static_cast<std::size_t>(model.num_variables()), 0.0);
  std::vector<int> local(x.size(), -1);
  for (const Block& block : blocks) {
    Model sub;
    for (int v : block.vars) {
      const Variable& var = model.variable(v);
      local[v] = sub.add_variable(var.lower, var.upper, var.objective);
    }
    for (int r : block.rows) {
      const Row& row = model.row(r);
      std::vector<std::pair<int, double>> coeffs = row.coeffs;
      for (auto& term : coeffs) term.first = local[term.first];
      sub.add_row(row.sense, row.rhs, std::move(coeffs));
    }
    const Solution s = solve_sparse(sub, options);
    out.iterations += s.iterations;
    switch (s.status) {
      case Status::kInfeasible:
        // Phase 1 of the whole model would not get past this block.
        out.status = Status::kInfeasible;
        return out;
      case Status::kIterLimit:
        out.status = Status::kIterLimit;
        break;
      case Status::kUnbounded:
        if (out.status == Status::kOptimal) out.status = Status::kUnbounded;
        break;
      case Status::kOptimal:
        for (std::size_t k = 0; k < block.vars.size(); ++k) {
          x[block.vars[k]] = s.x[k];
        }
        break;
    }
  }
  if (out.status == Status::kOptimal) {
    out.objective = model.objective_value(x);  // solve_sparse's sum order
    out.x = std::move(x);
  }
  return out;
}

}  // namespace

Solution solve_with(BackendKind kind, const Model& model,
                    const SolveOptions& options) {
  switch (kind) {
    case BackendKind::kSparse:
      return solve_split(model, options);
    case BackendKind::kCheck: {
      Solution sparse = solve_split(model, options);
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
