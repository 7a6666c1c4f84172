#include "activetime/lp_relaxation.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "activetime/opt_bounds.hpp"
#include "util/check.hpp"

namespace nat::at {

std::vector<JobClass> build_job_classes(const LaminarForest& forest,
                                        bool aggregate) {
  std::vector<JobClass> classes;
  if (!aggregate) {
    for (int j = 0; j < static_cast<int>(forest.jobs().size()); ++j) {
      JobClass c;
      c.node = forest.node_of_job(j);
      c.processing = forest.jobs()[j].processing;
      c.jobs = {j};
      classes.push_back(std::move(c));
    }
    return classes;
  }
  std::map<std::pair<int, std::int64_t>, int> index;
  for (int j = 0; j < static_cast<int>(forest.jobs().size()); ++j) {
    const int node = forest.node_of_job(j);
    const std::int64_t p = forest.jobs()[j].processing;
    auto [it, inserted] = index.emplace(std::make_pair(node, p),
                                        static_cast<int>(classes.size()));
    if (inserted) {
      JobClass c;
      c.node = node;
      c.processing = p;
      classes.push_back(std::move(c));
    }
    classes[it->second].jobs.push_back(j);
  }
  return classes;
}

StrongLp build_strong_lp(const LaminarForest& forest,
                         const StrongLpOptions& options) {
  StrongLp out;
  out.classes = build_job_classes(forest, options.aggregate_classes);
  const int m = forest.num_nodes();

  // x(i) in [0, L(i)], objective coefficient 1 (constraint (4) as a
  // variable bound).
  out.x_var.resize(m);
  for (int i = 0; i < m; ++i) {
    out.x_var[i] = out.model.add_variable(
        0.0, static_cast<double>(forest.node(i).length()), 1.0);
  }

  // Y(i, c) >= 0 for i ∈ Des(k(c)); coverage rows (2) per class.
  out.y_vars.resize(out.classes.size());
  // Per-node capacity accumulators for rows (3).
  std::vector<std::vector<std::pair<int, double>>> capacity(m);
  for (std::size_t c = 0; c < out.classes.size(); ++c) {
    const JobClass& cls = out.classes[c];
    std::vector<std::pair<int, double>> coverage;
    for (int i : forest.subtree(cls.node)) {
      if (forest.node(i).length() == 0) continue;  // x(i) forced to 0
      int v = out.model.add_variable(0.0, lp::kInf, 0.0);
      out.y_vars[c].push_back({i, v});
      coverage.push_back({v, 1.0});
      capacity[i].push_back({v, 1.0});
      // Constraint (5), aggregated: Y(i,c) <= |c| * x(i).
      out.model.add_row(lp::Sense::kLe, 0.0,
                        {{v, 1.0},
                         {out.x_var[i], -static_cast<double>(cls.count())}});
    }
    // Constraint (2): total assignment covers the class volume.
    out.model.add_row(
        lp::Sense::kGe,
        static_cast<double>(cls.count()) * static_cast<double>(cls.processing),
        std::move(coverage));
  }

  // Constraint (3): sum of assignments at node i is at most g*x(i).
  for (int i = 0; i < m; ++i) {
    if (capacity[i].empty()) continue;
    auto row = capacity[i];
    row.push_back({out.x_var[i], -static_cast<double>(forest.g())});
    out.model.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }

  // Constraints (7)/(8): x(Des(i)) >= 2 when OPT_i >= 2, >= 3 when >= 3.
  // The per-node OPT_i separation (a flow probe per candidate pair,
  // opt_bounds.cpp) dominates LP build time; ceiling_lower_bounds fans
  // it out across the pool (serially below its cutoff) and is
  // deterministic for every worker count, so the model is identical
  // whether the sweep ran pooled or inline.
  if (options.ceiling_constraints) {
    const std::vector<int> lower = ceiling_lower_bounds(forest);
    for (int i = 0; i < m; ++i) {
      const int lb = lower[i];
      if (lb < 2) continue;
      std::vector<std::pair<int, double>> row;
      for (int d : forest.subtree(i)) row.push_back({out.x_var[d], 1.0});
      out.model.add_row(lp::Sense::kGe, static_cast<double>(lb), row);
      (lb == 2 ? out.nodes_opt_ge_2 : out.nodes_opt_ge_3).push_back(i);
    }
  }
  return out;
}

FractionalSolution unpack(const StrongLp& lp, const lp::Solution& solution) {
  NAT_CHECK_MSG(solution.status == lp::Status::kOptimal,
                "unpack: LP not optimal ("
                    << lp::to_string(solution.status) << ")");
  FractionalSolution out;
  out.x.resize(lp.x_var.size());
  for (std::size_t i = 0; i < lp.x_var.size(); ++i) {
    out.x[i] = std::max(0.0, solution.x[lp.x_var[i]]);
  }
  out.y.resize(lp.y_vars.size());
  for (std::size_t c = 0; c < lp.y_vars.size(); ++c) {
    out.y[c].resize(lp.y_vars[c].size());
    for (std::size_t k = 0; k < lp.y_vars[c].size(); ++k) {
      out.y[c][k] = std::max(0.0, solution.x[lp.y_vars[c][k].second]);
    }
  }
  return out;
}

double lp_violation(const LaminarForest& forest, const StrongLp& lp,
                    const FractionalSolution& sol) {
  const int m = forest.num_nodes();
  double viol = 0.0;
  // Bounds (4).
  for (int i = 0; i < m; ++i) {
    viol = std::max(viol, -sol.x[i]);
    viol = std::max(
        viol, sol.x[i] - static_cast<double>(forest.node(i).length()));
  }
  // Coverage (2), per-job cap (5), capacity (3).
  std::vector<double> node_load(m, 0.0);
  for (std::size_t c = 0; c < lp.classes.size(); ++c) {
    const JobClass& cls = lp.classes[c];
    double covered = 0.0;
    for (std::size_t k = 0; k < lp.y_vars[c].size(); ++k) {
      const int i = lp.y_vars[c][k].first;
      const double y = sol.y[c][k];
      viol = std::max(viol, -y);
      viol = std::max(viol, y - cls.count() * sol.x[i]);
      covered += y;
      node_load[i] += y;
    }
    viol = std::max(
        viol, static_cast<double>(cls.count()) * cls.processing - covered);
  }
  for (int i = 0; i < m; ++i) {
    viol = std::max(viol,
                    node_load[i] - static_cast<double>(forest.g()) * sol.x[i]);
  }
  // Ceiling constraints (7)/(8).
  auto subtree_sum = [&](int i) {
    double s = 0.0;
    for (int d : forest.subtree(i)) s += sol.x[d];
    return s;
  };
  for (int i : lp.nodes_opt_ge_2) viol = std::max(viol, 2.0 - subtree_sum(i));
  for (int i : lp.nodes_opt_ge_3) viol = std::max(viol, 3.0 - subtree_sum(i));
  return viol;
}

}  // namespace nat::at
