#include "activetime/oracle.hpp"

#include "activetime/feasibility.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"

namespace nat::at {

FeasibilityOracle::FeasibilityOracle(const LaminarForest& forest, int root)
    : forest_(forest) {
  static obs::Counter& c_builds = obs::counter("at.oracle.builds");
  c_builds.add(1);

  const int m = forest.num_nodes();
  if (root < 0) {
    scope_.resize(m);
    for (int i = 0; i < m; ++i) scope_[i] = i;
  } else {
    scope_ = forest.subtree(root);
  }
  region_node_.assign(m, -1);
  sink_edge_.assign(m, -1);
  region_arcs_.assign(m, {});
  open_.assign(m, 0);

  // Scoped jobs, in scope order (preorder for subtrees).
  std::vector<std::pair<int, int>> jobs;  // (forest node, job id)
  for (int v : scope_) {
    for (int j : forest.node(v).jobs) jobs.push_back({v, j});
  }
  const int n = static_cast<int>(jobs.size());
  const int mr = static_cast<int>(scope_.size());
  graph_ = flow::MaxFlowGraph(n + mr + 2);
  s_ = n + mr;
  t_ = n + mr + 1;
  for (int k = 0; k < mr; ++k) region_node_[scope_[k]] = n + k;

  // Regions start closed: sink edges and job arcs carry capacity 0 and
  // are retuned per query. Zero-length regions can never open, so they
  // get no edges at all.
  for (int k = 0; k < mr; ++k) {
    const int i = scope_[k];
    if (forest.node(i).length() > 0) {
      sink_edge_[i] = graph_.add_edge(n + k, t_, 0);
    }
  }
  for (int jn = 0; jn < n; ++jn) {
    const auto [v, j] = jobs[jn];
    const std::int64_t p = forest.jobs()[j].processing;
    volume_ += p;
    graph_.add_edge(s_, jn, p);
    // Scopes are subtree-closed, so Des(k(j)) stays inside the scope.
    for (int d : forest.subtree(v)) {
      if (forest.node(d).length() == 0) continue;
      const int e = graph_.add_edge(jn, region_node_[d], 0);
      region_arcs_[d].push_back({jn, e});
    }
  }
}

std::int64_t FeasibilityOracle::apply_region(int i, Time value) {
  cut_dirty_ = true;
  if (sink_edge_[i] < 0) {
    NAT_CHECK_MSG(value == 0, "region " << i << " has no open slots");
    return 0;
  }
  std::int64_t cancelled = graph_.set_capacity(
      sink_edge_[i], region_capacity(forest_.g(), value, volume_));
  for (const auto& [jn, e] : region_arcs_[i]) {
    cancelled += graph_.set_capacity(e, value);
  }
  return cancelled;
}

void FeasibilityOracle::augment() {
  cut_dirty_ = true;
  const std::int64_t pushed = graph_.max_flow(s_, t_);
  static obs::Counter& c_pushed = obs::counter("at.oracle.flow_augmented");
  c_pushed.add(pushed);
}

bool FeasibilityOracle::feasible(const std::vector<Time>& open) {
  util::poll_cancel(cancel_);
  NAT_CHECK(static_cast<int>(open.size()) == forest_.num_nodes());
  static obs::Counter& c_queries = obs::counter("at.oracle.queries");
  static obs::Counter& c_warm = obs::counter("at.oracle.warm_queries");
  static obs::Counter& c_cached = obs::counter("at.oracle.cached_queries");
  static obs::Counter& c_updated = obs::counter("at.oracle.regions_updated");
  static obs::Counter& c_cancel = obs::counter("at.oracle.flow_cancelled");
  c_queries.add(1);
  if (queried_) c_warm.add(1);

  int updated = 0;
  std::int64_t cancelled = 0;
  for (int i : scope_) {
    NAT_CHECK_MSG(open[i] >= 0 && open[i] <= forest_.node(i).length(),
                  "region " << i << ": open count " << open[i]
                            << " out of [0, " << forest_.node(i).length()
                            << "]");
    if (open[i] == open_[i]) continue;
    cancelled += apply_region(i, open[i]);
    open_[i] = open[i];
    ++updated;
  }
  if (updated == 0 && queried_) {
    // The retained flow is already maximal for this exact vector.
    c_cached.add(1);
    return deficit() == 0;
  }
  c_updated.add(updated);
  if (cancelled > 0) c_cancel.add(cancelled);
  queried_ = true;
  augment();
  return deficit() == 0;
}

bool FeasibilityOracle::feasible_if_incremented(int i) {
  util::poll_cancel(cancel_);
  NAT_CHECK(i >= 0 && i < forest_.num_nodes());
  NAT_CHECK_MSG(region_node_[i] >= 0, "region " << i << " out of scope");
  NAT_CHECK_MSG(open_[i] < forest_.node(i).length(),
                "region " << i << " is already fully open");
  static obs::Counter& c_probes = obs::counter("at.oracle.probes");
  c_probes.add(1);

  [[maybe_unused]] const std::int64_t pre = graph_.flow_value();
  apply_region(i, open_[i] + 1);
  augment();
  const bool ok = deficit() == 0;
  // Revert: the decrease strands exactly what the probe routed through
  // the extra slot; a final augmentation restores maximality for the
  // unchanged current vector.
  apply_region(i, open_[i]);
  augment();
  NAT_DCHECK(graph_.flow_value() == pre);
  return ok;
}

const std::vector<bool>& FeasibilityOracle::cut_source_side() {
  if (cut_dirty_) {
    cut_side_ = graph_.min_cut_source_side(s_);
    cut_dirty_ = false;
  }
  return cut_side_;
}

bool FeasibilityOracle::increment_can_help(int i) {
  NAT_CHECK(i >= 0 && i < forest_.num_nodes());
  if (region_node_[i] < 0 || sink_edge_[i] < 0) return false;
  const std::vector<bool>& side = cut_source_side();
  // A +1 on region i grows its sink edge by g and each job arc by 1.
  // Only edges crossing the certified cut can raise its capacity: the
  // sink edge crosses iff the region sits on the source side; a job
  // arc crosses iff its job does while the region does not.
  if (side[region_node_[i]]) return true;
  for (const auto& [jn, e] : region_arcs_[i]) {
    if (side[jn]) return true;
  }
  return false;
}

}  // namespace nat::at
