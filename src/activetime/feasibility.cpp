#include "activetime/feasibility.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "flow/dinic.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"

namespace nat::at {

namespace {

std::vector<Time> dedup_sorted(std::vector<Time> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// A fresh oracle over the deduplicated `open_slots`, every slot open.
SlotOracle all_open(const Instance& instance,
                    const std::vector<Time>& open_slots) {
  SlotOracle oracle(instance, dedup_sorted(open_slots));
  for (int k = 0; k < oracle.num_slots(); ++k) oracle.set_open(k, true);
  return oracle;
}

}  // namespace

SlotOracle::SlotOracle(const Instance& instance, std::vector<Time> slots,
                       const util::CancelToken* cancel)
    : instance_(&instance),
      slots_(std::move(slots)),
      cancel_(cancel),
      graph_(instance.num_jobs() + static_cast<int>(slots_.size()) + 2) {
  const int n = instance.num_jobs();
  const int S = num_slots();
  s_ = n + S;
  t_ = n + S + 1;
  for (int j = 0; j < n; ++j) {
    graph_.add_edge(s_, j, instance.jobs[j].processing);
  }
  sink_edge_.resize(static_cast<std::size_t>(S));
  for (int k = 0; k < S; ++k) {
    sink_edge_[k] = graph_.add_edge(n + k, t_, 0);  // every slot closed
  }
  // Sparse job→slot arcs: O(total covered slots) memory and no n·S
  // index products, which overflow 32 bits near the job-count cap on
  // wide horizons.
  job_arcs_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Interval w = instance.jobs[j].window();
    const auto first = std::lower_bound(slots_.begin(), slots_.end(), w.lo);
    const auto last = std::lower_bound(first, slots_.end(), w.hi);
    job_arcs_[j] = {static_cast<int>(first - slots_.begin()),
                    static_cast<int>(last - slots_.begin()),
                    arc_edge_.size()};
    for (auto it = first; it != last; ++it) {
      arc_edge_.push_back(
          graph_.add_edge(j, n + static_cast<int>(it - slots_.begin()), 1));
    }
  }
  open_.assign(static_cast<std::size_t>(S), 0);
  total_volume_ = instance.total_volume();
}

void SlotOracle::set_open(int k, bool open) {
  if (is_open(k) == open) return;
  open_[k] = open ? 1 : 0;
  open_count_ += open ? 1 : -1;
  graph_.set_capacity(sink_edge_[k], open ? instance_->g : 0);
}

void SlotOracle::apply(const std::vector<char>& open) {
  NAT_CHECK(static_cast<int>(open.size()) == num_slots());
  for (int k = 0; k < num_slots(); ++k) set_open(k, open[k] != 0);
}

bool SlotOracle::feasible() {
  util::poll_cancel(cancel_);
  static obs::Counter& c = obs::counter("at.oracle.slot_checks");
  c.add(1);
  graph_.max_flow(s_, t_);
  return graph_.flow_value() == total_volume_;
}

int SlotOracle::close_while_feasible(const std::vector<int>& order) {
  int closed = 0;
  for (int k : order) {
    if (!is_open(k)) continue;
    set_open(k, false);
    if (feasible()) {
      ++closed;
    } else {
      set_open(k, true);
    }
  }
  return closed;
}

bool SlotOracle::open_can_help(int k, const std::vector<bool>& cut) const {
  const int n = instance_->num_jobs();
  for (int j = 0; j < n; ++j) {
    if (cut[j] && job_arcs_[j].first <= k && k < job_arcs_[j].last) {
      return true;
    }
  }
  return false;
}

std::vector<bool> SlotOracle::cut_source_side() const {
  return graph_.min_cut_source_side(s_);
}

std::vector<Time> SlotOracle::open_slots() const {
  std::vector<Time> out;
  for (int k = 0; k < num_slots(); ++k) {
    if (open_[k]) out.push_back(slots_[k]);
  }
  return out;
}

Schedule SlotOracle::schedule() const {
  const int n = instance_->num_jobs();
  Schedule sched;
  sched.assignment.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const JobArcs& arcs = job_arcs_[j];
    std::size_t arc = arcs.arc;
    for (int k = arcs.first; k < arcs.last; ++k, ++arc) {
      if (graph_.flow_on(arc_edge_[arc]) > 0) {
        sched.assignment[j].push_back(slots_[k]);
      }
    }
  }
  return sched;
}

bool feasible_with_slots(const Instance& instance,
                         const std::vector<Time>& open_slots) {
  return all_open(instance, open_slots).feasible();
}

std::optional<Schedule> schedule_with_slots(
    const Instance& instance, const std::vector<Time>& open_slots) {
  SlotOracle oracle = all_open(instance, open_slots);
  if (!oracle.feasible()) return std::nullopt;
  return oracle.schedule();
}

std::vector<Time> materialize_slots(const LaminarForest& forest,
                                    const std::vector<Time>& open) {
  NAT_CHECK(static_cast<int>(open.size()) == forest.num_nodes());
  std::vector<Time> slots;
  for (int i = 0; i < forest.num_nodes(); ++i) {
    NAT_CHECK_MSG(open[i] >= 0 && open[i] <= forest.node(i).length(),
                  "region " << i << ": open count " << open[i]
                            << " out of [0, " << forest.node(i).length()
                            << "]");
    Time remaining = open[i];
    for (const Interval& iv : forest.node(i).owned) {
      for (Time t = iv.lo; t < iv.hi && remaining > 0; ++t, --remaining) {
        slots.push_back(t);
      }
      if (remaining == 0) break;
    }
  }
  return dedup_sorted(slots);
}

namespace {

struct RegionNetwork {
  flow::MaxFlowGraph graph;
  int s = 0, t = 0;
  // Sparse job→region arcs: (job, region, edge id).
  struct Arc {
    int job, region, edge;
  };
  std::vector<Arc> arcs;
};

RegionNetwork build_region_network(const LaminarForest& forest,
                                   const std::vector<Time>& open) {
  NAT_CHECK(static_cast<int>(open.size()) == forest.num_nodes());
  const int n = static_cast<int>(forest.jobs().size());
  const int m = forest.num_nodes();
  RegionNetwork net;
  net.graph = flow::MaxFlowGraph(n + m + 2);
  net.s = n + m;
  net.t = n + m + 1;
  std::int64_t volume = 0;
  for (int j = 0; j < n; ++j) {
    net.graph.add_edge(net.s, j, forest.jobs()[j].processing);
    volume += forest.jobs()[j].processing;
  }
  for (int i = 0; i < m; ++i) {
    NAT_CHECK(open[i] >= 0 && open[i] <= forest.node(i).length());
    if (open[i] > 0) {
      net.graph.add_edge(n + i, net.t,
                         region_capacity(forest.g(), open[i], volume));
    }
  }
  for (int j = 0; j < n; ++j) {
    const int kj = forest.node_of_job(j);
    for (int i : forest.subtree(kj)) {
      if (open[i] > 0) {
        int e = net.graph.add_edge(j, n + i, open[i]);
        net.arcs.push_back({j, i, e});
      }
    }
  }
  return net;
}

std::int64_t total_volume(const LaminarForest& forest) {
  std::int64_t v = 0;
  for (const Job& job : forest.jobs()) v += job.processing;
  return v;
}

}  // namespace

bool feasible_with_counts(const LaminarForest& forest,
                          const std::vector<Time>& open) {
  static obs::Counter& c = obs::counter("at.oracle.count_checks");
  c.add(1);
  RegionNetwork net = build_region_network(forest, open);
  return net.graph.max_flow(net.s, net.t) == total_volume(forest);
}

std::optional<Schedule> schedule_with_counts(const LaminarForest& forest,
                                             const std::vector<Time>& open) {
  RegionNetwork net = build_region_network(forest, open);
  if (net.graph.max_flow(net.s, net.t) != total_volume(forest)) {
    return std::nullopt;
  }
  const int n = static_cast<int>(forest.jobs().size());
  const int m = forest.num_nodes();

  // Per-region job volumes from the flow.
  std::vector<std::vector<std::pair<std::int64_t, int>>> region_jobs(m);
  for (const auto& arc : net.arcs) {
    std::int64_t f = net.graph.flow_on(arc.edge);
    if (f > 0) region_jobs[arc.region].push_back({f, arc.job});
  }

  Schedule sched;
  sched.assignment.resize(n);
  for (int i = 0; i < m; ++i) {
    if (region_jobs[i].empty()) continue;
    // Concrete slots for this region: leftmost open[i] of owned ranges.
    std::vector<Time> slots;
    Time remaining = open[i];
    for (const Interval& iv : forest.node(i).owned) {
      for (Time t = iv.lo; t < iv.hi && remaining > 0; ++t, --remaining) {
        slots.push_back(t);
      }
    }
    // Least-loaded greedy on descending volume. Always realizable since
    // each volume <= |slots| (arc capacity) and total <= g * |slots|.
    // A (load, slot) min-heap replaces the former full re-sort per job:
    // each slot sits in the heap exactly once, so picking a job's `vol`
    // least-loaded slots is vol pops + vol pushes, with the same
    // load-then-index order a stable sort by load produced.
    std::sort(region_jobs[i].rbegin(), region_jobs[i].rend());
    std::priority_queue<std::pair<std::int64_t, int>,
                        std::vector<std::pair<std::int64_t, int>>,
                        std::greater<>>
        least_loaded;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      least_loaded.push({0, static_cast<int>(k)});
    }
    std::vector<std::pair<std::int64_t, int>> taken;
    for (const auto& [vol, job] : region_jobs[i]) {
      NAT_CHECK_MSG(vol <= static_cast<std::int64_t>(slots.size()),
                    "region volume exceeds slot count");
      taken.clear();
      for (std::int64_t k = 0; k < vol; ++k) {
        taken.push_back(least_loaded.top());
        least_loaded.pop();
      }
      for (const auto& [load, slot] : taken) {
        NAT_CHECK_MSG(load < forest.g(),
                      "greedy slot fill exceeded capacity");
        sched.assignment[job].push_back(slots[slot]);
        least_loaded.push({load + 1, slot});
      }
    }
  }
  for (auto& slots : sched.assignment) std::sort(slots.begin(), slots.end());
  return sched;
}

}  // namespace nat::at
