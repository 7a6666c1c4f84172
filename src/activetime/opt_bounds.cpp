#include "activetime/opt_bounds.hpp"

#include <algorithm>

#include "activetime/oracle.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nat::at {

bool opt_le_1(const LaminarForest& forest, int node) {
  std::vector<int> bearing;  // job-bearing nodes under `node`
  std::int64_t count = 0;
  for (int v : forest.subtree(node)) {
    if (forest.node(v).jobs.empty()) continue;
    bearing.push_back(v);
    for (int j : forest.node(v).jobs) {
      if (forest.jobs()[j].processing != 1) return false;
      ++count;
    }
  }
  if (count == 0) return true;
  if (count > forest.g()) return false;
  // Chain test: every job-bearing node must be an ancestor of the
  // (then unique) deepest one.
  int deepest = bearing.front();
  for (int v : bearing) {
    if (forest.depth(v) > forest.depth(deepest)) deepest = v;
  }
  for (int v : bearing) {
    if (!forest.is_ancestor(v, deepest)) return false;
  }
  return true;
}

bool opt_le_2(const LaminarForest& forest, int node) {
  if (opt_le_1(forest, node)) return true;
  // Quick necessary conditions.
  std::int64_t volume = 0;
  for (int v : forest.subtree(node)) {
    for (int j : forest.node(v).jobs) {
      const std::int64_t p = forest.jobs()[j].processing;
      if (p > 2) return false;
      volume += p;
    }
  }
  if (volume - forest.g() > forest.g()) return false;  // 2g may overflow

  const std::vector<int> des = forest.subtree(node);
  // One subtree-scoped oracle serves every candidate pair: consecutive
  // queries differ in at most four entries, so each probe is a tiny
  // capacity diff plus a warm-started augmentation instead of a fresh
  // graph build (this sweep is the strong LP's ceiling-constraint
  // bottleneck).
  FeasibilityOracle oracle(forest, node);
  std::vector<Time> open(forest.num_nodes(), 0);
  auto pair_feasible = [&](int a, Time ca, int b, Time cb) {
    open[a] += ca;
    open[b] += cb;
    const bool ok = oracle.feasible(open);
    open[a] -= ca;
    open[b] -= cb;
    return ok;
  };
  // Two slots in one region, or one in each of two regions.
  for (std::size_t ia = 0; ia < des.size(); ++ia) {
    const int a = des[ia];
    const Time la = forest.node(a).length();
    if (la >= 2 && pair_feasible(a, 2, a, 0)) return true;
    if (la < 1) continue;
    for (std::size_t ib = ia + 1; ib < des.size(); ++ib) {
      const int b = des[ib];
      if (forest.node(b).length() < 1) continue;
      if (pair_feasible(a, 1, b, 1)) return true;
    }
  }
  return false;
}

int opt_lower_bound(const LaminarForest& forest, int node) {
  if (opt_le_1(forest, node)) return 1;
  if (opt_le_2(forest, node)) return 2;
  return 3;
}

std::vector<int> ceiling_lower_bounds(const LaminarForest& forest) {
  return ceiling_lower_bounds(forest, util::global_pool());
}

std::vector<int> ceiling_lower_bounds(const LaminarForest& forest,
                                      util::ThreadPool& pool) {
  static obs::Counter& c_serial = obs::counter("at.ceiling_sweep.serial");
  static obs::Counter& c_pooled = obs::counter("at.ceiling_sweep.pooled");
  static obs::Counter& c_nodes = obs::counter("at.ceiling_sweep.nodes");

  const int m = forest.num_nodes();
  std::vector<int> lower(static_cast<std::size_t>(m), 1);
  c_nodes.add(m);

  const std::size_t workers = pool.thread_count();
  const bool serial = m < kCeilingSweepSerialCutoff || workers <= 1 ||
                      util::ThreadPool::in_worker();
  if (serial) {
    for (int i = 0; i < m; ++i) lower[i] = opt_lower_bound(forest, i);
    c_serial.add(1);
    return lower;
  }

  // About four chunks per worker balances load (subtree sizes are very
  // uneven: the root's sweep dwarfs the leaves') against dispatch cost.
  const std::size_t n = static_cast<std::size_t>(m);
  const std::size_t grain = std::max(
      kCeilingSweepMinGrain, (n + 4 * workers - 1) / (4 * workers));
  const std::size_t chunks = (n + grain - 1) / grain;
  util::parallel_for(
      pool, 0, chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(n, begin + grain);
        std::vector<int> arena(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          arena[i - begin] = opt_lower_bound(forest, static_cast<int>(i));
        }
        std::copy(arena.begin(), arena.end(),
                  lower.begin() + static_cast<std::ptrdiff_t>(begin));
      },
      /*grain=*/1);
  c_pooled.add(1);
  return lower;
}

}  // namespace nat::at
