#include "baselines/exact_unit.hpp"

#include <algorithm>

#include "activetime/feasibility.hpp"
#include "activetime/tree.hpp"
#include "util/check.hpp"

namespace nat::at::baselines {

ExactUnitResult exact_opt_unit_laminar(const Instance& instance) {
  instance.validate();
  if (instance.jobs.empty()) return {};
  for (const Job& job : instance.jobs) {
    NAT_CHECK_MSG(job.processing == 1,
                  "exact_opt_unit_laminar requires unit jobs");
  }
  // Note: no canonicalization — the rigid-leaf transform is unnecessary
  // for the counting argument, and the raw window tree keeps n_i
  // counts aligned with the original windows.
  LaminarForest forest = LaminarForest::build(instance);

  const int m = forest.num_nodes();
  std::vector<Time> open(m, 0);

  // n_i and per-subtree opened totals, maintained bottom-up.
  std::vector<std::int64_t> jobs_below(m, 0);
  std::vector<Time> opened_below(m, 0);
  for (int i : forest.postorder()) {
    jobs_below[i] = static_cast<std::int64_t>(forest.node(i).jobs.size());
    for (int c : forest.node(i).children) jobs_below[i] += jobs_below[c];
    opened_below[i] = open[i];
    for (int c : forest.node(i).children) opened_below[i] += opened_below[c];

    const Time need = ceil_div(jobs_below[i], forest.g());
    NAT_CHECK_MSG(need <= forest.node(i).interval.length(),
                  "infeasible unit instance at node " << i << ": "
                      << jobs_below[i] << " jobs need " << need
                      << " slots in " << forest.node(i).interval);
    Time deficit = need - opened_below[i];
    // Open `deficit` more slots anywhere inside K(i): walk the subtree
    // and take spare region capacity (placement within K(i) is
    // irrelevant to i and to every ancestor). Slots added below an
    // already-processed node keep its subtree total current via the
    // parent-chain walk.
    for (int d : forest.subtree(i)) {
      if (deficit <= 0) break;
      const Time spare = forest.node(d).length() - open[d];
      const Time take = std::min(spare, deficit);
      if (take <= 0) continue;
      open[d] += take;
      for (int v = d;; v = forest.node(v).parent) {
        opened_below[v] += take;
        if (v == i) break;
      }
      deficit -= take;
    }
    NAT_CHECK_MSG(deficit <= 0, "could not place forced slots");
  }

  ExactUnitResult result;
  auto schedule = schedule_with_counts(forest, open);
  NAT_CHECK_MSG(schedule.has_value(),
                "unit greedy produced an infeasible count vector");
  result.schedule = std::move(*schedule);
  validate_schedule(instance, result.schedule);
  for (int i = 0; i < m; ++i) result.optimum += open[i];
  NAT_CHECK_MSG(result.schedule.active_slots() == result.optimum,
                "extraction dropped a forced slot");
  return result;
}

}  // namespace nat::at::baselines
