// Exact optimum via LP-based branch and bound.
//
// A second exact solver, complementary to the count-DFS in exact.*:
// the search relaxes integrality of the region counts x(i) and uses
// the *strengthened LP (1)* as the bound — far tighter than the
// volume/longest-job bounds of the DFS — branching on a fractional
// x(i) into x(i) <= ⌊v⌋ and x(i) >= ⌈v⌉ (pure bound changes, handled
// natively by the sparse backend's bounded variables).
//
// Correctness of the leaves: if the LP is feasible with every x(i)
// integral, the fractional y can be rerouted integrally (the y-part of
// LP (1) with x fixed is a transportation LP with integral capacities,
// whose extreme points are integral — equivalently, our max-flow
// oracle accepts the counts), so every integral LP point is a genuine
// schedule. The oracle double-checks each incumbent anyway.
#pragma once

#include <cstdint>
#include <optional>

#include "activetime/instance.hpp"
#include "activetime/schedule.hpp"

namespace nat::at::baselines {

struct LpBnbOptions {
  std::int64_t node_budget = 200'000;  // LP solves allowed
};

struct LpBnbResult {
  std::int64_t optimum = 0;
  Schedule schedule;
  std::int64_t lp_solves = 0;
};

/// Exact OPT for a laminar instance; nullopt when the budget ran out.
std::optional<LpBnbResult> exact_opt_lp_bnb(const Instance& instance,
                                            const LpBnbOptions& options = {});

}  // namespace nat::at::baselines
