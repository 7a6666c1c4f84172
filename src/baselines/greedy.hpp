// Greedy deactivation baselines (the "problem history" algorithms).
//
// Start with every slot of the job-window union open and repeatedly
// close a slot whose removal keeps the instance feasible (flow test).
// Any such *minimal feasible* solution is a 3-approximation
// [Chang–Khuller–Mukherjee]; Kumar–Khuller showed a careful slot order
// achieves 2. Their brief announcement does not fully specify the
// rule, so this module exposes pluggable deactivation orders
// (DESIGN.md §5 documents the substitution): the right-to-left scan is
// benchmarked as the careful variant.
#pragma once

#include <cstdint>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/schedule.hpp"
#include "util/cancel.hpp"

namespace nat::at::baselines {

enum class DeactivationOrder {
  kLeftToRight,
  kRightToLeft,
  kRandom,
  // Density-aware heuristics: try to close slots reachable by few job
  // windows first (they are cheap to give up early) or by many first.
  kSparsestFirst,
  kDensestFirst,
};

const char* to_string(DeactivationOrder order);

struct GreedyResult {
  std::vector<Time> open_slots;  // the minimal feasible slot set
  Schedule schedule;
  std::int64_t active_slots = 0;
};

/// Runs greedy deactivation. NAT_CHECKs that the instance is feasible.
/// `seed` is used only by kRandom. The deactivation scan runs one flow
/// test per candidate slot on one warm SlotOracle (feasibility.hpp),
/// and polls `cancel` (util/cancel.hpp) before every test.
GreedyResult greedy_minimal_feasible(
    const Instance& instance,
    DeactivationOrder order = DeactivationOrder::kRightToLeft,
    std::uint64_t seed = 0, const util::CancelToken* cancel = nullptr);

/// True iff `open_slots` is minimal feasible: feasible, and closing any
/// single slot breaks feasibility. (Test helper for the 3-approx
/// precondition.)
bool is_minimal_feasible(const Instance& instance,
                         const std::vector<Time>& open_slots);

}  // namespace nat::at::baselines
