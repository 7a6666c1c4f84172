// Flow-based feasibility oracles and schedule extraction.
//
// Two levels, both reductions to max-flow saturation (the classical
// test the paper cites, and the 4-layer network of Lemma 4.1):
//
//  * slot level (general instances): source → job (cap p_j) →
//    open slot within the window (cap 1) → sink (cap g);
//  * region level (laminar instances): source → job (cap p_j) →
//    tree region i ∈ Des(k(j)) (cap open[i]) → sink (cap g·open[i],
//    saturated at the routed volume; region_capacity).
//
// The slot level has one network, SlotOracle: built once over a slot
// set and warm-started across open/close queries. The one-shot
// functions below (feasible_with_slots, schedule_with_slots) build a
// fresh one with every given slot open and solve it once; the general
// backend and greedy deactivation keep one alive across their queries.
//
// The region-level test is exact because every slot in a node's
// exclusive region is usable by exactly the jobs of its ancestors.
// Extraction materializes the leftmost `open[i]` slots of each region
// and distributes each job's per-region volume over concrete slots with
// a least-loaded greedy (always realizable: per-job use ≤ open count
// and total ≤ g·open; validated defensively).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/schedule.hpp"
#include "activetime/tree.hpp"
#include "flow/dinic.hpp"
#include "util/cancel.hpp"

namespace nat::at {

/// Region→sink capacity of the Lemma 4.1 network: g·open, saturated at
/// the volume V the network routes. No region carries more than V, so
/// the cap never binds, and a g·open past int64 saturates too.
inline std::int64_t region_capacity(std::int64_t g, Time open,
                                    std::int64_t volume) {
  std::int64_t capacity = 0;
  return __builtin_mul_overflow(g, open, &capacity) || capacity > volume
             ? volume
             : capacity;
}

/// --- Slot level (works for any instance, laminar or not) -----------------

/// Warm slot-level feasibility oracle: the job→slot network built once
/// over a sorted, distinct slot set, slot→sink capacities retuned in
/// place (g when open, 0 when closed), max-flow warm-started between
/// queries. The slot-level sibling of the region-level
/// FeasibilityOracle (oracle.hpp). Every slot starts closed.
class SlotOracle {
 public:
  SlotOracle(const Instance& instance, std::vector<Time> slots,
             const util::CancelToken* cancel = nullptr);

  int num_slots() const { return static_cast<int>(slots_.size()); }
  bool is_open(int k) const { return open_[k] != 0; }
  std::int64_t open_count() const { return open_count_; }

  void set_open(int k, bool open);
  void apply(const std::vector<char>& open);

  /// Warm max-flow saturation test for the current open set; polls the
  /// cancel token and counts at.oracle.slot_checks.
  bool feasible();

  /// Closes each open slot of `order`, in turn, when the set stays
  /// feasible without it; returns how many it closed. One pass leaves
  /// those slots minimal: feasibility is monotone in the open set, so a
  /// slot that had to stay open never becomes closable later.
  int close_while_feasible(const std::vector<int>& order);

  /// After an infeasible feasible(): true iff opening closed slot `k`
  /// creates an augmenting path — some min-cut-source-side job's window
  /// contains it, so s→…→j (residual) →k (cap 1, unused) →t (cap g)
  /// strictly grows the flow.
  bool open_can_help(int k, const std::vector<bool>& cut) const;
  std::vector<bool> cut_source_side() const;

  std::vector<Time> open_slots() const;

  /// After a feasible() that returned true: the schedule carried by the
  /// retained flow (each job's slots in ascending order).
  Schedule schedule() const;

 private:
  const Instance* instance_;
  std::vector<Time> slots_;
  const util::CancelToken* cancel_;
  flow::MaxFlowGraph graph_;
  int s_ = 0, t_ = 0;
  std::vector<int> sink_edge_;
  // A half-open window covers a contiguous run [first, last) of the
  // sorted slot array; its arcs' edge ids sit in arc_edge_ from `arc`.
  struct JobArcs {
    int first = 0, last = 0;
    std::size_t arc = 0;
  };
  std::vector<JobArcs> job_arcs_;
  std::vector<int> arc_edge_;
  std::vector<char> open_;
  std::int64_t open_count_ = 0;
  std::int64_t total_volume_ = 0;
};

/// True iff all jobs fit using only the given open slot times
/// (duplicates allowed in input; they are deduplicated).
bool feasible_with_slots(const Instance& instance,
                         const std::vector<Time>& open_slots);

/// Schedule using only the given open slots, or nullopt if infeasible.
std::optional<Schedule> schedule_with_slots(
    const Instance& instance, const std::vector<Time>& open_slots);

/// --- Region level (laminar; counts indexed by forest node) ---------------

/// True iff the forest's jobs fit when region i has open[i] open slots.
/// NAT_CHECKs 0 <= open[i] <= L(i).
bool feasible_with_counts(const LaminarForest& forest,
                          const std::vector<Time>& open);

/// Extracts a schedule for the forest's jobs (post-canonicalization
/// windows, which are subsets of the originals) under region counts.
std::optional<Schedule> schedule_with_counts(const LaminarForest& forest,
                                             const std::vector<Time>& open);

/// The concrete slot times materialized for the given counts: the
/// leftmost open[i] slots of each region.
std::vector<Time> materialize_slots(const LaminarForest& forest,
                                    const std::vector<Time>& open);

}  // namespace nat::at
