#include "activetime/feasibility.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "instances/generators.hpp"
#include "util/rng.hpp"

namespace nat::at {
namespace {

using util::Rng;

TEST(SlotFeasibility, AllSlotsOpenIsFeasibleForGenerated) {
  for (int id = 0; id < 10; ++id) {
    const Instance inst = testing::random_small(id);
    std::vector<Time> all;
    for (const Job& job : inst.jobs) {
      for (Time t = job.release; t < job.deadline; ++t) all.push_back(t);
    }
    EXPECT_TRUE(feasible_with_slots(inst, all));
  }
}

TEST(SlotFeasibility, TooFewSlotsInfeasible) {
  Instance inst;
  inst.g = 1;
  inst.jobs = {Job{0, 4, 3}};
  EXPECT_TRUE(feasible_with_slots(inst, {0, 1, 2}));
  EXPECT_FALSE(feasible_with_slots(inst, {0, 1}));
  EXPECT_FALSE(feasible_with_slots(inst, {}));
}

TEST(SlotFeasibility, CapacityBinds) {
  Instance inst;
  inst.g = 2;
  inst.jobs = {Job{0, 2, 1}, Job{0, 2, 1}, Job{0, 2, 1}};
  EXPECT_FALSE(feasible_with_slots(inst, {0}));   // 3 units > g=2
  EXPECT_TRUE(feasible_with_slots(inst, {0, 1}));
}

TEST(SlotFeasibility, ExtractedScheduleIsValid) {
  const Instance inst = testing::small_nested();
  std::vector<Time> all;
  for (Time t = 0; t < 10; ++t) all.push_back(t);
  auto sched = schedule_with_slots(inst, all);
  ASSERT_TRUE(sched.has_value());
  validate_schedule(inst, *sched);
}

TEST(SlotFeasibility, DuplicateSlotsAreDeduplicated) {
  Instance inst;
  inst.g = 1;
  inst.jobs = {Job{0, 3, 2}};
  EXPECT_FALSE(feasible_with_slots(inst, {1, 1, 1}));  // really one slot
  EXPECT_TRUE(feasible_with_slots(inst, {1, 2, 2}));
}

// Satellite regression: the former dense job x slot matrix indexed
// with `int` products — 5000 jobs over a 500k-slot array puts
// n*S = 2.5e9 past INT_MAX (and the matrix itself past any sane
// allocation). The sparse builder stores one edge per *covered* slot,
// so this instance costs ~510k edges and must answer correctly.
TEST(SlotFeasibility, WideHorizonManyJobsDoesNotOverflowIndexing) {
  constexpr Time kHorizon = 500'000;
  constexpr int kNarrowJobs = 5'000;
  Instance inst;
  inst.g = 2;
  // One spanning job pins the slot array to the full horizon...
  inst.jobs.push_back(Job{0, kHorizon, 4});
  // ...and thousands of narrow jobs push n*S far past 32 bits while
  // total covered slots stays small.
  for (int j = 0; j < kNarrowJobs; ++j) {
    const Time lo = (static_cast<Time>(j) * 97) % (kHorizon - 4);
    inst.jobs.push_back(Job{lo, lo + 4, 1});
  }
  inst.validate();
  std::vector<Time> all;
  all.reserve(static_cast<std::size_t>(kHorizon));
  for (Time t = 0; t < kHorizon; ++t) all.push_back(t);
  EXPECT_TRUE(feasible_with_slots(inst, all));

  // The same network must still see capacity: squeeze every narrow job
  // into one 4-slot window with g=2 (capacity 8 < 5000 units).
  Instance tight = inst;
  for (int j = 1; j <= kNarrowJobs; ++j) {
    tight.jobs[static_cast<std::size_t>(j)].release = 0;
    tight.jobs[static_cast<std::size_t>(j)].deadline = 4;
  }
  EXPECT_FALSE(feasible_with_slots(tight, all));
}

// The warm SlotOracle against fresh one-shot networks: random open /
// close toggles on crossing-window instances. Closing an open slot
// cancels its flow through set_capacity, which the greedy deactivation
// scan depends on; after every query the warm answer must equal a fresh
// solve over the same open set, and a feasible answer's retained flow
// must still be a valid schedule.
TEST(SlotOracle, WarmTogglesMatchFreshNetworks) {
  int feasible_queries = 0, infeasible_queries = 0;
  for (int seed = 0; seed < 30; ++seed) {
    gen::RandomGeneralParams params;
    params.g = 1 + seed % 3;
    params.jobs = 6 + seed % 7;
    Rng rng(9100 + seed);
    const Instance inst = gen::random_general(params, rng);
    const Interval h = inst.horizon();
    std::vector<Time> slots;
    for (Time t = h.lo; t < h.hi; ++t) slots.push_back(t);
    SlotOracle oracle(inst, slots);
    for (int k = 0; k < oracle.num_slots(); ++k) oracle.set_open(k, true);
    for (int step = 0; step < 60; ++step) {
      const int k =
          static_cast<int>(rng.uniform_int(0, oracle.num_slots() - 1));
      oracle.set_open(k, !oracle.is_open(k));
      const bool warm = oracle.feasible();
      ASSERT_EQ(warm, feasible_with_slots(inst, oracle.open_slots()))
          << "seed " << seed << " step " << step;
      if (!warm) {
        ++infeasible_queries;
        continue;
      }
      ++feasible_queries;
      const Schedule sched = oracle.schedule();
      validate_schedule(inst, sched);
      const std::vector<Time> open = oracle.open_slots();
      for (const auto& job_slots : sched.assignment) {
        for (Time t : job_slots) {
          EXPECT_TRUE(std::binary_search(open.begin(), open.end(), t));
        }
      }
    }
  }
  // The walk must visit both answers many times.
  EXPECT_GT(feasible_queries, 100);
  EXPECT_GT(infeasible_queries, 100);
}

TEST(RegionFeasibility, MatchesSlotLevelOnMaterializedSlots) {
  Rng rng(42);
  for (int id = 0; id < 40; ++id) {
    const Instance inst = testing::random_small(id);
    LaminarForest f = LaminarForest::build(inst);
    f.canonicalize();
    // Random per-region counts.
    std::vector<Time> open(f.num_nodes());
    for (int i = 0; i < f.num_nodes(); ++i) {
      open[i] = rng.uniform_int(0, f.node(i).length());
    }
    const bool region = feasible_with_counts(f, open);
    // Slot-level test on the materialized slots, with the forest's
    // (canonical) jobs.
    Instance canon;
    canon.g = f.g();
    canon.jobs = f.jobs();
    const bool slot =
        feasible_with_slots(canon, materialize_slots(f, open));
    EXPECT_EQ(region, slot) << "instance " << id;
  }
}

TEST(RegionFeasibility, ExtractionValidAndUsesOnlyOpenSlots) {
  Rng rng(17);
  int feasible_cases = 0;
  for (int id = 0; id < 60 && feasible_cases < 25; ++id) {
    const Instance inst = testing::random_small(id);
    LaminarForest f = LaminarForest::build(inst);
    f.canonicalize();
    std::vector<Time> open(f.num_nodes());
    for (int i = 0; i < f.num_nodes(); ++i) {
      // Bias toward open so a good share of cases are feasible.
      open[i] = rng.chance(0.8) ? f.node(i).length()
                                : rng.uniform_int(0, f.node(i).length());
    }
    auto sched = schedule_with_counts(f, open);
    if (!sched.has_value()) continue;
    ++feasible_cases;
    Instance canon;
    canon.g = f.g();
    canon.jobs = f.jobs();
    validate_schedule(canon, *sched);
    validate_schedule(inst, *sched);  // canonical windows only shrink
    // Every used slot must be one of the materialized open slots.
    const std::vector<Time> slots = materialize_slots(f, open);
    for (const auto& js : sched->assignment) {
      for (Time t : js) {
        EXPECT_TRUE(std::binary_search(slots.begin(), slots.end(), t));
      }
    }
  }
  EXPECT_GE(feasible_cases, 10);
}

TEST(RegionFeasibility, CountBoundsChecked) {
  LaminarForest f = LaminarForest::build(testing::small_nested());
  std::vector<Time> open(f.num_nodes(), 0);
  open[0] = f.node(0).length() + 1;
  EXPECT_THROW(feasible_with_counts(f, open), util::CheckError);
}

}  // namespace
}  // namespace nat::at
