// Heavy randomized end-to-end fuzzing across families, plus structural
// idempotence properties that only show up under volume.
#include <gtest/gtest.h>

#include "activetime/certificates.hpp"
#include "activetime/feasibility.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "helpers.hpp"
#include "lp/dense_simplex.hpp"
#include "util/thread_pool.hpp"

namespace nat::at {
namespace {

TEST(Stress, CanonicalizeIsIdempotent) {
  for (int id = 0; id < 30; ++id) {
    const Instance inst = testing::mixed(id);
    LaminarForest once = LaminarForest::build(inst);
    once.canonicalize();
    const int nodes_once = once.num_nodes();
    once.canonicalize();
    once.check_invariants();
    EXPECT_EQ(once.num_nodes(), nodes_once)
        << "second canonicalize changed the tree";
    EXPECT_TRUE(once.is_canonical());
  }
}

TEST(Stress, SolverWithAndWithoutAggregationAgree) {
  // End-to-end: the class-aggregated LP and the per-job LP must lead
  // to equally priced solutions (same LP value; active counts may
  // differ by rounding tie-breaks but both stay certified).
  for (int id = 0; id < 25; ++id) {
    const Instance inst = testing::mixed(id);
    NestedSolverOptions agg, flat;
    flat.lp.aggregate_classes = false;
    NestedSolveResult a = solve_nested(inst, agg);
    NestedSolveResult b = solve_nested(inst, flat);
    validate_schedule(inst, a.schedule);
    validate_schedule(inst, b.schedule);
    EXPECT_NEAR(a.lp_value, b.lp_value, 1e-5) << "instance " << id;
    EXPECT_LE(static_cast<double>(b.active_slots), 1.8 * b.lp_value + 1e-5);
  }
}

TEST(Stress, LargeMixedFuzz) {
  // 200 instances end-to-end in parallel; every pipeline guarantee
  // checked, exact OPT where affordable.
  std::atomic<int> failures{0};
  util::parallel_for(0, 200, [&](std::size_t id) {
    const Instance inst = testing::mixed(static_cast<int>(id));
    NestedSolveResult r = solve_nested(inst);
    std::string why;
    if (!is_valid_schedule(inst, r.schedule, &why)) {
      ++failures;
      ADD_FAILURE() << "instance " << id << ": " << why;
      return;
    }
    if (r.repairs != 0 ||
        static_cast<double>(r.active_slots) > 1.8 * r.lp_value + 1e-4) {
      ++failures;
      ADD_FAILURE() << "instance " << id << ": certificate broken";
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Stress, GreedyAllOrdersLargeFuzz) {
  util::parallel_for(0, 60, [&](std::size_t id) {
    const Instance inst = testing::mixed(static_cast<int>(id));
    for (auto order : {baselines::DeactivationOrder::kSparsestFirst,
                       baselines::DeactivationOrder::kDensestFirst}) {
      auto r = baselines::greedy_minimal_feasible(inst, order, id);
      if (!baselines::is_minimal_feasible(inst, r.open_slots)) {
        ADD_FAILURE() << "order " << baselines::to_string(order)
                      << " not minimal on instance " << id;
      }
    }
  });
}

TEST(Stress, SolverLpValueMatchesDenseOracleOnRealLps) {
  // The strengthened LPs of real instances, solved by the pipeline's
  // backend, must agree with the dense tableau oracle on the optimum,
  // and the end-to-end result must keep every guarantee.
  for (int id = 0; id < 30; ++id) {
    const Instance inst = testing::mixed(id);
    LaminarForest forest = LaminarForest::build(inst);
    forest.canonicalize();
    const lp::Solution dense = lp::solve(build_strong_lp(forest).model);
    ASSERT_EQ(dense.status, lp::Status::kOptimal) << "instance " << id;
    NestedSolveResult result = solve_nested(inst);
    validate_schedule(inst, result.schedule);
    EXPECT_NEAR(result.lp_value, dense.objective, 1e-5) << "instance " << id;
    EXPECT_EQ(result.repairs, 0);
    EXPECT_LE(static_cast<double>(result.active_slots),
              1.8 * result.lp_value + 1e-5);
  }
}

TEST(Stress, CertificateAgreesWithFlowOnDenseSweeps) {
  util::Rng rng(31);
  int checked = 0;
  for (int id = 0; id < 80 && checked < 30; ++id) {
    const Instance inst = testing::mixed(id);
    if (inst.num_jobs() > 12) continue;
    ++checked;
    LaminarForest f = LaminarForest::build(inst);
    f.canonicalize();
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<Time> counts(f.num_nodes());
      for (int i = 0; i < f.num_nodes(); ++i) {
        counts[i] = rng.uniform_int(0, f.node(i).length());
      }
      EXPECT_EQ(feasible_with_counts(f, counts),
                !find_violating_subset(f, counts).has_value());
    }
  }
  EXPECT_GE(checked, 20);
}

}  // namespace
}  // namespace nat::at
