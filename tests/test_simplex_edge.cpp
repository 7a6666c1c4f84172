// Simplex edge cases beyond the basics in test_simplex.cpp:
// degenerate/cycling-prone LPs, fixed variables, empty models,
// duplicate coefficients, and scaling extremes.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/dense_simplex.hpp"
#include "lp/exact_simplex.hpp"
#include "util/rng.hpp"

namespace nat::lp {
namespace {

TEST(SimplexEdge, EmptyModelIsTriviallyOptimal) {
  Model m;
  Solution s = solve(m);
  EXPECT_EQ(s.status, Status::kOptimal);
  EXPECT_EQ(s.objective, 0.0);
}

TEST(SimplexEdge, VariablesOnlyNoRows) {
  Model m;
  int x = m.add_variable(2.0, 5.0, 1.0);
  int y = m.add_variable(0.0, kInf, -1.0);
  m.add_row(Sense::kLe, 7.0, {{y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);  // pushed to its lower bound
  EXPECT_NEAR(s.x[y], 7.0, 1e-8);
}

TEST(SimplexEdge, FixedVariable) {
  Model m;
  int x = m.add_variable(3.0, 3.0, 1.0);
  int y = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kGe, 5.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
}

TEST(SimplexEdge, DuplicateCoefficientsAreSummed) {
  // x appears twice in the row: effectively 2x >= 4.
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kGe, 4.0, {{x, 1.0}, {x, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
}

TEST(SimplexEdge, BealeCyclingExample) {
  // Beale's classic cycling LP (degenerate); Dantzig pricing can cycle
  // without safeguards — the Bland fallback must terminate at -1/20.
  // min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
  // s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
  //      1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
  //      x6 <= 1
  // Scaled by 100 so every coefficient is integral (hence exactly
  // representable as a double and convertible to the rational backend
  // losslessly): objective and constraints x100, optimum -5.
  Model m;
  int x4 = m.add_variable(0.0, kInf, -75.0);
  int x5 = m.add_variable(0.0, kInf, 15000.0);
  int x6 = m.add_variable(0.0, kInf, -2.0);
  int x7 = m.add_variable(0.0, kInf, 600.0);
  m.add_row(Sense::kLe, 0.0,
            {{x4, 25.0}, {x5, -6000.0}, {x6, -4.0}, {x7, 900.0}});
  m.add_row(Sense::kLe, 0.0,
            {{x4, 50.0}, {x5, -9000.0}, {x6, -2.0}, {x7, 300.0}});
  m.add_row(Sense::kLe, 100.0, {{x6, 100.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-8);
  // And exactly, via the rational backend.
  ExactSolution e = solve_exact(m);
  ASSERT_EQ(e.status, Status::kOptimal);
  EXPECT_EQ(e.objective, num::Rational(-5));
}

TEST(SimplexEdge, WideRangeOfMagnitudes) {
  // min x + y with 1e6 x + y >= 1e6, x + 1e-3 y >= 1.
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  int y = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kGe, 1e6, {{x, 1e6}, {y, 1.0}});
  m.add_row(Sense::kGe, 1.0, {{x, 1.0}, {y, 1e-3}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-5);
}

TEST(SimplexEdge, EqualityOnlySystemWithUniquePoint) {
  // Feasible region is the single point (1, 2); any objective.
  Model m;
  int x = m.add_variable(0.0, kInf, -5.0);
  int y = m.add_variable(0.0, kInf, 3.0);
  m.add_row(Sense::kEq, 3.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 1.0, {{y, 1.0}, {x, -1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 1.0, 1e-8);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
}

TEST(SimplexEdge, InfeasibleByBoundsAlone) {
  Model m;
  int x = m.add_variable(4.0, 10.0, 1.0);
  m.add_row(Sense::kLe, 3.0, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, Status::kInfeasible);
  EXPECT_EQ(solve_exact(m).status, Status::kInfeasible);
}

TEST(SimplexEdge, ZeroRhsDegenerateStart) {
  // Many constraints tight at the origin; optimum away from it.
  Model m;
  int x = m.add_variable(0.0, kInf, -1.0);
  int y = m.add_variable(0.0, kInf, -1.0);
  m.add_row(Sense::kGe, 0.0, {{x, 1.0}, {y, -1.0}});
  m.add_row(Sense::kGe, 0.0, {{x, -1.0}, {y, 1.0}});
  m.add_row(Sense::kLe, 10.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -10.0, 1e-8);
}

// Larger randomized agreement sweep than the basic suite, including
// equality-heavy and degenerate systems.
class BigRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(BigRandomLp, DoubleBackendIsFeasibleAndMatchesExact) {
  util::Rng rng(42000 + GetParam());
  const int nvars = static_cast<int>(rng.uniform_int(3, 8));
  const int nrows = static_cast<int>(rng.uniform_int(3, 10));
  Model m;
  for (int i = 0; i < nvars; ++i) {
    m.add_variable(0.0,
                   rng.chance(0.4)
                       ? static_cast<double>(rng.uniform_int(0, 6))
                       : kInf,
                   static_cast<double>(rng.uniform_int(-3, 3)));
  }
  for (int r = 0; r < nrows; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < nvars; ++i) {
      if (rng.chance(0.6)) {
        row.push_back({i, static_cast<double>(rng.uniform_int(-2, 3))});
      }
    }
    if (row.empty()) row.push_back({0, 1.0});
    const Sense sense = rng.chance(0.3)   ? Sense::kEq
                        : rng.chance(0.5) ? Sense::kGe
                                          : Sense::kLe;
    // Zero rhs with positive probability: degenerate vertices.
    const double rhs = rng.chance(0.3)
                           ? 0.0
                           : static_cast<double>(rng.uniform_int(-5, 8));
    m.add_row(sense, rhs, row);
  }
  Solution d = solve(m);
  ExactSolution e = solve_exact(m);
  ASSERT_NE(d.status, Status::kIterLimit);
  EXPECT_EQ(d.status, e.status);
  if (d.status == Status::kOptimal) {
    EXPECT_NEAR(d.objective, e.objective.to_double(),
                1e-6 * (1.0 + std::abs(d.objective)));
    EXPECT_LE(m.max_violation(d.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BigRandomLp, ::testing::Range(0, 150));

}  // namespace
}  // namespace nat::lp
