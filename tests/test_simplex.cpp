#include <gtest/gtest.h>

#include <cmath>

#include "lp/dense_simplex.hpp"
#include "lp/exact_simplex.hpp"
#include "lp/model.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::lp {
namespace {

using util::Rng;

TEST(Model, RejectsBadInput) {
  Model m;
  EXPECT_THROW(m.add_variable(2.0, 1.0), util::CheckError);  // lo > hi
  int x = m.add_variable();
  EXPECT_THROW(m.add_row(Sense::kLe, 1.0, {{5, 1.0}}), util::CheckError);
  EXPECT_THROW(m.set_objective(3, 1.0), util::CheckError);
  (void)x;
}

TEST(Simplex, TrivialBoundedMinimum) {
  // min x st x >= 3
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kGe, 3.0, {{x, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
}

TEST(Simplex, TextbookTwoVariable) {
  // min -x - 2y st x + y <= 4, x + 3y <= 6; opt at (3,1): -5.
  Model m;
  int x = m.add_variable(0.0, kInf, -1.0);
  int y = m.add_variable(0.0, kInf, -2.0);
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kLe, 6.0, {{x, 1.0}, {y, 3.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-8);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
  EXPECT_NEAR(s.x[y], 1.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y st x + 2y = 4, x - y = 1 -> x = 2, y = 1.
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  int y = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kEq, 4.0, {{x, 1.0}, {y, 2.0}});
  m.add_row(Sense::kEq, 1.0, {{x, 1.0}, {y, -1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kGe, 5.0, {{x, 1.0}});
  m.add_row(Sense::kLe, 3.0, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  int x = m.add_variable(0.0, kInf, -1.0);  // min -x, x free upward
  m.add_row(Sense::kGe, 0.0, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, Status::kUnbounded);
}

TEST(Simplex, VariableBoundsRespected) {
  // min -x - y with x in [1, 2], y in [0, 3], x + y <= 4.
  Model m;
  int x = m.add_variable(1.0, 2.0, -1.0);
  int y = m.add_variable(0.0, 3.0, -1.0);
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
  EXPECT_LE(s.x[x], 2.0 + 1e-8);
  EXPECT_GE(s.x[x], 1.0 - 1e-8);
}

TEST(Simplex, NonzeroLowerBoundShift) {
  // min x with x >= 5 via bound (not row).
  Model m;
  (void)m.add_variable(5.0, kInf, 1.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, FreeVariableSplit) {
  // min |style|: x free, minimize x st x >= -7 as a row; optimum -7.
  Model m;
  int x = m.add_variable(-kInf, kInf, 1.0);
  m.add_row(Sense::kGe, -7.0, {{x, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -7.0, 1e-8);
}

TEST(Simplex, DegenerateKleeMintyLike) {
  // A degenerate LP with many ties; checks anti-cycling termination.
  Model m;
  std::vector<int> v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(m.add_variable(0.0, kInf, -std::pow(2.0, 5 - i)));
  }
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < i; ++j) row.push_back({v[j], std::pow(2.0, i - j + 1)});
    row.push_back({v[i], 1.0});
    m.add_row(Sense::kLe, std::pow(5.0, i + 1), row);
  }
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -std::pow(5.0, 6), 1e-6 * std::pow(5.0, 6));
}

TEST(Simplex, RedundantEqualityRowsHandled) {
  // Duplicate equalities leave a basic artificial at level 0.
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  int y = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kEq, 2.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 2.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 4.0, {{x, 2.0}, {y, 2.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
}

TEST(ExactSimplex, MatchesKnownFractionalOptimum) {
  // min x0+x1 st 2x0+x1 >= 1, x0+3x1 >= 1 -> x=(2/5,1/5), obj 3/5.
  Model m;
  int a = m.add_variable(0.0, kInf, 1.0);
  int b = m.add_variable(0.0, kInf, 1.0);
  m.add_row(Sense::kGe, 1.0, {{a, 2.0}, {b, 1.0}});
  m.add_row(Sense::kGe, 1.0, {{a, 1.0}, {b, 3.0}});
  ExactSolution s = solve_exact(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_EQ(s.objective, num::Rational::from_int64(3, 5));
  EXPECT_EQ(s.x[a], num::Rational::from_int64(2, 5));
  EXPECT_EQ(s.x[b], num::Rational::from_int64(1, 5));
}

TEST(ExactSimplex, DetectsInfeasible) {
  Model m;
  int x = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
  EXPECT_EQ(solve_exact(m).status, Status::kInfeasible);
}

// Property sweep: random small LPs — double backend must agree with the
// exact rational backend on status and (when optimal) objective.
class RandomLpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpAgreement, DoubleMatchesExact) {
  Rng rng(1000 + GetParam());
  const int nvars = static_cast<int>(rng.uniform_int(1, 5));
  const int nrows = static_cast<int>(rng.uniform_int(1, 6));
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < nvars; ++i) {
    const double ub = rng.chance(0.3)
                          ? static_cast<double>(rng.uniform_int(1, 10))
                          : kInf;
    vars.push_back(m.add_variable(
        0.0, ub, static_cast<double>(rng.uniform_int(-4, 5))));
  }
  for (int r = 0; r < nrows; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < nvars; ++i) {
      if (rng.chance(0.7)) {
        row.push_back({vars[i], static_cast<double>(rng.uniform_int(-3, 4))});
      }
    }
    if (row.empty()) row.push_back({vars[0], 1.0});
    const Sense sense = rng.chance(0.4)   ? Sense::kLe
                        : rng.chance(0.6) ? Sense::kGe
                                          : Sense::kEq;
    m.add_row(sense, static_cast<double>(rng.uniform_int(-6, 10)), row);
  }
  Solution d = solve(m);
  ExactSolution e = solve_exact(m);
  ASSERT_NE(d.status, Status::kIterLimit);
  ASSERT_NE(e.status, Status::kIterLimit);
  EXPECT_EQ(d.status, e.status) << "double vs exact status";
  if (d.status == Status::kOptimal && e.status == Status::kOptimal) {
    EXPECT_NEAR(d.objective, e.objective.to_double(),
                1e-6 * (1.0 + std::abs(d.objective)));
    EXPECT_LE(m.max_violation(d.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpAgreement, ::testing::Range(0, 120));

}  // namespace
}  // namespace nat::lp
