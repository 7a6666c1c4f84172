#include "lp/sparse_simplex.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "activetime/lp_relaxation.hpp"
#include "activetime/solver.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "activetime/tree.hpp"
#include "instances/generators.hpp"
#include "lp/backend.hpp"
#include "lp/exact_simplex.hpp"
#include "obs/counters.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::lp {
namespace {

TEST(SparseSimplex, TrivialAndBounds) {
  // min -x - y with x in [1, 2], y in [0, 3], x + y <= 4.
  Model m;
  int x = m.add_variable(1.0, 2.0, -1.0);
  int y = m.add_variable(0.0, 3.0, -1.0);
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve_sparse(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
}

TEST(SparseSimplex, PureBoundFlipOptimum) {
  // Optimum reached by a single bound flip, no pivots.
  Model m;
  int x = m.add_variable(0.0, 5.0, -1.0);
  m.add_row(Sense::kLe, 100.0, {{x, 1.0}});
  SparseStats stats;
  Solution s = solve_sparse(m, {}, &stats);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 5.0, 1e-9);
  EXPECT_EQ(stats.pivots, 0);
  EXPECT_EQ(stats.bound_flips, 1);
}

TEST(SparseSimplex, StatusesMatchDenseBackend) {
  {
    Model m;
    int x = m.add_variable(0.0, 1.0, 1.0);
    m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
    EXPECT_EQ(solve_sparse(m).status, Status::kInfeasible);
  }
  {
    Model m;
    int x = m.add_variable(0.0, kInf, -1.0);
    m.add_row(Sense::kGe, 0.0, {{x, 1.0}});
    EXPECT_EQ(solve_sparse(m).status, Status::kUnbounded);
  }
  {
    Model m;
    int x = m.add_variable(0.0, kInf, 1.0);
    int y = m.add_variable(0.0, kInf, 1.0);
    m.add_row(Sense::kEq, 4.0, {{x, 1.0}, {y, 2.0}});
    m.add_row(Sense::kEq, 1.0, {{x, 1.0}, {y, -1.0}});
    Solution s = solve_sparse(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.x[x], 2.0, 1e-8);
    EXPECT_NEAR(s.x[y], 1.0, 1e-8);
  }
}

TEST(SparseSimplex, FixedAndFreeVariables) {
  {
    Model m;
    int x = m.add_variable(3.0, 3.0, -10.0);  // fixed
    int y = m.add_variable(0.0, kInf, 1.0);
    m.add_row(Sense::kGe, 5.0, {{x, 1.0}, {y, 1.0}});
    Solution s = solve_sparse(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.x[x], 3.0, 1e-9);
    EXPECT_NEAR(s.x[y], 2.0, 1e-8);
  }
  {
    Model m;
    int x = m.add_variable(-kInf, kInf, 1.0);
    m.add_row(Sense::kGe, -7.0, {{x, 1.0}});
    Solution s = solve_sparse(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.objective, -7.0, 1e-8);
  }
}

TEST(SparseSimplex, RedundantRowsKeepArtificialsPinned) {
  // Duplicated equalities leave a basic artificial on a redundant row;
  // the revised backend pins it at zero instead of deleting the row.
  Model m;
  int x = m.add_variable(0.0, kInf, 1.0);
  int y = m.add_variable(0.0, kInf, 2.0);
  m.add_row(Sense::kEq, 3.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 3.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 6.0, {{x, 2.0}, {y, 2.0}});
  Solution s = solve_sparse(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
}

TEST(SparseSimplex, BealeCyclingInstance) {
  // Beale's classic cycling example: Dantzig pricing with most-negative
  // tie-breaks cycles forever without an anti-cycling rule; the Bland
  // fallback must terminate it at the optimum (-0.05).
  Model m;
  int x1 = m.add_variable(0.0, kInf, -0.75);
  int x2 = m.add_variable(0.0, kInf, 150.0);
  int x3 = m.add_variable(0.0, kInf, -0.02);
  int x4 = m.add_variable(0.0, kInf, 6.0);
  m.add_row(Sense::kLe, 0.0,
            {{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}});
  m.add_row(Sense::kLe, 0.0,
            {{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}});
  m.add_row(Sense::kLe, 1.0, {{x3, 1.0}});
  Solution sparse = solve_sparse(m);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, -0.05, 1e-9);
  Solution dense = solve(m);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-9);
}

TEST(SparseSimplex, HighlyDegenerateTransportation) {
  // Degenerate assignment polytope: every basic feasible solution has
  // many basic variables at zero, so most pivots make no progress.
  constexpr int kN = 6;
  Model m;
  std::vector<std::vector<int>> v(kN, std::vector<int>(kN));
  util::Rng rng(4242);
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      v[i][j] = m.add_variable(0.0, 1.0,
                               static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
  for (int i = 0; i < kN; ++i) {
    std::vector<std::pair<int, double>> row, col;
    for (int j = 0; j < kN; ++j) {
      row.push_back({v[i][j], 1.0});
      col.push_back({v[j][i], 1.0});
    }
    m.add_row(Sense::kEq, 1.0, row);
    m.add_row(Sense::kEq, 1.0, col);
  }
  Solution sparse = solve_sparse(m);
  Solution dense = solve(m);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-8);
  EXPECT_LE(m.max_violation(sparse.x), 1e-7);
}

TEST(SparseSimplex, RefactorizationKeepsLongSolvesAccurate) {
  // A chain LP long enough to force several refactorization cycles;
  // the final objective must still match the exact rational optimum.
  constexpr int kLinks = 120;
  Model m;
  std::vector<int> x(kLinks);
  for (int i = 0; i < kLinks; ++i) {
    x[i] = m.add_variable(0.0, 10.0, i % 3 == 0 ? 1.0 : -1.0);
  }
  for (int i = 0; i + 1 < kLinks; ++i) {
    m.add_row(Sense::kLe, 12.0, {{x[i], 1.0}, {x[i + 1], 1.0}});
  }
  m.add_row(Sense::kGe, 4.0, {{x[0], 1.0}, {x[kLinks - 1], 1.0}});
  SparseStats stats;
  Solution sparse = solve_sparse(m, {}, &stats);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  ExactSolution exact = solve_exact(m);
  ASSERT_EQ(exact.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, exact.objective.to_double(),
              1e-9 * (1.0 + std::abs(sparse.objective)));
  EXPECT_LE(m.max_violation(sparse.x), 1e-7);
}

TEST(SparseSimplex, TinyPivotOnFreshFactorizationIsAccepted) {
  // x1 + 1e-8 x2 = 1, minimize -x2 with 0 <= x2 <= 1e12. Once x1 is
  // basic, x2's transformed pivot is 1e-8, below the stability
  // threshold. One re-inversion is due; after it nothing has moved, so
  // another would meet the same pivot forever. The deadline turns such
  // a spin into a cancellation instead of a hang.
  Model m;
  const int x1 = m.add_variable(0.0, kInf, 0.0);
  const int x2 = m.add_variable(0.0, 1e12, -1.0);
  m.add_row(Sense::kEq, 1.0, {{x1, 1.0}, {x2, 1e-8}});
  util::CancelToken token;
  token.set_timeout_ms(1000);
  SolveOptions options;
  options.cancel = &token;
  SparseStats stats;
  const Solution s = solve_sparse(m, options, &stats);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -1e8, 1e-9 * 1e8);
  EXPECT_EQ(s.iterations, 2);
  EXPECT_EQ(stats.refactorizations, 1);
}

// --- warm import: the drop path -----------------------------------------

/// Solves `m` cold, then warm from `hint`; the warm call must not count
/// as a warm hit (the import dropped columns) and must reach the cold
/// optimum.
void expect_warm_drop_reaches_cold(const Model& m, const Basis& hint) {
  Solution cold = solve_sparse(m);
  ASSERT_EQ(cold.status, Status::kOptimal);
  WarmOptions warm;
  warm.warm = &hint;
  SparseStats stats;
  Solution s = solve_sparse_warm(m, {}, warm, &stats);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_EQ(stats.warm_hit, 0);
  EXPECT_EQ(stats.warm_repair + stats.cold_fallback, 1);
  EXPECT_NEAR(s.objective, cold.objective,
              1e-9 * (1.0 + std::abs(cold.objective)));
  EXPECT_LE(m.max_violation(s.x), 1e-7);
}

TEST(SparseSimplexWarm, RankDeficientHintDropsAColumn) {
  // x and y have parallel columns (y = 2x in every row), so at most one
  // of them can be basic; the import must drop the other.
  Model m;
  int x = m.add_variable(0.0, 10.0, -1.0);
  int y = m.add_variable(0.0, 10.0, -1.0);
  int z = m.add_variable(0.0, 10.0, -2.0);
  m.add_row(Sense::kLe, 8.0, {{x, 1.0}, {y, 2.0}, {z, 1.0}});
  m.add_row(Sense::kLe, 6.0, {{x, 2.0}, {y, 4.0}, {z, -1.0}});
  Basis hint;
  hint.variables = {VarStatus::kBasic, VarStatus::kBasic, VarStatus::kAtLower};
  expect_warm_drop_reaches_cold(m, hint);
}

TEST(SparseSimplexWarm, MoreBasicThanRowsDropsTheSurplus) {
  // Three basic hints for two rows: the last column to be placed finds
  // every row assigned.
  Model m;
  int x = m.add_variable(0.0, 5.0, -1.0);
  int y = m.add_variable(0.0, 5.0, -3.0);
  int z = m.add_variable(0.0, 5.0, 1.0);
  m.add_row(Sense::kLe, 6.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kGe, 1.0, {{y, 1.0}, {z, 1.0}});
  Basis hint;
  hint.variables.assign(3, VarStatus::kBasic);
  expect_warm_drop_reaches_cold(m, hint);
}

TEST(SparseSimplexWarm, TinyPivotOnFreshFactorizationEndsTheWarmAttempt) {
  // An all-lower hint on a staircase strong LP drives the dual phase
  // into a pivot below the stability threshold on a fresh
  // factorization. Re-inverting again would pick the same row and
  // column on every retry, one refactorization each, so the warm
  // attempt must end and the cold path finish the solve.
  at::LaminarForest f = at::LaminarForest::build(at::gen::staircase(3, 20, 5));
  f.canonicalize();
  const at::StrongLp lp = at::build_strong_lp(f);
  const Solution cold = solve_sparse(lp.model);
  ASSERT_EQ(cold.status, Status::kOptimal);
  Basis hint;
  hint.variables.assign(static_cast<std::size_t>(lp.model.num_variables()),
                        VarStatus::kAtLower);
  WarmOptions warm;
  warm.warm = &hint;
  SparseStats stats;
  const Solution s = solve_sparse_warm(lp.model, {}, warm, &stats);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, cold.objective,
              1e-9 * (1.0 + std::abs(cold.objective)));
  EXPECT_EQ(stats.cold_fallback, 1);
  EXPECT_LE(stats.refactorizations, stats.pivots + stats.dual_pivots + 2);
}

// --- bit-identity golden: strong LPs of the large batch families ---------

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the bit patterns of `x`.
std::uint64_t hash_bits(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double v : x) {
    std::uint64_t b = bits_of(v);
    for (int k = 0; k < 8; ++k) {
      h = (h ^ (b & 0xff)) * 0x100000001b3ull;
      b >>= 8;
    }
  }
  return h;
}

/// Random laminar trees (or contended blocks) laid side by side, one
/// slot apart, until `target` jobs — the shape of the large batch cells.
at::Instance side_by_side_forest(bool contended, int target,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  at::Instance out;
  out.g = contended ? 6 : 3;
  at::Time offset = 0;
  while (out.num_jobs() < target) {
    at::Instance part;
    if (contended) {
      at::gen::ContendedParams p;
      p.g = out.g;
      p.min_groups = 1;
      p.max_groups = 8;
      p.unit_slack = rng.uniform_int(0, 2);
      p.max_long_jobs = static_cast<int>(rng.uniform_int(1, 3));
      part = at::gen::random_contended(p, rng);
    } else {
      at::gen::RandomLaminarParams p;
      p.g = out.g;
      p.max_depth = 4;
      p.max_children = 3;
      p.max_jobs_per_node = 4;
      p.max_processing = 4;
      part = at::gen::random_laminar(p, rng);
    }
    const at::Interval h = part.horizon();
    for (at::Job j : part.jobs) {
      j.release += offset - h.lo;
      j.deadline += offset - h.lo;
      out.jobs.push_back(j);
    }
    offset += h.length() + 1;
  }
  return out;
}

struct GoldenLp {
  const char* name;
  at::Instance instance;
  std::int64_t pivots, bound_flips, refactorizations, eta_nonzeros,
      factor_nonzeros, degenerate;
  std::uint64_t objective_bits, x_hash;
};

at::StrongLp strong_lp_of(const at::Instance& instance) {
  at::LaminarForest f = at::LaminarForest::build(instance);
  f.canonicalize();
  return at::build_strong_lp(f);
}

TEST(SparseSimplexGolden, PivotsAndVerticesAreBitIdentical) {
  // Recorded when re-inversion began peeling row singletons, which
  // moved pivots and vertices but no objective bits: any change to the
  // eta file (pivot rows, fill, summation order) shows up here as a
  // different pivot count, eta or factor size, or vertex bit pattern.
  // binary_nest(g, 5) are the single-root LPs of the large batch cells.
  const GoldenLp cases[] = {
      {"staircase", at::gen::staircase(4, 60, 5), 244, 2, 2, 7597, 4543, 178,
       0x4052c00000000000ull, 0xb4114b5ef5a738adull},
      {"binary_nest", at::gen::binary_nest(4, 4), 410, 19, 4, 5986, 2203, 316,
       0x4042200000000000ull, 0x557afc36fb791f7aull},
      {"laminar_forest", side_by_side_forest(false, 150, 12), 441, 37, 4,
       2332, 1621, 232, 0x40619aaaaaaaaaaaull, 0x916e0188b9af5331ull},
      {"contended_forest", side_by_side_forest(true, 200, 13), 357, 103, 3,
       1933, 926, 259, 0x404bd55555555555ull, 0xc6d28788ad8c5906ull},
      {"binary_nest_5_5", at::gen::binary_nest(5, 5), 987, 40, 10, 7836, 5974,
       779, 0x4051a66666666666ull, 0x4a524aeb732e6fbaull},
      {"binary_nest_3_5", at::gen::binary_nest(3, 5), 898, 33, 9, 5973, 4708,
       686, 0x405d6aaaaaaaaaabull, 0xa552732047cd9d02ull},
      {"binary_nest_4_5", at::gen::binary_nest(4, 5), 947, 33, 9, 7904, 4259,
       713, 0x4056100000000000ull, 0xcf6ef5679df9a788ull},
  };
  for (const GoldenLp& c : cases) {
    SCOPED_TRACE(c.name);
    const at::StrongLp lp = strong_lp_of(c.instance);
    SparseStats stats;
    const Solution s = solve_sparse(lp.model, {}, &stats);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_GE(stats.refactorizations, 2) << "golden LP too small";
    EXPECT_EQ(stats.pivots, c.pivots);
    EXPECT_EQ(stats.bound_flips, c.bound_flips);
    EXPECT_EQ(stats.refactorizations, c.refactorizations);
    EXPECT_EQ(stats.eta_nonzeros, c.eta_nonzeros);
    EXPECT_EQ(stats.factor_nonzeros, c.factor_nonzeros);
    EXPECT_EQ(stats.degenerate, c.degenerate);
    EXPECT_EQ(bits_of(s.objective), c.objective_bits)
        << std::hex << "objective bits 0x" << bits_of(s.objective);
    EXPECT_EQ(hash_bits(s.x), c.x_hash)
        << std::hex << "x hash 0x" << hash_bits(s.x);
  }
}

/// `m` with the rhs of row `row` raised by `delta`.
Model with_rhs_raised(const Model& m, int row, double delta) {
  Model out;
  for (const Variable& v : m.variables()) {
    out.add_variable(v.lower, v.upper, v.objective);
  }
  for (int r = 0; r < m.num_rows(); ++r) {
    const Row& src = m.row(r);
    out.add_row(src.sense, r == row ? src.rhs + delta : src.rhs, src.coeffs);
  }
  return out;
}

TEST(SparseSimplexGolden, WarmCanonicalRepairIsBitIdentical) {
  // A canonical solve exports its basis; raising one coverage row's rhs
  // pushes that basis out of the box, so the warm re-solve runs the
  // dual phase (and its eta updates) before the primal finish and the
  // canonicalization pass. The first solve was recorded before
  // incremental pricing and the sparse ratio test landed, the re-solve
  // when re-inversion began peeling row singletons.
  const at::StrongLp lp = strong_lp_of(at::gen::staircase(3, 12, 4));
  Basis exported;
  WarmOptions first;
  first.canonical = true;
  first.export_basis = &exported;
  SparseStats s0;
  const Solution base = solve_sparse_warm(lp.model, {}, first, &s0);
  ASSERT_EQ(base.status, Status::kOptimal);
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(s0.pivots, 83);
  EXPECT_EQ(s0.canonical_pivots, 32);
  EXPECT_EQ(hash_bits(base.x), 0xb5c45c00bbc4084dull)
      << std::hex << "x hash 0x" << hash_bits(base.x);

  constexpr int kRaisedRow = 13;  // a coverage row (2), rhs 4
  ASSERT_EQ(lp.model.row(kRaisedRow).sense, Sense::kGe);
  const Model edited = with_rhs_raised(lp.model, kRaisedRow, 1.0);
  WarmOptions again;
  again.warm = &exported;
  again.canonical = true;
  SparseStats st;
  const Solution s = solve_sparse_warm(edited, {}, again, &st);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_EQ(st.warm_hit, 0);
  EXPECT_EQ(st.warm_repair, 1);
  EXPECT_EQ(st.cold_fallback, 0);
  EXPECT_EQ(st.pivots, 33);
  EXPECT_EQ(st.bound_flips, 0);
  EXPECT_EQ(st.dual_pivots, 204);
  EXPECT_EQ(st.canonical_pivots, 33);
  EXPECT_EQ(st.refactorizations, 5);
  EXPECT_EQ(bits_of(s.objective), 0x4030555555555555ull)
      << std::hex << "objective bits 0x" << bits_of(s.objective);
  EXPECT_EQ(hash_bits(s.x), 0xdebe921efed00c50ull)
      << std::hex << "x hash 0x" << hash_bits(s.x);
}

TEST(SparseSimplexGolden, PricingRepricesOnlyWhatAPivotChanged) {
  // Reduced costs computed (SparseStats::priced) on the golden LPs.
  // After each BTRAN only the columns that meet a row whose dual
  // changed bits are repriced, plus the columns the step moved.
  struct Case {
    const char* name;
    at::Instance instance;
    std::int64_t priced;
  };
  const Case cases[] = {
      {"staircase", at::gen::staircase(4, 60, 5), 13181},
      {"binary_nest", at::gen::binary_nest(4, 4), 29675},
      {"laminar_forest", side_by_side_forest(false, 150, 12), 5482},
      {"contended_forest", side_by_side_forest(true, 200, 13), 4107},
      {"binary_nest_5_5", at::gen::binary_nest(5, 5), 166662},
      {"binary_nest_3_5", at::gen::binary_nest(3, 5), 144539},
      {"binary_nest_4_5", at::gen::binary_nest(4, 5), 152150},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const at::StrongLp lp = strong_lp_of(c.instance);
    SparseStats stats;
    const Solution s = solve_sparse(lp.model, {}, &stats);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_EQ(stats.priced, c.priced);
    // A full scan prices about every column per iteration; each row
    // brings at least one slack or artificial column. The recorded
    // counts are 1-8 % of that.
    const double columns = lp.model.num_variables() + lp.model.num_rows();
    EXPECT_LT(static_cast<double>(stats.priced),
              0.25 * static_cast<double>(s.iterations) * columns);
  }

  // The canonical pass prices the primal and the secondary costs.
  const at::StrongLp lp = strong_lp_of(at::gen::staircase(3, 12, 4));
  WarmOptions canonical;
  canonical.canonical = true;
  SparseStats stats;
  ASSERT_EQ(solve_sparse_warm(lp.model, {}, canonical, &stats).status,
            Status::kOptimal);
  EXPECT_EQ(stats.priced, 4589);
}

// --- differential sweep vs dense/exact on random LPs ----------------------

/// A random LP with heavy use of finite bounds: 1-7 variables, 1-8 rows.
/// Most such LPs are infeasible; with `feasible`, every rhs is instead
/// set so that a random integer point inside the bounds satisfies it.
Model random_lp(util::Rng& rng, bool feasible = false) {
  const int nvars = static_cast<int>(rng.uniform_int(1, 7));
  const int nrows = static_cast<int>(rng.uniform_int(1, 8));
  Model m;
  for (int i = 0; i < nvars; ++i) {
    const double lo = static_cast<double>(rng.uniform_int(0, 2));
    const double hi =
        rng.chance(0.7) ? lo + static_cast<double>(rng.uniform_int(0, 7))
                        : kInf;
    m.add_variable(lo, hi, static_cast<double>(rng.uniform_int(-4, 4)));
  }
  std::vector<double> point;
  if (feasible) {
    for (const Variable& v : m.variables()) {
      const double span = std::isfinite(v.upper) ? v.upper - v.lower : 4.0;
      point.push_back(v.lower + static_cast<double>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(span))));
    }
  }
  for (int r = 0; r < nrows; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < nvars; ++i) {
      if (rng.chance(0.6)) {
        row.push_back({i, static_cast<double>(rng.uniform_int(-3, 3))});
      }
    }
    if (row.empty()) row.push_back({0, 1.0});
    const Sense sense = rng.chance(0.3)   ? Sense::kEq
                        : rng.chance(0.5) ? Sense::kGe
                                          : Sense::kLe;
    double rhs = 0.0;
    if (feasible) {
      for (const auto& [i, a] : row) rhs += a * point[i];
      const double slack = static_cast<double>(rng.uniform_int(0, 3));
      if (sense == Sense::kLe) rhs += slack;
      if (sense == Sense::kGe) rhs -= slack;
    } else {
      rhs = static_cast<double>(rng.uniform_int(-6, 10));
    }
    m.add_row(sense, rhs, row);
  }
  return m;
}

/// The parameter is the RNG seed of one random_lp().
class SparseAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SparseAgreement, MatchesDenseAndExact) {
  util::Rng rng(GetParam());
  const Model m = random_lp(rng);
  Solution sparse = solve_sparse(m);
  Solution dense = solve(m);
  ASSERT_NE(sparse.status, Status::kIterLimit) << "sparse hit the cap";
  ASSERT_NE(dense.status, Status::kIterLimit);
  EXPECT_EQ(sparse.status, dense.status);
  if (dense.status == Status::kOptimal) {
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * (1.0 + std::abs(dense.objective)));
    EXPECT_LE(m.max_violation(sparse.x), 1e-6)
        << "sparse backend returned an infeasible point";
    ExactSolution exact = solve_exact(m);
    ASSERT_EQ(exact.status, Status::kOptimal);
    EXPECT_NEAR(sparse.objective, exact.objective.to_double(),
                1e-6 * (1.0 + std::abs(dense.objective)));
  }
}

// Two seed blocks, 400 random LPs in all.
INSTANTIATE_TEST_SUITE_P(Sweep, SparseAgreement,
                         ::testing::Range(91000, 91200));
INSTANTIATE_TEST_SUITE_P(Sweep2, SparseAgreement,
                         ::testing::Range(81000, 81200));

// --- block split: solve_with(kSparse) runs one simplex per block ----------

std::int64_t sparse_solves() {
  return obs::counter("lp.sparse.solves").value();
}

/// Fisher-Yates with the repository RNG, so the order is the same on
/// every standard library.
void shuffle(std::vector<std::pair<int, int>>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[k]);
  }
}

/// 2-4 random_lp() parts side by side (each feasible by construction
/// with probability 0.9), their variables and rows interleaved in
/// shuffled order, plus variables in no row, a satisfiable empty row,
/// and a free variable tied to part 0.
Model block_diagonal_lp(util::Rng& rng, int* parts_out) {
  const int nparts = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<Model> parts;
  for (int p = 0; p < nparts; ++p) {
    const bool feasible = rng.chance(0.9);
    parts.push_back(random_lp(rng, feasible));
  }
  *parts_out = nparts;

  // (part, index) pairs; part -1 is a variable in no row.
  std::vector<std::pair<int, int>> vars;
  for (int p = 0; p < nparts; ++p) {
    for (int i = 0; i < parts[p].num_variables(); ++i) vars.push_back({p, i});
  }
  const int loose = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < loose; ++i) vars.push_back({-1, i});
  shuffle(vars, rng);

  Model m;
  std::vector<std::vector<int>> global(static_cast<std::size_t>(nparts));
  for (int p = 0; p < nparts; ++p) global[p].resize(parts[p].num_variables());
  for (const auto& [p, i] : vars) {
    if (p < 0) {
      const double lo = static_cast<double>(rng.uniform_int(0, 2));
      const double hi = lo + static_cast<double>(rng.uniform_int(0, 5));
      const double cost = static_cast<double>(rng.uniform_int(-4, 4));
      m.add_variable(lo, hi, cost);
      continue;
    }
    const Variable& v = parts[p].variable(i);
    global[p][i] = m.add_variable(v.lower, v.upper, v.objective);
  }
  const double free_cost = static_cast<double>(rng.uniform_int(-2, 2));
  const int free_var = m.add_variable(-kInf, kInf, free_cost);

  // (part, row); part -1 is the empty row, part -2 ties the free
  // variable to part 0's first variable.
  std::vector<std::pair<int, int>> rows{{-1, 0}, {-2, 0}};
  for (int p = 0; p < nparts; ++p) {
    for (int r = 0; r < parts[p].num_rows(); ++r) rows.push_back({p, r});
  }
  shuffle(rows, rng);
  for (const auto& [p, r] : rows) {
    if (p == -1) {
      m.add_row(Sense::kLe, static_cast<double>(rng.uniform_int(0, 3)), {});
    } else if (p == -2) {
      m.add_row(Sense::kEq, 1.0, {{free_var, 1.0}, {global[0][0], -1.0}});
    } else {
      const Row& row = parts[p].row(r);
      std::vector<std::pair<int, double>> coeffs = row.coeffs;
      for (auto& term : coeffs) term.first = global[p][term.first];
      m.add_row(row.sense, row.rhs, std::move(coeffs));
    }
  }
  return m;
}

/// The parameter is the RNG seed of one block_diagonal_lp().
class SplitAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SplitAgreement, MatchesDenseAndExactOnTheWholeModel) {
  util::Rng rng(GetParam());
  int nparts = 0;
  const Model m = block_diagonal_lp(rng, &nparts);
  const std::int64_t solves0 = sparse_solves();
  const Solution split = solve_with(BackendKind::kSparse, m);
  const std::int64_t solves = sparse_solves() - solves0;
  const Solution dense = solve(m);
  const ExactSolution exact = solve_exact(m);
  ASSERT_NE(split.status, Status::kIterLimit) << "a block hit the cap";
  ASSERT_NE(dense.status, Status::kIterLimit);
  EXPECT_EQ(split.status, dense.status);
  EXPECT_EQ(split.status, exact.status);
  if (split.status != Status::kInfeasible) {
    // The parts, the free variable's part and the loose block.
    EXPECT_GE(solves, nparts + 1);
  }
  if (split.status != Status::kOptimal) {
    EXPECT_TRUE(split.x.empty());
    return;
  }
  ASSERT_EQ(dense.status, Status::kOptimal);
  ASSERT_EQ(exact.status, Status::kOptimal);
  EXPECT_NEAR(split.objective, dense.objective,
              1e-6 * (1.0 + std::abs(dense.objective)));
  EXPECT_NEAR(split.objective, exact.objective.to_double(),
              1e-6 * (1.0 + std::abs(dense.objective)));
  EXPECT_EQ(split.objective, m.objective_value(split.x));
  EXPECT_LE(m.max_violation(split.x), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitAgreement,
                         ::testing::Range(71000, 71200));

TEST(BlockSplit, OneBlockIsSolveSparseBitForBit) {
  // Single-root strong LPs are one block: solve_with must hand the model
  // to solve_sparse unchanged, so pivots and vertex are the same bits.
  for (const at::Instance& inst :
       {at::gen::binary_nest(4, 4), at::gen::staircase(3, 20, 5)}) {
    at::LaminarForest f = at::LaminarForest::build(inst);
    f.canonicalize();
    const at::StrongLp lp = at::build_strong_lp(f);
    const Solution direct = solve_sparse(lp.model);
    const std::int64_t solves0 = sparse_solves();
    const Solution split = solve_with(BackendKind::kSparse, lp.model);
    EXPECT_EQ(sparse_solves() - solves0, 1);
    ASSERT_EQ(split.status, Status::kOptimal);
    EXPECT_EQ(split.iterations, direct.iterations);
    EXPECT_EQ(bits_of(split.objective), bits_of(direct.objective));
    EXPECT_EQ(hash_bits(split.x), hash_bits(direct.x));
  }
}

TEST(BlockSplit, StatusPrecedenceMatchesDense) {
  // Each model has an unbounded block (variable 0) ahead of the block
  // that decides the status.
  auto with_unbounded_block = [] {
    Model m;
    const int y = m.add_variable(0.0, kInf, -1.0);
    m.add_row(Sense::kGe, 0.0, {{y, 1.0}});
    return m;
  };
  {
    // Unbounded, then infeasible: a whole-model phase 1 stops first.
    Model m = with_unbounded_block();
    const int x = m.add_variable(0.0, 1.0, 1.0);
    m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
    EXPECT_EQ(solve(m).status, Status::kInfeasible);
    const Solution s = solve_with(BackendKind::kSparse, m);
    EXPECT_EQ(s.status, Status::kInfeasible);
    EXPECT_TRUE(s.x.empty());
  }
  {
    // Infeasible, then unbounded: the merge stops at the first block.
    Model m;
    const int x = m.add_variable(0.0, 1.0, 1.0);
    m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
    const int y = m.add_variable(0.0, kInf, -1.0);
    m.add_row(Sense::kGe, 0.0, {{y, 1.0}});
    EXPECT_EQ(solve(m).status, Status::kInfeasible);
    const std::int64_t solves0 = sparse_solves();
    EXPECT_EQ(solve_with(BackendKind::kSparse, m).status, Status::kInfeasible);
    EXPECT_EQ(sparse_solves() - solves0, 1);
  }
  {
    // Unbounded, then optimal.
    Model m = with_unbounded_block();
    const int x = m.add_variable(0.0, 3.0, -1.0);
    m.add_row(Sense::kLe, 2.0, {{x, 1.0}});
    EXPECT_EQ(solve(m).status, Status::kUnbounded);
    const Solution s = solve_with(BackendKind::kSparse, m);
    EXPECT_EQ(s.status, Status::kUnbounded);
    EXPECT_TRUE(s.x.empty());
  }
  {
    // An optimal block plus the empty row 0 >= 1.
    Model m;
    const int x = m.add_variable(0.0, 3.0, -1.0);
    m.add_row(Sense::kLe, 2.0, {{x, 1.0}});
    m.add_row(Sense::kGe, 1.0, {});
    EXPECT_EQ(solve(m).status, Status::kInfeasible);
    EXPECT_EQ(solve_with(BackendKind::kSparse, m).status, Status::kInfeasible);
  }
}

// --- the repository's real LP corpus -------------------------------------

/// Solves the strong LP of `inst` through sparse and dense and checks
/// the 1e-9-relative agreement the CI perf gate also relies on.
void check_strong_lp_agreement(const at::Instance& inst) {
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  at::StrongLp lp = at::build_strong_lp(f);
  Solution sparse = solve_sparse(lp.model);
  Solution dense = solve(lp.model);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective,
              1e-9 * (1.0 + std::abs(dense.objective)));
  EXPECT_LE(lp.model.max_violation(sparse.x), 1e-7);
}

TEST(SparseSimplexCorpus, StrongLpFamilies) {
  for (int id = 0; id < 8; ++id) {
    {
      at::gen::RandomLaminarParams params;
      params.g = 3;
      params.max_depth = 3;
      params.max_children = 3;
      params.max_jobs_per_node = 3;
      params.max_processing = 4;
      util::Rng rng(100 + id);
      check_strong_lp_agreement(at::gen::random_laminar(params, rng));
    }
    {
      at::gen::ContendedParams params;
      params.g = 6;
      params.min_groups = 2;
      params.max_groups = 6;
      util::Rng rng(300 + id);
      check_strong_lp_agreement(at::gen::random_contended(params, rng));
    }
  }
}

TEST(SparseSimplexCorpus, TimeIndexedLps) {
  for (int id = 0; id < 6; ++id) {
    at::gen::ContendedParams params;
    params.g = 4;
    params.min_groups = 2;
    params.max_groups = 4;
    util::Rng rng(500 + id);
    const at::Instance inst = at::gen::random_contended(params, rng);
    at::TimeIndexedLp lp =
        at::build_time_indexed_lp(inst, at::CeilingIntervals::kEventAligned);
    Solution sparse = solve_sparse(lp.model);
    Solution dense = solve(lp.model);
    ASSERT_EQ(sparse.status, Status::kOptimal);
    ASSERT_EQ(dense.status, Status::kOptimal);
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-9 * (1.0 + std::abs(dense.objective)));
  }
}

// --- backend dispatch -----------------------------------------------------

TEST(LpBackend, ParseAndNames) {
  EXPECT_EQ(parse_backend(nullptr), BackendKind::kSparse);
  EXPECT_EQ(parse_backend(""), BackendKind::kSparse);
  EXPECT_EQ(parse_backend("sparse"), BackendKind::kSparse);
  EXPECT_EQ(parse_backend("check"), BackendKind::kCheck);
  EXPECT_THROW(parse_backend("tableau"), util::CheckError);
  EXPECT_THROW(parse_backend("dense"), util::CheckError);
  EXPECT_THROW(parse_backend("bounded"), util::CheckError);
  EXPECT_STREQ(backend_name(BackendKind::kSparse), "sparse");
  EXPECT_STREQ(backend_name(BackendKind::kCheck), "check");
}

TEST(LpBackend, AllKindsAgreeOnAModel) {
  Model m;
  int x = m.add_variable(0.0, 4.0, -1.0);
  int y = m.add_variable(0.0, kInf, -2.0);
  m.add_row(Sense::kLe, 6.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kLe, 10.0, {{x, 1.0}, {y, 2.0}});
  const double expected = -10.0;  // x=2, y=4
  for (BackendKind kind : {BackendKind::kSparse, BackendKind::kCheck}) {
    Solution s = solve_with(kind, m);
    ASSERT_EQ(s.status, Status::kOptimal) << backend_name(kind);
    EXPECT_NEAR(s.objective, expected, 1e-8) << backend_name(kind);
  }
  Solution dense = solve(m);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(dense.objective, expected, 1e-8);
}

TEST(LpBackend, CheckModeCoversInfeasibleAndUnbounded) {
  {
    Model m;
    int x = m.add_variable(0.0, 1.0, 1.0);
    m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
    EXPECT_EQ(solve_with(BackendKind::kCheck, m).status, Status::kInfeasible);
  }
  {
    Model m;
    int x = m.add_variable(0.0, kInf, -1.0);
    m.add_row(Sense::kGe, 0.0, {{x, 1.0}});
    EXPECT_EQ(solve_with(BackendKind::kCheck, m).status, Status::kUnbounded);
  }
}

// --- end-to-end: the solver pipeline on the sparse default ---------------

TEST(SparseSimplexPipeline, SolveNestedMatchesAcrossBackends) {
  // The full 9/5 pipeline (including the exact-arithmetic verify layer
  // in Debug builds) must produce the same LP value regardless of the
  // LP backend driving it.
  for (int id = 0; id < 4; ++id) {
    at::gen::ContendedParams params;
    params.g = 4;
    params.min_groups = 2;
    params.max_groups = 5;
    util::Rng rng(700 + id);
    const at::Instance inst = at::gen::random_contended(params, rng);
    const double sparse_value = at::strong_lp_value(inst);
    at::LaminarForest f = at::LaminarForest::build(inst);
    f.canonicalize();
    at::StrongLp lp = at::build_strong_lp(f);
    Solution dense = solve(lp.model);
    ASSERT_EQ(dense.status, Status::kOptimal);
    EXPECT_NEAR(sparse_value, dense.objective,
                1e-9 * (1.0 + std::abs(dense.objective)));
    at::NestedSolveResult result = at::solve_nested(inst);
    EXPECT_NEAR(result.lp_value, dense.objective,
                1e-7 * (1.0 + std::abs(dense.objective)));
    EXPECT_LE(static_cast<double>(result.active_slots),
              1.8 * result.lp_value + 1e-5);
  }
}

}  // namespace
}  // namespace nat::lp
