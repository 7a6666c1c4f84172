// Two-phase primal simplex on a dense tableau, templated over the
// number field.
//
// One implementation, two instantiations:
//   * double  (lp/dense_simplex.*)  — the workhorse for experiments;
//   * Rational (lp/exact_simplex.*) — exact certification on small LPs
//     (integrality-gap tables, cross-checking the double backend).
//
// Algorithm: textbook full-tableau two-phase simplex.
//   * Standardization: lower bounds are shifted out, free variables are
//     split, finite upper bounds become rows; every structural variable
//     of the standardized problem is >= 0.
//   * Phase 1 minimizes the sum of artificials; residual basic
//     artificials at level 0 are pivoted out or their (redundant) rows
//     deleted.
//   * Pricing is Dantzig (most negative reduced cost) with a permanent
//     switch to Bland's rule after a stall threshold, which guarantees
//     finite termination; the leaving row tie-break is smallest basis
//     column (Bland-compatible).
// Dense storage is deliberate: the LPs in this repository are small
// enough (thousands of rows) that robustness beats sparse machinery.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace nat::lp {

enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };

inline const char* to_string(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterLimit: return "iteration-limit";
  }
  return "?";
}

template <class NumT>
struct GenericSolution {
  Status status = Status::kIterLimit;
  NumT objective{};
  std::vector<NumT> x;  // one value per original model variable
  std::int64_t iterations = 0;
};

/// Numeric policy for the tableau. `tol(..)` comparisons collapse to
/// exact sign tests when `exact` is true.
struct DoubleTraits {
  using Num = double;
  static constexpr bool exact = false;
  static Num from_double(double v) { return v; }
  static double to_double(const Num& v) { return v; }
  static bool is_zero(const Num& v, double tol) { return std::abs(v) <= tol; }
  static bool less(const Num& a, const Num& b, double tol) {
    return a < b - tol;
  }
};

template <class Traits>
class TableauSimplex {
 public:
  using Num = typename Traits::Num;

  struct Options {
    double tol = 1e-9;        // pivot/zero tolerance (ignored when exact)
    double feas_tol = 1e-7;   // phase-1 residual treated as infeasible above
    // Polled once per pivot; check() aborts the solve by throwing
    // CancelledError. One clock read per pivot is noise next to the
    // O(rows * cols) pivot itself.
    const util::CancelToken* cancel = nullptr;
  };

  GenericSolution<Num> solve(const Model& model, const Options& opt = {}) {
    opt_ = opt;
    build(model);
    GenericSolution<Num> sol;
    max_iterations_ = 200 * static_cast<std::int64_t>(rows_ + cols_) + 2000;
    bland_after_ = 4 * static_cast<std::int64_t>(rows_ + cols_) + 200;

    Status st = phase1();
    if (st != Status::kOptimal) {
      sol.status = st == Status::kUnbounded ? Status::kInfeasible : st;
      sol.iterations = iterations_;
      return sol;
    }
    st = phase2();
    sol.status = st;
    sol.iterations = iterations_;
    if (st == Status::kOptimal) {
      extract(model, sol);
    }
    return sol;
  }

 private:
  // --- standardized problem ------------------------------------------------
  // Each model variable maps to one (or two, if free) standardized columns
  // plus a constant shift: x_model = shift + col_pos - col_neg.
  struct VarMap {
    int col_pos = -1;
    int col_neg = -1;
    Num shift{};
  };

  Num& at(std::size_t r, std::size_t c) { return tab_[r * stride_ + c]; }
  const Num& at(std::size_t r, std::size_t c) const {
    return tab_[r * stride_ + c];
  }
  Num& rhs(std::size_t r) { return tab_[r * stride_ + cols_]; }

  bool near_zero(const Num& v) const { return Traits::is_zero(v, opt_.tol); }
  bool negative(const Num& v) const {
    return Traits::less(v, Num(Traits::from_double(0.0)), opt_.tol);
  }

  void build(const Model& model) {
    const Num zero = Traits::from_double(0.0);
    const Num one = Traits::from_double(1.0);

    varmap_.assign(model.num_variables(), VarMap{});
    int next_col = 0;
    // Rows produced by finite upper bounds: (structural col, bound value).
    std::vector<std::pair<int, Num>> ub_rows;
    for (int i = 0; i < model.num_variables(); ++i) {
      const Variable& v = model.variable(i);
      VarMap& vm = varmap_[i];
      if (std::isfinite(v.lower)) {
        vm.shift = Traits::from_double(v.lower);
        vm.col_pos = next_col++;
        if (std::isfinite(v.upper)) {
          ub_rows.emplace_back(vm.col_pos,
                               Traits::from_double(v.upper - v.lower));
        }
      } else {
        vm.shift = zero;
        vm.col_pos = next_col++;
        vm.col_neg = next_col++;
        NAT_CHECK_MSG(!std::isfinite(v.upper),
                      "free variable with finite upper bound unsupported");
      }
    }
    structural_ = next_col;

    // Assemble standardized rows: (sense, rhs, dense coefficient slice).
    struct StdRow {
      Sense sense;
      Num rhs;
      std::vector<std::pair<int, Num>> coeffs;
    };
    std::vector<StdRow> srows;
    srows.reserve(model.num_rows() + ub_rows.size());
    for (const Row& row : model.rows()) {
      StdRow sr;
      sr.sense = row.sense;
      Num r = Traits::from_double(row.rhs);
      for (const auto& [var, coeff] : row.coeffs) {
        const VarMap& vm = varmap_[var];
        Num c = Traits::from_double(coeff);
        r -= c * vm.shift;
        sr.coeffs.emplace_back(vm.col_pos, c);
        if (vm.col_neg >= 0) sr.coeffs.emplace_back(vm.col_neg, zero - c);
      }
      sr.rhs = r;
      srows.push_back(std::move(sr));
    }
    for (const auto& [col, bound] : ub_rows) {
      StdRow sr;
      sr.sense = Sense::kLe;
      sr.rhs = bound;
      sr.coeffs.emplace_back(col, one);
      srows.push_back(std::move(sr));
    }

    rows_ = srows.size();
    // Column layout: [structural | slack/surplus | artificial].
    // Count slack and artificial columns after rhs-sign normalization.
    std::size_t n_slack = 0;
    std::size_t n_art = 0;
    for (auto& sr : srows) {
      if (Traits::less(sr.rhs, zero, 0.0)) {
        // Negate so rhs >= 0 (flips Le <-> Ge).
        sr.rhs = zero - sr.rhs;
        for (auto& [c, v] : sr.coeffs) v = zero - v;
        if (sr.sense == Sense::kLe) sr.sense = Sense::kGe;
        else if (sr.sense == Sense::kGe) sr.sense = Sense::kLe;
      }
      if (sr.sense != Sense::kEq) ++n_slack;
      if (sr.sense != Sense::kLe) ++n_art;
    }
    art_begin_ = structural_ + n_slack;
    cols_ = art_begin_ + n_art;
    stride_ = cols_ + 1;

    tab_.assign(rows_ * stride_, zero);
    basis_.assign(rows_, -1);

    std::size_t slack = static_cast<std::size_t>(structural_);
    std::size_t art = art_begin_;
    for (std::size_t r = 0; r < rows_; ++r) {
      StdRow& sr = srows[r];
      for (const auto& [c, v] : sr.coeffs) at(r, c) += v;
      rhs(r) = sr.rhs;
      switch (sr.sense) {
        case Sense::kLe:
          at(r, slack) = one;
          basis_[r] = static_cast<int>(slack++);
          break;
        case Sense::kGe:
          at(r, slack++) = zero - one;  // surplus
          at(r, art) = one;
          basis_[r] = static_cast<int>(art++);
          break;
        case Sense::kEq:
          at(r, art) = one;
          basis_[r] = static_cast<int>(art++);
          break;
      }
    }
    NAT_DCHECK(slack == art_begin_ && art == cols_);

    // Phase-2 costs per standardized column (structural only).
    cost_.assign(cols_, zero);
    obj_shift_ = zero;
    for (int i = 0; i < model.num_variables(); ++i) {
      const Variable& v = model.variable(i);
      if (v.objective == 0.0) continue;
      const VarMap& vm = varmap_[i];
      Num c = Traits::from_double(v.objective);
      cost_[vm.col_pos] += c;
      if (vm.col_neg >= 0) cost_[vm.col_neg] -= c;
      obj_shift_ += c * vm.shift;
    }

    iterations_ = 0;
    use_bland_ = false;
  }

  /// Rebuilds the objective row for costs `c` from the current basis.
  void reset_objrow(const std::vector<Num>& c) {
    const Num zero = Traits::from_double(0.0);
    objrow_.assign(stride_, zero);
    for (std::size_t j = 0; j < cols_; ++j) objrow_[j] = c[j];
    for (std::size_t r = 0; r < rows_; ++r) {
      const Num& cb = c[basis_[r]];
      if (Traits::is_zero(cb, 0.0)) continue;
      for (std::size_t j = 0; j <= cols_; ++j) {
        objrow_[j] -= cb * at(r, j);
      }
    }
  }

  /// One pricing + ratio-test + pivot step. `allow(col)` filters the
  /// entering candidates. Returns kOptimal when no candidate remains.
  template <class Allow>
  Status iterate(const Allow& allow) {
    for (;;) {
      util::poll_cancel(opt_.cancel);
      if (iterations_ >= max_iterations_) return Status::kIterLimit;
      if (!use_bland_ && iterations_ >= bland_after_) use_bland_ = true;

      // Entering column.
      std::ptrdiff_t enter = -1;
      if (use_bland_) {
        for (std::size_t j = 0; j < cols_; ++j) {
          if (allow(j) && negative(objrow_[j])) {
            enter = static_cast<std::ptrdiff_t>(j);
            break;
          }
        }
      } else {
        Num best = Traits::from_double(0.0);
        for (std::size_t j = 0; j < cols_; ++j) {
          if (allow(j) && Traits::less(objrow_[j], best, opt_.tol)) {
            best = objrow_[j];
            enter = static_cast<std::ptrdiff_t>(j);
          }
        }
      }
      if (enter < 0) return Status::kOptimal;

      // Leaving row: min ratio rhs/col over positive column entries;
      // tie-break on smallest basis index (Bland-compatible).
      std::ptrdiff_t leave = -1;
      Num best_ratio = Traits::from_double(0.0);
      for (std::size_t r = 0; r < rows_; ++r) {
        const Num& a = at(r, enter);
        if (!Traits::less(Num(Traits::from_double(0.0)), a, opt_.tol))
          continue;  // need a > 0
        Num ratio = rhs(r) / a;
        if (leave < 0 || Traits::less(ratio, best_ratio, 0.0) ||
            (!Traits::less(best_ratio, ratio, 0.0) &&
             basis_[r] < basis_[leave])) {
          leave = static_cast<std::ptrdiff_t>(r);
          best_ratio = ratio;
        }
      }
      if (leave < 0) return Status::kUnbounded;

      pivot(static_cast<std::size_t>(leave), static_cast<std::size_t>(enter));
      ++iterations_;
    }
  }

  void pivot(std::size_t prow, std::size_t pcol) {
    const Num zero = Traits::from_double(0.0);
    Num p = at(prow, pcol);
    NAT_DCHECK(!near_zero(p));
    // Normalize the pivot row.
    for (std::size_t j = 0; j <= cols_; ++j) at(prow, j) = at(prow, j) / p;
    at(prow, pcol) = Traits::from_double(1.0);
    // Eliminate the pivot column elsewhere.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == prow) continue;
      Num f = at(r, pcol);
      if (Traits::is_zero(f, 0.0)) continue;
      for (std::size_t j = 0; j <= cols_; ++j) {
        at(r, j) -= f * at(prow, j);
      }
      at(r, pcol) = zero;
    }
    Num f = objrow_[pcol];
    if (!Traits::is_zero(f, 0.0)) {
      for (std::size_t j = 0; j <= cols_; ++j) {
        objrow_[j] -= f * at(prow, j);
      }
      objrow_[pcol] = zero;
    }
    basis_[prow] = static_cast<int>(pcol);
  }

  Status phase1() {
    const Num zero = Traits::from_double(0.0);
    if (art_begin_ == cols_) return Status::kOptimal;  // no artificials
    std::vector<Num> d(cols_, zero);
    for (std::size_t j = art_begin_; j < cols_; ++j) {
      d[j] = Traits::from_double(1.0);
    }
    reset_objrow(d);
    Status st = iterate([](std::size_t) { return true; });
    if (st != Status::kOptimal) return st;
    // Phase-1 objective value is -objrow_[cols_].
    Num p1 = zero - objrow_[cols_];
    bool infeasible;
    if constexpr (Traits::exact) {
      infeasible = !Traits::is_zero(p1, 0.0);
    } else {
      infeasible = !Traits::is_zero(p1, opt_.feas_tol);
    }
    if (infeasible) return Status::kInfeasible;
    drive_out_artificials();
    return Status::kOptimal;
  }

  /// Pivots basic artificials (all at level 0 after a feasible phase 1)
  /// onto non-artificial columns, deleting redundant rows.
  void drive_out_artificials() {
    for (std::size_t r = 0; r < rows_;) {
      if (static_cast<std::size_t>(basis_[r]) < art_begin_) {
        ++r;
        continue;
      }
      std::ptrdiff_t col = -1;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (!near_zero(at(r, j))) {
          col = static_cast<std::ptrdiff_t>(j);
          break;
        }
      }
      if (col >= 0) {
        pivot(r, static_cast<std::size_t>(col));
        ++r;
      } else {
        // Row is zero on all real columns: redundant constraint. Remove.
        remove_row(r);
      }
    }
  }

  void remove_row(std::size_t r) {
    std::size_t last = rows_ - 1;
    if (r != last) {
      for (std::size_t j = 0; j <= cols_; ++j) at(r, j) = at(last, j);
      basis_[r] = basis_[last];
    }
    basis_.pop_back();
    --rows_;
    tab_.resize(rows_ * stride_);
  }

  Status phase2() {
    reset_objrow(cost_);
    // Artificials may never re-enter.
    const std::size_t ab = art_begin_;
    return iterate([ab](std::size_t j) { return j < ab; });
  }

  void extract(const Model& model, GenericSolution<Num>& sol) {
    const Num zero = Traits::from_double(0.0);
    std::vector<Num> xs(cols_, zero);
    for (std::size_t r = 0; r < rows_; ++r) {
      xs[basis_[r]] = rhs(r);
    }
    sol.x.assign(model.num_variables(), zero);
    sol.objective = zero;
    for (int i = 0; i < model.num_variables(); ++i) {
      const VarMap& vm = varmap_[i];
      Num v = vm.shift + xs[vm.col_pos];
      if (vm.col_neg >= 0) v -= xs[vm.col_neg];
      sol.x[i] = v;
      sol.objective += Traits::from_double(model.variable(i).objective) * v;
    }
  }

  Options opt_;
  std::vector<Num> tab_;      // rows_ x (cols_+1), last column = rhs
  std::vector<Num> objrow_;   // reduced costs + negated objective value
  std::vector<Num> cost_;     // phase-2 costs per standardized column
  std::vector<int> basis_;    // basic column per row
  std::vector<VarMap> varmap_;
  Num obj_shift_{};
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::size_t art_begin_ = 0;
  int structural_ = 0;
  std::int64_t iterations_ = 0, max_iterations_ = 0, bland_after_ = 0;
  bool use_bland_ = false;
};

}  // namespace nat::lp
