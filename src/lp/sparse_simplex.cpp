#include "lp/sparse_simplex.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace nat::lp {

namespace {

constexpr double kInfU = std::numeric_limits<double>::infinity();
// Entries below this are dropped when an eta is harvested: they are
// numerical dust and would only bloat the eta file.
constexpr double kDropTol = 1e-12;
// A transformed pivot entry smaller than this triggers a fresh
// refactorization before the pivot is accepted.
constexpr double kUnstablePivot = 1e-7;
// Refactorization cadence: whichever comes first of this many pivots
// or the updates outgrowing a small multiple of the row count on top
// of the fresh factor (refactorize_if_due).
constexpr std::int64_t kRefactorInterval = 100;

// Generic secondary weight for the canonicalization pass: a splitmix64
// hash of the variable index mapped into [1, 2). Integer arithmetic +
// one exact conversion, so the weights are bit-identical across
// platforms, and hashing makes weight coincidences (two vertices of the
// optimal face with equal secondary value) practically impossible.
double canonical_weight(int var) {
  std::uint64_t z = static_cast<std::uint64_t>(var) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 1.0 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

class SparseSimplex {
 public:
  Solution run(const Model& model, const SolveOptions& options,
               const WarmOptions& warm, SparseStats* stats) {
    tol_ = options.tol;
    feas_tol_ = options.feas_tol;
    cancel_ = options.cancel;
    build(model);
    max_iterations_ = 200 * static_cast<std::int64_t>(rows_ + cols_) + 2000;
    bland_after_ = 4 * static_cast<std::int64_t>(rows_ + cols_) + 200;

    Solution sol;
    Status st = Status::kIterLimit;
    bool warm_done = false;
    if (warm.warm != nullptr && !warm.warm->empty()) {
      bool clean = false;
      const std::int64_t moves0 =
          stats_.pivots + stats_.bound_flips + stats_.dual_pivots;
      if (try_warm(model, *warm.warm, clean, st)) {
        warm_done = true;
        const std::int64_t moves =
            stats_.pivots + stats_.bound_flips + stats_.dual_pivots - moves0;
        if (clean && moves == 0) {
          ++stats_.warm_hit;
        } else {
          ++stats_.warm_repair;
        }
      } else {
        ++stats_.cold_fallback;
        reset_to_initial_basis();
      }
    }
    if (!warm_done) {
      st = phase1();
      if (st == Status::kOptimal) {
        st = phase2();
      } else if (st == Status::kUnbounded) {
        st = Status::kInfeasible;  // phase 1 is bounded below by 0
      }
    }
    if (st == Status::kOptimal && warm.canonical) canonical_phase();
    sol.status = st;
    sol.iterations = iterations_;
    if (st == Status::kOptimal) {
      extract(model, sol);
      if (warm.export_basis != nullptr) export_to(model, *warm.export_basis);
    }
    stats_.eta_nonzeros = static_cast<std::int64_t>(eta_nnz_);
    if (stats) *stats = stats_;
    flush_counters();
    return sol;
  }

 private:
  struct VarMap {
    int col_pos = -1;
    int col_neg = -1;
    double shift = 0.0;
  };

  /// One product-form update: the entering column after FTRAN,
  /// split into the pivot entry and the other nonzeros.
  struct Eta {
    int prow = -1;
    double pivot = 0.0;
    std::vector<std::pair<int, double>> rest;  // (row, value), row != prow
  };

  // --- standardization -----------------------------------------------------
  // Shift lower bounds, split free variables, normalize rhs >= 0, add a
  // slack for each inequality and an artificial where no +1 slack can
  // start the basis; the matrix lands in CSC.
  void build(const Model& model) {
    varmap_.assign(model.num_variables(), VarMap{});
    std::vector<double> ub;
    int next = 0;
    for (int i = 0; i < model.num_variables(); ++i) {
      const Variable& v = model.variable(i);
      VarMap& vm = varmap_[i];
      if (std::isfinite(v.lower)) {
        vm.shift = v.lower;
        vm.col_pos = next++;
        ub.push_back(std::isfinite(v.upper) ? v.upper - v.lower : kInfU);
      } else {
        NAT_CHECK_MSG(!std::isfinite(v.upper),
                      "free variable with finite upper bound unsupported");
        vm.col_pos = next++;
        vm.col_neg = next++;
        ub.push_back(kInfU);
        ub.push_back(kInfU);
      }
    }
    structural_ = next;
    rows_ = static_cast<std::size_t>(model.num_rows());

    // Per-row standardized coefficients, duplicates merged sparsely.
    struct StdRow {
      double rhs = 0.0;
      std::vector<std::pair<int, double>> coeffs;  // sorted by column
      double slack_sign = 0.0;                     // 0 for equality
    };
    std::vector<StdRow> srows(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const Row& row = model.row(static_cast<int>(r));
      StdRow& sr = srows[r];
      sr.rhs = row.rhs;
      auto& cs = sr.coeffs;
      for (const auto& [var, coeff] : row.coeffs) {
        const VarMap& vm = varmap_[var];
        sr.rhs -= coeff * vm.shift;
        cs.push_back({vm.col_pos, coeff});
        if (vm.col_neg >= 0) cs.push_back({vm.col_neg, -coeff});
      }
      std::sort(cs.begin(), cs.end());
      std::size_t w = 0;
      for (std::size_t k = 0; k < cs.size();) {
        double sum = cs[k].second;
        std::size_t k2 = k + 1;
        while (k2 < cs.size() && cs[k2].first == cs[k].first) {
          sum += cs[k2++].second;
        }
        if (sum != 0.0) cs[w++] = {cs[k].first, sum};
        k = k2;
      }
      cs.resize(w);

      Sense sense = row.sense;
      if (sr.rhs < 0.0) {
        sr.rhs = -sr.rhs;
        for (auto& [c, v] : cs) v = -v;
        if (sense == Sense::kLe) sense = Sense::kGe;
        else if (sense == Sense::kGe) sense = Sense::kLe;
      }
      if (sense == Sense::kLe) sr.slack_sign = 1.0;
      else if (sense == Sense::kGe) sr.slack_sign = -1.0;
    }

    // Column layout: [structural | slacks | artificials]. A +1 slack
    // starts the basis of its row; -1 slacks and equalities get an
    // artificial.
    int n_slack = 0, n_art = 0;
    for (const StdRow& sr : srows) {
      if (sr.slack_sign != 0.0) ++n_slack;
      if (sr.slack_sign <= 0.0) ++n_art;
    }
    art_begin_ = static_cast<std::size_t>(structural_ + n_slack);
    cols_ = art_begin_ + static_cast<std::size_t>(n_art);
    ub.resize(cols_, kInfU);
    ub_ = std::move(ub);

    // CSC assembly: structural columns from the rows, then the unit
    // slack/artificial columns.
    std::vector<int> col_nnz(cols_, 0);
    for (const StdRow& sr : srows) {
      for (const auto& [c, v] : sr.coeffs) {
        (void)v;
        ++col_nnz[c];
      }
    }
    int slack = structural_;
    int art = static_cast<int>(art_begin_);
    slack_col_.assign(rows_, -1);
    art_col_.assign(rows_, -1);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (srows[r].slack_sign != 0.0) {
        slack_col_[r] = slack;
        ++col_nnz[slack++];
      }
      if (srows[r].slack_sign <= 0.0) {
        art_col_[r] = art;
        ++col_nnz[art++];
      }
    }
    col_ptr_.assign(cols_ + 1, 0);
    for (std::size_t j = 0; j < cols_; ++j) {
      col_ptr_[j + 1] = col_ptr_[j] + col_nnz[j];
    }
    col_row_.assign(static_cast<std::size_t>(col_ptr_[cols_]), 0);
    col_val_.assign(col_row_.size(), 0.0);
    std::vector<int> fill(col_ptr_.begin(), col_ptr_.end() - 1);
    b_.assign(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      b_[r] = srows[r].rhs;
      for (const auto& [c, v] : srows[r].coeffs) {
        col_row_[fill[c]] = static_cast<int>(r);
        col_val_[fill[c]++] = v;
      }
      if (slack_col_[r] >= 0) {
        col_row_[fill[slack_col_[r]]] = static_cast<int>(r);
        col_val_[fill[slack_col_[r]]++] = srows[r].slack_sign;
      }
      if (art_col_[r] >= 0) {
        col_row_[fill[art_col_[r]]] = static_cast<int>(r);
        col_val_[fill[art_col_[r]]++] = 1.0;
      }
    }

    // Row-wise pattern of the same matrix: the columns that meet each
    // row, ascending. Pricing walks it to find the reduced costs a
    // changed dual can move.
    row_ptr_.assign(rows_ + 1, 0);
    for (int r : col_row_) ++row_ptr_[static_cast<std::size_t>(r) + 1];
    for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
    row_col_.assign(col_row_.size(), 0);
    std::vector<int> next_in_row(row_ptr_.begin(), row_ptr_.end() - 1);
    for (std::size_t j = 0; j < cols_; ++j) {
      for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
        row_col_[next_in_row[col_row_[k]]++] = static_cast<int>(j);
      }
    }

    // Initial basis: +1 slack where available, artificial otherwise;
    // the basis matrix is the identity, so the eta file starts empty.
    basis_.assign(rows_, -1);
    basic_.assign(cols_, false);
    at_upper_.assign(cols_, false);
    beta_ = b_;
    for (std::size_t r = 0; r < rows_; ++r) {
      const int bcol = srows[r].slack_sign > 0.0 ? slack_col_[r] : art_col_[r];
      basis_[r] = bcol;
      basic_[bcol] = true;
    }
    initial_basis_ = basis_;

    cost_.assign(cols_, 0.0);
    c2_.assign(cols_, 0.0);
    for (int i = 0; i < model.num_variables(); ++i) {
      const double c = model.variable(i).objective;
      const double w = canonical_weight(i);
      c2_[varmap_[i].col_pos] = w;
      if (varmap_[i].col_neg >= 0) c2_[varmap_[i].col_neg] = -w;
      if (c == 0.0) continue;
      cost_[varmap_[i].col_pos] += c;
      if (varmap_[i].col_neg >= 0) cost_[varmap_[i].col_neg] -= c;
    }

    etas_.clear();
    eta_nnz_ = 0;
    factor_nnz_ = 0;
    pivots_since_refactor_ = 0;
    moved_since_refactor_ = false;
    iterations_ = 0;
    use_bland_ = false;
    stats_ = SparseStats{};
    work_.assign(rows_, 0.0);
    touched_.assign(rows_, 0);
    may_enter_.assign(cols_, 0);
    cand_pos_.assign(cols_, -1);
    is_stale_.assign(cols_, 0);
  }

  // --- eta-file basis inverse ---------------------------------------------

  /// In-place v <- B^{-1} v.
  void ftran(std::vector<double>& v) const {
    for (const Eta& e : etas_) {
      const double t = v[e.prow];
      if (t == 0.0) continue;
      const double s = t / e.pivot;
      v[e.prow] = s;
      for (const auto& [i, a] : e.rest) v[i] -= a * s;
    }
  }

  /// In-place y^T <- y^T B^{-1}.
  void btran(std::vector<double>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = y[it->prow];
      for (const auto& [i, a] : it->rest) acc -= a * y[i];
      y[it->prow] = acc / it->pivot;
    }
  }

  /// y <- the duals of `cost`: its basic entries, BTRAN'd.
  void basic_duals(const std::vector<double>& cost,
                   std::vector<double>& y) const {
    for (std::size_t r = 0; r < rows_; ++r) y[r] = cost[basis_[r]];
    btran(y);
  }

  /// Lists the rows where the FTRAN'd column in work_ is nonzero,
  /// ascending, in nz_. A zero entry can neither block the ratio test
  /// nor move a basic value (at most it flips the sign of a zero beta,
  /// which no comparison reads) and is never harvested into an eta, so
  /// the ratio test, the beta update and the harvest visit only nz_.
  void gather_nonzeros() {
    nz_.clear();
    for (std::size_t r = 0; r < rows_; ++r) {
      if (work_[r] != 0.0) nz_.push_back(static_cast<int>(r));
    }
  }

  /// beta <- beta - step * work_ over the nonzero rows.
  void update_beta(double step) {
    for (int r : nz_) beta_[r] -= step * work_[r];
  }

  /// Harvests an eta from the FTRAN'd column in work_ (nonzero rows
  /// nz_) with pivot row `prow` and pushes it onto the file.
  void append_eta(std::size_t prow) {
    Eta e;
    e.prow = static_cast<int>(prow);
    e.pivot = work_[prow];
    for (int r : nz_) {
      if (static_cast<std::size_t>(r) == prow) continue;
      if (std::abs(work_[r]) > kDropTol) e.rest.push_back({r, work_[r]});
    }
    eta_nnz_ += e.rest.size() + 1;
    etas_.push_back(std::move(e));
  }

  void load_column(std::size_t j, std::vector<double>& v) const {
    std::fill(v.begin(), v.end(), 0.0);
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      v[col_row_[k]] = col_val_[k];
    }
  }

  double column_dot(std::size_t j, const std::vector<double>& y) const {
    double d = 0.0;
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      d += col_val_[k] * y[col_row_[k]];
    }
    return d;
  }

  /// Empties the eta file for a new factorization.
  void begin_factorization() {
    etas_.clear();
    eta_nnz_ = 0;
    factor_nnz_ = 0;
    pivots_since_refactor_ = 0;
    moved_since_refactor_ = false;
    ++stats_.refactorizations;
    std::fill(work_.begin(), work_.end(), 0.0);
    row_eta_.assign(rows_, -1);
  }

  /// `cols` sparsest-first (ties by index), the order in which columns
  /// are placed with partial pivoting. This order alone does not keep
  /// the fill small: late in a solve it more than doubled the nonzeros
  /// of the basis, which is why refactorize() peels row singletons
  /// first.
  std::vector<int> sparsest_first(std::vector<int> cols) const {
    std::sort(cols.begin(), cols.end(), [&](int a, int b) {
      const int na = col_ptr_[a + 1] - col_ptr_[a];
      const int nb = col_ptr_[b + 1] - col_ptr_[b];
      return na != nb ? na < nb : a < b;
    });
    return cols;
  }

  /// Drives column `j` into the factorization begun by
  /// begin_factorization(): FTRANs it through the etas placed so far,
  /// pivots on row `forced` when given, else on the largest magnitude
  /// among the rows not yet assigned (partial pivoting), and appends
  /// the eta. Returns the pivot row, or -1 (nothing appended) when the
  /// pivot entry is at most kDropTol: the column depends on those
  /// placed, or vanishes on the forced row.
  ///
  /// Costs O(nnz of the column + fill), not O(rows): only touched rows
  /// are scattered, scanned and cleared, and only etas whose pivot row
  /// is touched are applied. The eta is bit-identical to a dense
  /// FTRAN + scan + harvest because the etas run in file order, a zero
  /// pivot entry is skipped as in ftran(), ties go to the lowest row as
  /// in an ascending scan, and `rest` is harvested in ascending row
  /// order (BTRAN's summation order).
  std::ptrdiff_t place_column(int j, std::ptrdiff_t forced = -1) {
    constexpr auto later = std::greater<int>();
    // An eta acts only if its pivot row is nonzero when its turn comes.
    // A row first touched by eta k was still zero when any earlier eta
    // on that row ran, so only an eta after k is queued.
    auto touch = [&](int r, int after) {
      if (touched_[r]) return;
      touched_[r] = 1;
      touched_rows_.push_back(r);
      if (row_eta_[r] > after) {
        eta_heap_.push_back(row_eta_[r]);
        std::push_heap(eta_heap_.begin(), eta_heap_.end(), later);
      }
    };
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      touch(col_row_[k], -1);
      work_[col_row_[k]] = col_val_[k];
    }
    while (!eta_heap_.empty()) {
      std::pop_heap(eta_heap_.begin(), eta_heap_.end(), later);
      const int k = eta_heap_.back();
      eta_heap_.pop_back();
      const Eta& e = etas_[k];
      const double t = work_[e.prow];
      if (t == 0.0) continue;
      const double s = t / e.pivot;
      work_[e.prow] = s;
      for (const auto& [i, a] : e.rest) {
        touch(i, k);
        work_[i] -= a * s;
      }
    }

    std::ptrdiff_t prow = forced;
    double best = forced >= 0 ? std::abs(work_[forced]) : 0.0;
    if (forced < 0) {
      for (int r : touched_rows_) {
        if (row_eta_[r] >= 0) continue;  // already pivoted
        const double a = std::abs(work_[r]);
        if (a > best || (a == best && prow >= 0 && r < prow)) {
          best = a;
          prow = r;
        }
      }
    }
    if (prow >= 0 && best > kDropTol) {
      std::sort(touched_rows_.begin(), touched_rows_.end());
      Eta e;
      e.prow = static_cast<int>(prow);
      e.pivot = work_[prow];
      for (int r : touched_rows_) {
        if (r != prow && std::abs(work_[r]) > kDropTol) {
          e.rest.push_back({r, work_[r]});
        }
      }
      eta_nnz_ += e.rest.size() + 1;
      row_eta_[prow] = static_cast<int>(etas_.size());
      etas_.push_back(std::move(e));
    } else {
      prow = -1;
    }
    for (int r : touched_rows_) {
      work_[r] = 0.0;
      touched_[r] = 0;
    }
    touched_rows_.clear();
    return prow;
  }

  /// Re-inverts the current basis from its columns: the eta file is
  /// rebuilt by driving the basis columns in one by one (product-form
  /// Gaussian elimination, place_column). Row singletons go first: while
  /// some unassigned row meets exactly one unplaced basis column (the
  /// lowest such row first), that column pivots on that row. It meets no
  /// row pivoted before it, so no eta applies and its eta is the column
  /// itself, without fill; and no later column meets its pivot row, so
  /// its eta never applies to them either. The rest (the bump) takes
  /// the sparsest-first partial-pivoting order. Basic values are
  /// recomputed from scratch afterwards, which also resets accumulated
  /// floating-point drift.
  void refactorize() {
    begin_factorization();
    const std::vector<int> cols = basis_;
    // Per row: how many unplaced basis columns meet it, and the XOR of
    // their indices, which is the column itself once the count is 1.
    std::vector<int> count(rows_, 0), xor_cols(rows_, 0);
    std::vector<char> placed(cols_, 0);
    for (int j : cols) {
      for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
        ++count[col_row_[k]];
        xor_cols[col_row_[k]] ^= j;
      }
    }
    // The rows to peel, lowest first: those with count 1 from the start
    // (ascending), merged with a min-heap of those whose count fell to
    // 1 later. A row's count reaches 1 at most once, and a peeled
    // column meets no pivoted row, so no row is queued twice or after
    // its pivot.
    std::vector<int> initial, fell;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (count[r] == 1) initial.push_back(static_cast<int>(r));
    }
    constexpr auto later = std::greater<int>();
    for (std::size_t next = 0;;) {
      int r;
      if (!fell.empty() &&
          (next == initial.size() || fell.front() < initial[next])) {
        std::pop_heap(fell.begin(), fell.end(), later);
        r = fell.back();
        fell.pop_back();
      } else if (next < initial.size()) {
        r = initial[next++];
      } else {
        break;
      }
      if (count[r] != 1) continue;
      const int j = xor_cols[r];
      if (place_column(j, r) < 0) continue;  // tiny entry: left to the bump
      placed[j] = 1;
      basis_[r] = j;
      for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
        const int i = col_row_[k];
        xor_cols[i] ^= j;
        if (--count[i] == 1) {
          fell.push_back(i);
          std::push_heap(fell.begin(), fell.end(), later);
        }
      }
    }
    std::vector<int> bump;
    for (int j : cols) {
      if (!placed[j]) bump.push_back(j);
    }
    for (int j : sparsest_first(std::move(bump))) {
      const std::ptrdiff_t prow = place_column(j);
      NAT_CHECK_MSG(prow >= 0,
                    "sparse simplex: basis singular during refactorization");
      basis_[prow] = j;
    }
    end_factorization();
    NAT_DCHECK(factor_inverts_basis());
    recompute_beta();
  }

  /// Closes a factorization: later updates are budgeted on top of it.
  void end_factorization() {
    factor_nnz_ = eta_nnz_;
    stats_.factor_nonzeros = std::max(stats_.factor_nonzeros,
                                      static_cast<std::int64_t>(eta_nnz_));
  }

  /// Re-inverts when the eta file is due: kRefactorInterval pivots since
  /// the last factorization, or updates past 8 nonzeros per row (plus a
  /// constant for small models) on top of the fresh factor.
  void refactorize_if_due() {
    if (pivots_since_refactor_ >= kRefactorInterval ||
        eta_nnz_ > factor_nnz_ + 8 * rows_ + 512) {
      refactorize();
    }
  }

  /// Debug cross-check of a fresh factorization: FTRAN maps every basis
  /// column to its unit vector, within 1e-9 of the column's largest
  /// entry (at least 1).
  bool factor_inverts_basis() const {
    std::vector<double> v(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      load_column(static_cast<std::size_t>(basis_[r]), v);
      double scale = 1.0;
      for (double a : v) scale = std::max(scale, std::abs(a));
      ftran(v);
      for (std::size_t i = 0; i < rows_; ++i) {
        const double unit = i == r ? 1.0 : 0.0;
        if (!(std::abs(v[i] - unit) <= 1e-9 * scale)) return false;
      }
    }
    return true;
  }

  /// beta <- B^{-1} (b - A_N x_N) with nonbasics at their bounds.
  void recompute_beta() {
    std::vector<double>& v = beta_;
    v = b_;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (basic_[j] || !at_upper_[j]) continue;
      const double u = ub_[j];
      if (!std::isfinite(u) || u == 0.0) continue;
      for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
        v[col_row_[k]] -= u * col_val_[k];
      }
    }
    ftran(v);
  }

  // --- iteration -----------------------------------------------------------

  enum class PivotOutcome { kPivoted, kFlipped, kUnbounded, kRetry };

  /// Bounded ratio test plus basis update for entering column `j`
  /// (Dantzig's upper-bounding rules): moving the entering variable by
  /// t, basic values move along -t * sign * w. Shared by the primal
  /// phases and the canonicalization pass. kRetry means the eta file
  /// was stale and a refactorization ran; the caller re-prices from
  /// fresh duals. The columns the step moves are queued for repricing.
  PivotOutcome pivot_step(std::size_t j, bool decreasing) {
    load_column(j, work_);
    ftran(work_);
    gather_nonzeros();

    const double sign = decreasing ? -1.0 : 1.0;
    double limit = ub_[j];  // own bound: ends in a flip
    std::ptrdiff_t leave = -1;
    bool leave_at_upper = false;
    for (int r : nz_) {
      const double a = sign * work_[r];
      double cap = kInfU;
      bool blocks_at_upper = false;
      if (a > tol_) {
        cap = beta_[r] / a;  // basic hits its lower bound 0
      } else if (a < -tol_) {
        const double u = ub_[basis_[r]];
        if (std::isfinite(u)) {
          cap = (u - beta_[r]) / (-a);
          blocks_at_upper = true;
        }
      }
      if (cap < limit - tol_ ||
          (cap < limit + tol_ && leave >= 0 && basis_[r] < basis_[leave])) {
        if (cap <= limit + tol_) {
          limit = std::max(cap, 0.0);
          leave = r;
          leave_at_upper = blocks_at_upper;
        }
      }
    }
    if (!std::isfinite(limit)) return PivotOutcome::kUnbounded;

    if (leave < 0) {
      // Bound flip: no basis change, no eta.
      NAT_DCHECK(std::isfinite(ub_[j]));
      update_beta(ub_[j] * sign);
      at_upper_[j] = !at_upper_[j];
      mark_stale(static_cast<int>(j));
      moved_since_refactor_ = true;
      ++iterations_;
      ++stats_.bound_flips;
      return PivotOutcome::kFlipped;
    }

    const std::size_t prow = static_cast<std::size_t>(leave);
    if (std::abs(work_[prow]) < kUnstablePivot && !etas_.empty() &&
        moved_since_refactor_) {
      // The transformed pivot is numerically shaky and the eta file
      // may be stale; re-invert and redo the iteration from fresh
      // duals. On a fresh factorization the retry would pick the same
      // pivot again, so it is accepted instead.
      refactorize();
      return PivotOutcome::kRetry;
    }

    update_beta(limit * sign);
    const int leaving = basis_[prow];
    at_upper_[leaving] = leave_at_upper;
    basic_[leaving] = false;
    append_eta(prow);
    basis_[prow] = static_cast<int>(j);
    basic_[j] = true;
    at_upper_[j] = false;
    beta_[prow] = decreasing ? ub_[j] - limit : limit;
    mark_stale(leaving);
    mark_stale(static_cast<int>(j));
    moved_since_refactor_ = true;
    ++iterations_;
    ++stats_.pivots;
    ++pivots_since_refactor_;
    if (limit <= tol_) ++stats_.degenerate;
    return PivotOutcome::kPivoted;
  }

  // --- pricing -------------------------------------------------------------
  //
  // A pricing pass (one iterate() or canonical_phase() call) keeps the
  // reduced costs of the columns that may enter and the list of entering
  // candidates across its iterations. After each BTRAN, only the columns
  // that meet a row whose dual changed bits are repriced, with the same
  // expression a full scan uses, so every cached value has the bits a
  // full scan would compute. Duals are compared by bits, not values:
  // equal bits give an equal dot product, while +0 == -0 would let a
  // value compare reuse a stale one.

  /// Reduced costs cost[j] - column_dot(j, y) of one cost vector,
  /// for one pricing pass.
  struct Prices {
    Prices(const std::vector<double>& c, std::size_t rows, std::size_t cols)
        : cost(c), y(rows, 0.0), seen(rows, 0.0), d(cols, 0.0) {}
    const std::vector<double>& cost;
    std::vector<double> y;     // duals of the latest BTRAN
    std::vector<double> seen;  // the duals `d` was last priced against
    std::vector<double> d;     // per column; valid while it may enter
                               // and is nonbasic
  };

  static bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  bool improving(std::size_t j, double d) const {
    return at_upper_[j] ? d > tol_ : d < -tol_;
  }

  /// Begins a pricing pass over the columns `allow` admits that are not
  /// fixed at zero; the pass's first reprice() prices all of them that
  /// are nonbasic. The costs, the artificial bounds and at_upper_ change
  /// between passes, so nothing is carried over.
  template <class Allow>
  void start_pricing(const Allow& allow) {
    for (int j : cands_) cand_pos_[j] = -1;
    cands_.clear();
    for (int j : stale_) is_stale_[j] = 0;
    stale_.clear();
    for (std::size_t j = 0; j < cols_; ++j) {
      may_enter_[j] = allow(j) && !(ub_[j] <= tol_);
      if (may_enter_[j] && !basic_[j]) mark_stale(static_cast<int>(j));
    }
  }

  /// Queues column `j` for repricing and a candidate refresh.
  void mark_stale(int j) {
    if (is_stale_[j]) return;
    is_stale_[j] = 1;
    stale_.push_back(j);
  }

  /// Lists or unlists column `j` as an entering candidate (swap-remove,
  /// so cands_ has no order).
  void set_candidate(int j, bool in) {
    if (in == (cand_pos_[j] >= 0)) return;
    if (in) {
      cand_pos_[j] = static_cast<int>(cands_.size());
      cands_.push_back(j);
      return;
    }
    const int last = cands_.back();
    cands_[cand_pos_[j]] = last;
    cand_pos_[last] = cand_pos_[j];
    cands_.pop_back();
    cand_pos_[j] = -1;
  }

  /// BTRANs the duals of every `ps`, reprices the columns whose reduced
  /// costs they can have moved (none to compare against on the pass's
  /// `first` call) plus the queued ones, and refreshes their candidacy
  /// with `is_candidate`.
  template <class IsCandidate>
  void reprice(std::span<Prices> ps, bool first,
               const IsCandidate& is_candidate) {
    for (Prices& p : ps) {
      basic_duals(p.cost, p.y);
      if (first) {
        p.seen = p.y;
        continue;
      }
      for (std::size_t r = 0; r < rows_; ++r) {
        if (same_bits(p.y[r], p.seen[r])) continue;
        p.seen[r] = p.y[r];
        for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
          const int j = row_col_[k];
          if (may_enter_[j] && !basic_[j]) mark_stale(j);
        }
      }
    }
    for (int j : stale_) {
      is_stale_[j] = 0;
      const bool priced = may_enter_[j] && !basic_[j];
      if (priced) {
        for (Prices& p : ps) {
          p.d[j] = p.cost[j] - column_dot(static_cast<std::size_t>(j), p.y);
        }
        stats_.priced += static_cast<std::int64_t>(ps.size());
      }
      set_candidate(j, priced && is_candidate(static_cast<std::size_t>(j)));
    }
    stale_.clear();
  }

  /// The entering column: Bland takes the lowest candidate, Dantzig the
  /// largest positive `score`, ties going to the lowest column — the
  /// column an ascending full scan picks. -1 when there is none.
  template <class Score>
  std::ptrdiff_t choose(bool bland, const Score& score) const {
    std::ptrdiff_t enter = -1;
    double best = 0.0;
    for (int j : cands_) {
      if (bland) {
        if (enter < 0 || j < enter) enter = j;
        continue;
      }
      const double sc = score(static_cast<std::size_t>(j));
      if (sc > best || (sc == best && enter >= 0 && j < enter)) {
        best = sc;
        enter = j;
      }
    }
    return enter;
  }

  /// Debug cross-check of a pricing pass: reprices every column from
  /// scratch and returns whether each cached reduced cost has the fresh
  /// bits, the candidate list is exact and `enter` is the column an
  /// ascending full scan picks.
  template <class IsCandidate, class Score>
  bool matches_full_scan(std::span<const Prices> ps,
                         const IsCandidate& is_candidate, const Score& score,
                         bool bland, std::ptrdiff_t enter) const {
    std::ptrdiff_t pick = -1;
    double best = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      const bool listed = cand_pos_[j] >= 0;
      if (!may_enter_[j] || basic_[j]) {
        if (listed) return false;
        continue;
      }
      for (const Prices& p : ps) {
        if (!same_bits(p.cost[j] - column_dot(j, p.y), p.d[j])) {
          return false;
        }
      }
      const bool cand = is_candidate(j);
      if (cand != listed) return false;
      if (!cand || (bland && pick >= 0)) continue;
      const double sc = score(j);
      if (bland || sc > best) {
        best = sc;
        pick = static_cast<std::ptrdiff_t>(j);
      }
    }
    return pick == enter;
  }

  template <class Allow>
  Status iterate(const std::vector<double>& cost, const Allow& allow) {
    start_pricing(allow);
    Prices p(cost, rows_, cols_);
    const std::span<Prices> ps(&p, 1);
    const auto is_candidate = [&](std::size_t j) {
      return improving(j, p.d[j]);
    };
    const auto score = [&](std::size_t j) { return std::abs(p.d[j]); };
    for (bool first = true;; first = false) {
      util::poll_cancel(cancel_);
      if (iterations_ >= max_iterations_) return Status::kIterLimit;
      if (!use_bland_ && iterations_ >= bland_after_) use_bland_ = true;
      refactorize_if_due();

      reprice(ps, first, is_candidate);
      const std::ptrdiff_t enter = choose(use_bland_, score);
      NAT_DCHECK(matches_full_scan(ps, is_candidate, score, use_bland_, enter));
      if (enter < 0) return Status::kOptimal;

      const std::size_t j = static_cast<std::size_t>(enter);
      switch (pivot_step(j, at_upper_[j])) {
        case PivotOutcome::kUnbounded:
          return Status::kUnbounded;
        case PivotOutcome::kPivoted:
        case PivotOutcome::kFlipped:
        case PivotOutcome::kRetry:
          continue;
      }
    }
  }

  Status phase1() {
    std::vector<double> cost1(cols_, 0.0);
    bool any_art = false;
    for (std::size_t j = art_begin_; j < cols_; ++j) {
      cost1[j] = 1.0;
      any_art = true;
    }
    if (!any_art) return Status::kOptimal;  // slack basis is feasible
    Status st = iterate(cost1, [](std::size_t) { return true; });
    if (st != Status::kOptimal) return st;
    double p1 = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (static_cast<std::size_t>(basis_[r]) >= art_begin_) {
        p1 += std::max(0.0, beta_[r]);
      }
    }
    for (std::size_t j = art_begin_; j < cols_; ++j) {
      if (!basic_[j] && at_upper_[j]) p1 += ub_[j];
    }
    if (p1 > feas_tol_) return Status::kInfeasible;
    return Status::kOptimal;
  }

  Status phase2() {
    // Artificials are pinned to zero instead of being driven out: a
    // basic artificial (redundant row) stays at level 0 forever — the
    // ratio test blocks any move that would change it, and the entering
    // filter keeps nonbasic ones out. No row deletion is needed in
    // revised form.
    for (std::size_t j = art_begin_; j < cols_; ++j) {
      ub_[j] = 0.0;
      at_upper_[j] = false;
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      if (static_cast<std::size_t>(basis_[r]) >= art_begin_ &&
          std::abs(beta_[r]) <= feas_tol_) {
        beta_[r] = 0.0;
      }
    }
    const std::size_t ab = art_begin_;
    return iterate(cost_, [ab](std::size_t j) { return j < ab; });
  }

  // --- warm start ----------------------------------------------------------

  /// Restores the pristine slack/artificial starting basis (and the
  /// artificial upper bounds that a warm attempt pinned), so the cold
  /// two-phase path can run after a failed import.
  void reset_to_initial_basis() {
    etas_.clear();
    eta_nnz_ = 0;
    factor_nnz_ = 0;
    pivots_since_refactor_ = 0;
    moved_since_refactor_ = false;
    basis_ = initial_basis_;
    std::fill(basic_.begin(), basic_.end(), false);
    for (int j : basis_) basic_[j] = true;
    std::fill(at_upper_.begin(), at_upper_.end(), false);
    for (std::size_t j = art_begin_; j < cols_; ++j) ub_[j] = kInfU;
    beta_ = b_;
  }

  /// Factorizes the requested structural basis columns, dropping any
  /// that turn out linearly dependent (counted in `drops`) and
  /// completing the basis with each uncovered row's slack/artificial.
  /// Returns false when no nonsingular completion exists. Unlike
  /// refactorize() it peels no row singletons: warm imports serve small
  /// session groups, where fill costs little, and the plain
  /// sparsest-first order fixes which columns a rank-deficient hint
  /// drops.
  bool import_factorize(const std::vector<int>& want, int* drops) {
    begin_factorization();
    const std::vector<int> order = sparsest_first(want);
    std::fill(basic_.begin(), basic_.end(), false);
    std::fill(basis_.begin(), basis_.end(), -1);

    std::size_t assigned = 0;
    auto place = [&](int j) -> bool {
      const std::ptrdiff_t prow = place_column(j);
      if (prow < 0) return false;
      basis_[prow] = j;
      basic_[j] = true;
      ++assigned;
      return true;
    };

    for (int j : order) {
      if (assigned == rows_ || !place(j)) ++*drops;
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      if (row_eta_[r] >= 0) continue;
      // The row's own logical column usually pivots at row r, but the
      // etas accumulated so far can move or cancel it; try the slack,
      // then the artificial, and give up (cold fallback) if neither
      // completes the factorization.
      bool filled = false;
      for (int j : {slack_col_[r], art_col_[r]}) {
        if (j < 0 || basic_[j]) continue;
        if (place(j)) {
          filled = true;
          break;
        }
      }
      if (!filled) return false;
    }
    end_factorization();
    return assigned == rows_;
  }

  /// Bounded dual simplex: drives basic values back inside their
  /// bounds after an import whose rhs/bounds drifted from the exporting
  /// model (window edits). Returns false on a stall, an iteration cap or
  /// a tiny pivot on a fresh factorization — the caller then
  /// cold-solves, so this phase never has to handle pathological bases
  /// gracefully, only cheaply.
  bool dual_phase() {
    const std::int64_t cap = 4 * static_cast<std::int64_t>(rows_ + cols_) + 200;
    std::int64_t steps = 0;
    std::vector<double> duals(rows_, 0.0), rho(rows_, 0.0);
    for (;;) {
      util::poll_cancel(cancel_);
      if (steps++ >= cap || iterations_ >= max_iterations_) return false;
      refactorize_if_due();

      // Most violated basic variable leaves.
      std::ptrdiff_t lrow = -1;
      double viol = feas_tol_;
      bool upper_viol = false;
      for (std::size_t r = 0; r < rows_; ++r) {
        if (-beta_[r] > viol) {
          viol = -beta_[r];
          lrow = static_cast<std::ptrdiff_t>(r);
          upper_viol = false;
        }
        const double u = ub_[basis_[r]];
        if (std::isfinite(u) && beta_[r] - u > viol) {
          viol = beta_[r] - u;
          lrow = static_cast<std::ptrdiff_t>(r);
          upper_viol = true;
        }
      }
      if (lrow < 0) return true;  // primal feasible

      basic_duals(cost_, duals);
      std::fill(rho.begin(), rho.end(), 0.0);
      rho[lrow] = 1.0;
      btran(rho);

      // Dual ratio test over the pivot row; sigma flips the row so a
      // lower violation and an upper violation share one rule. Ties go
      // to the smallest column (deterministic, Bland-compatible).
      const double sigma = upper_viol ? -1.0 : 1.0;
      std::ptrdiff_t enter = -1;
      double best_ratio = kInfU;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (basic_[j] || ub_[j] <= tol_) continue;
        const double a = sigma * column_dot(j, rho);
        double ratio;
        if (!at_upper_[j] && a < -tol_) {
          const double d = cost_[j] - column_dot(j, duals);
          ratio = std::max(d, 0.0) / (-a);
        } else if (at_upper_[j] && a > tol_) {
          const double d = cost_[j] - column_dot(j, duals);
          ratio = std::max(-d, 0.0) / a;
        } else {
          continue;
        }
        if (ratio < best_ratio - 1e-12) {
          best_ratio = ratio;
          enter = static_cast<std::ptrdiff_t>(j);
        }
      }
      if (enter < 0) return false;  // dual unbounded or stuck

      const std::size_t j = static_cast<std::size_t>(enter);
      load_column(j, work_);
      ftran(work_);
      const double piv = work_[static_cast<std::size_t>(lrow)];
      if (std::abs(piv) < kUnstablePivot) {
        // Re-invert once if pivots since the last factorization may
        // have made the eta file stale. On a fresh factorization the
        // retry would pick the same row and column again, so the warm
        // attempt ends and the cold path runs.
        if (moved_since_refactor_) {
          refactorize();
          continue;
        }
        return false;
      }

      // Entering deviation from its resting bound; the leaving
      // variable lands exactly on the bound it violated.
      const double target =
          upper_viol ? ub_[basis_[static_cast<std::size_t>(lrow)]] : 0.0;
      const double delta = (beta_[static_cast<std::size_t>(lrow)] - target) /
                           piv;
      gather_nonzeros();
      update_beta(delta);
      const int leaving = basis_[static_cast<std::size_t>(lrow)];
      basic_[leaving] = false;
      at_upper_[leaving] = upper_viol;
      append_eta(static_cast<std::size_t>(lrow));
      basis_[static_cast<std::size_t>(lrow)] = static_cast<int>(j);
      basic_[j] = true;
      const double base =
          at_upper_[j] && std::isfinite(ub_[j]) ? ub_[j] : 0.0;
      beta_[static_cast<std::size_t>(lrow)] = base + delta;
      at_upper_[j] = false;
      moved_since_refactor_ = true;
      ++iterations_;
      ++pivots_since_refactor_;
      ++stats_.dual_pivots;
    }
  }

  /// Warm path: import the hinted basis, restore primal feasibility
  /// with the dual phase, then finish with the regular primal phase 2.
  /// `clean` reports a drop-free import. Returns false when the cold
  /// path must run instead; `st_out` is only meaningful on true.
  bool try_warm(const Model& model, const Basis& hint, bool& clean,
                Status& st_out) {
    if (static_cast<int>(hint.variables.size()) != model.num_variables()) {
      return false;
    }
    std::vector<int> want;
    want.reserve(hint.variables.size());
    for (int i = 0; i < model.num_variables(); ++i) {
      const VarMap& vm = varmap_[i];
      switch (hint.variables[i]) {
        case VarStatus::kBasic:
          want.push_back(vm.col_pos);
          break;
        case VarStatus::kAtUpper:
          if (std::isfinite(ub_[vm.col_pos])) at_upper_[vm.col_pos] = true;
          break;
        case VarStatus::kAtLower:
          break;
      }
      // A free variable's negative split column stays nonbasic at
      // zero; the LPs this path serves have no free variables.
    }
    int drops = 0;
    if (!import_factorize(want, &drops)) return false;
    clean = drops == 0;

    // Phase-2 semantics from the start: artificials pinned at zero.
    // A basic artificial forced above zero by the import (the old
    // basis no longer spans this row's equality) is primal-infeasible
    // and the dual phase drives it out like any other bound violation.
    for (std::size_t j = art_begin_; j < cols_; ++j) {
      ub_[j] = 0.0;
      at_upper_[j] = false;
    }
    recompute_beta();
    for (std::size_t r = 0; r < rows_; ++r) {
      if (static_cast<std::size_t>(basis_[r]) >= art_begin_ &&
          std::abs(beta_[r]) <= feas_tol_) {
        beta_[r] = 0.0;
      }
    }
    if (!dual_phase()) return false;
    const std::size_t ab = art_begin_;
    const Status st = iterate(cost_, [ab](std::size_t j) { return j < ab; });
    if (st == Status::kIterLimit) return false;
    st_out = st;  // optimal, or a genuine unbounded ray from a
                  // feasible point
    return true;
  }

  /// Pivots across the optimal face to the vertex minimizing the fixed
  /// secondary objective c2 (entering candidates are restricted to
  /// zero-reduced-cost columns, so the primal objective is preserved).
  /// Warm and cold solves of one model therefore terminate at the same
  /// vertex, which is what makes incremental re-solves bit-identical
  /// downstream of the LP.
  void canonical_phase() {
    constexpr double kFaceTol = 1e-7;
    const std::int64_t budget =
        16 * static_cast<std::int64_t>(rows_ + cols_) + 400;
    const std::size_t ab = art_begin_;
    start_pricing([ab](std::size_t j) { return j < ab; });
    std::array<Prices, 2> prices{
        {Prices(cost_, rows_, cols_), Prices(c2_, rows_, cols_)}};
    Prices& primal = prices[0];
    Prices& secondary = prices[1];
    const std::span<Prices> ps(prices);
    // Candidates stay on the optimal face (|d| within kFaceTol) and
    // improve the secondary objective.
    const auto is_candidate = [&](std::size_t j) {
      return !(std::abs(primal.d[j]) > kFaceTol) &&
             improving(j, secondary.d[j]);
    };
    const auto score = [&](std::size_t j) {
      return std::abs(secondary.d[j]);
    };
    std::int64_t stall = 0;
    bool bland = false;
    for (std::int64_t it = 0; it < budget; ++it) {
      util::poll_cancel(cancel_);
      refactorize_if_due();
      reprice(ps, it == 0, is_candidate);
      const std::ptrdiff_t enter = choose(bland, score);
      NAT_DCHECK(matches_full_scan(ps, is_candidate, score, bland, enter));
      if (enter < 0) return;

      const std::size_t j = static_cast<std::size_t>(enter);
      switch (pivot_step(j, at_upper_[j])) {
        case PivotOutcome::kUnbounded:
          return;  // defensive: the face is bounded in these LPs
        case PivotOutcome::kPivoted:
        case PivotOutcome::kFlipped:
          ++stats_.canonical_pivots;
          if (++stall > 2 * static_cast<std::int64_t>(rows_ + cols_) + 100) {
            bland = true;  // anti-cycling on a degenerate face
          }
          break;
        case PivotOutcome::kRetry:
          break;
      }
    }
  }

  void export_to(const Model& model, Basis& out) const {
    out.variables.assign(model.num_variables(), VarStatus::kAtLower);
    for (int i = 0; i < model.num_variables(); ++i) {
      const VarMap& vm = varmap_[i];
      if (basic_[vm.col_pos] || (vm.col_neg >= 0 && basic_[vm.col_neg])) {
        out.variables[i] = VarStatus::kBasic;
      } else if (at_upper_[vm.col_pos]) {
        out.variables[i] = VarStatus::kAtUpper;
      }
    }
  }

  void extract(const Model& model, Solution& sol) {
    std::vector<double> xs(cols_, 0.0);
    for (std::size_t j = 0; j < cols_; ++j) {
      if (!basic_[j] && at_upper_[j] && std::isfinite(ub_[j])) xs[j] = ub_[j];
    }
    for (std::size_t r = 0; r < rows_; ++r) xs[basis_[r]] = beta_[r];
    sol.x.assign(model.num_variables(), 0.0);
    sol.objective = 0.0;
    for (int i = 0; i < model.num_variables(); ++i) {
      const VarMap& vm = varmap_[i];
      double v = vm.shift + xs[vm.col_pos];
      if (vm.col_neg >= 0) v -= xs[vm.col_neg];
      sol.x[i] = v;
      sol.objective += model.variable(i).objective * v;
    }
  }

  void flush_counters() const {
    static obs::Counter& c_solves = obs::counter("lp.sparse.solves");
    static obs::Counter& c_pivots = obs::counter("lp.sparse.pivots");
    static obs::Counter& c_flips = obs::counter("lp.sparse.bound_flips");
    static obs::Counter& c_degen = obs::counter("lp.sparse.degenerate");
    static obs::Counter& c_refac = obs::counter("lp.sparse.refactorizations");
    static obs::Counter& c_whit = obs::counter("lp.sparse.warm_hit");
    static obs::Counter& c_wrep = obs::counter("lp.sparse.warm_repair");
    static obs::Counter& c_cold = obs::counter("lp.sparse.cold_fallback");
    static obs::Counter& c_dual = obs::counter("lp.sparse.dual_pivots");
    static obs::Counter& c_canon = obs::counter("lp.sparse.canonical_pivots");
    static obs::Counter& c_priced = obs::counter("lp.sparse.priced");
    c_solves.add(1);
    c_pivots.add(stats_.pivots);
    c_flips.add(stats_.bound_flips);
    c_degen.add(stats_.degenerate);
    c_refac.add(stats_.refactorizations);
    c_priced.add(stats_.priced);
    // Warm counters are added even when zero so they register on the
    // first sparse solve and show up in every obs report (the golden
    // report-keys test relies on this).
    c_whit.add(stats_.warm_hit);
    c_wrep.add(stats_.warm_repair);
    c_cold.add(stats_.cold_fallback);
    c_dual.add(stats_.dual_pivots);
    c_canon.add(stats_.canonical_pivots);
  }

  // Standardized problem (CSC).
  std::vector<int> col_ptr_, col_row_;
  std::vector<double> col_val_;
  std::vector<int> slack_col_, art_col_;  // per row; -1 when absent
  std::vector<double> b_;                 // standardized rhs
  std::vector<double> ub_;                // per column; lower bound is 0
  std::vector<double> cost_;              // phase-2 costs
  std::vector<double> c2_;                // canonicalization weights
  std::vector<int> initial_basis_;        // pristine slack/artificial basis
  std::vector<VarMap> varmap_;
  std::size_t rows_ = 0, cols_ = 0, art_begin_ = 0;
  int structural_ = 0;

  std::vector<int> row_ptr_, row_col_;    // row-wise pattern (CSR)

  // Basis state.
  std::vector<Eta> etas_;
  std::size_t eta_nnz_ = 0;
  std::size_t factor_nnz_ = 0;  // eta_nnz_ right after the factorization
  std::int64_t pivots_since_refactor_ = 0;
  bool moved_since_refactor_ = false;  // a pivot or bound flip since then
  std::vector<int> basis_;
  std::vector<bool> basic_;
  std::vector<bool> at_upper_;
  std::vector<double> beta_;

  // Scratch. Within a factorization, between place_column calls, work_
  // and touched_ are all zero and touched_rows_/eta_heap_ are empty;
  // row_eta_ maps a row to the eta that pivoted on it in the current
  // factorization (-1: not yet assigned).
  std::vector<double> work_;
  std::vector<char> touched_;
  std::vector<int> touched_rows_, eta_heap_, row_eta_;
  std::vector<int> nz_;  // nonzero rows of work_ after a pivot's FTRAN

  // Pricing pass (see "pricing" above). may_enter_ marks the columns
  // the pass admits; cands_ lists the entering candidates in no order,
  // cand_pos_ gives a column's slot in it (-1: not listed); stale_ holds
  // the columns to reprice at the next iteration, flagged in is_stale_.
  std::vector<char> may_enter_, is_stale_;
  std::vector<int> cands_, cand_pos_, stale_;

  double tol_ = 1e-9, feas_tol_ = 1e-7;
  std::int64_t iterations_ = 0, max_iterations_ = 0, bland_after_ = 0;
  bool use_bland_ = false;
  const util::CancelToken* cancel_ = nullptr;
  SparseStats stats_;
};

}  // namespace

Solution solve_sparse(const Model& model, const SolveOptions& options,
                      SparseStats* stats) {
  SparseSimplex solver;
  return solver.run(model, options, WarmOptions{}, stats);
}

Solution solve_sparse_warm(const Model& model, const SolveOptions& options,
                           const WarmOptions& warm, SparseStats* stats) {
  SparseSimplex solver;
  return solver.run(model, options, warm, stats);
}

}  // namespace nat::lp
