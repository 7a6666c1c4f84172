// Linear-program model builder (minimization).
//
// A Model is a plain description: variables with bounds and objective
// coefficients, plus linear rows with a sense and right-hand side. The
// two solver backends (dense floating-point simplex and exact rational
// simplex) both consume this representation. All LPs in this
// repository have integer input data, so double coefficients are exact
// and the rational backend can recover them losslessly.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace nat::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kLe, kGe, kEq };

struct Variable {
  double lower = 0.0;
  double upper = kInf;
  double objective = 0.0;
};

struct Row {
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  // (variable index, coefficient); indices must be valid, coefficients
  // may repeat a variable (they are summed during standardization).
  std::vector<std::pair<int, double>> coeffs;
};

class Model {
 public:
  /// Adds a variable and returns its index.
  int add_variable(double lower = 0.0, double upper = kInf,
                   double objective = 0.0);

  /// Sets (overwrites) the objective coefficient of a variable.
  void set_objective(int var, double coeff);

  /// Tightens/overwrites a variable's bounds (used by branch-and-bound
  /// to branch on fractional variables without rebuilding the model).
  void set_variable_bounds(int var, double lower, double upper);

  /// Adds a row and returns its index.
  int add_row(Sense sense, double rhs,
              std::vector<std::pair<int, double>> coeffs);

  int num_variables() const { return static_cast<int>(vars_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  const Variable& variable(int i) const { return vars_.at(i); }
  const Row& row(int i) const { return rows_.at(i); }
  const std::vector<Variable>& variables() const { return vars_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Evaluates the objective at a point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Maximum violation of any row/bound at a point (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
};

}  // namespace nat::lp
