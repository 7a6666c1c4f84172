#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace nat::lp {

int Model::add_variable(double lower, double upper, double objective) {
  const int index = num_variables();
  NAT_CHECK_MSG(lower <= upper, "variable " << index << ": lower " << lower
                                            << " > upper " << upper);
  NAT_CHECK_MSG(!std::isnan(lower) && !std::isnan(upper) &&
                    std::isfinite(objective),
                "variable " << index << ": bad bounds/objective");
  vars_.push_back(Variable{lower, upper, objective});
  return index;
}

void Model::set_objective(int var, double coeff) {
  NAT_CHECK(var >= 0 && var < num_variables());
  NAT_CHECK(std::isfinite(coeff));
  vars_[var].objective = coeff;
}

void Model::set_variable_bounds(int var, double lower, double upper) {
  NAT_CHECK(var >= 0 && var < num_variables());
  NAT_CHECK_MSG(lower <= upper, "set_variable_bounds: lower " << lower
                                    << " > upper " << upper);
  NAT_CHECK(!std::isnan(lower) && !std::isnan(upper));
  vars_[var].lower = lower;
  vars_[var].upper = upper;
}

int Model::add_row(Sense sense, double rhs,
                   std::vector<std::pair<int, double>> coeffs) {
  const int index = num_rows();
  NAT_CHECK_MSG(std::isfinite(rhs), "row " << index << ": non-finite rhs");
  for (const auto& [var, coeff] : coeffs) {
    NAT_CHECK_MSG(var >= 0 && var < num_variables(),
                  "row " << index << ": bad variable index " << var);
    NAT_CHECK_MSG(std::isfinite(coeff),
                  "row " << index << ": non-finite coefficient");
  }
  rows_.push_back(Row{sense, rhs, std::move(coeffs)});
  return index;
}

double Model::objective_value(const std::vector<double>& x) const {
  NAT_CHECK(static_cast<int>(x.size()) == num_variables());
  double obj = 0.0;
  for (int i = 0; i < num_variables(); ++i) obj += vars_[i].objective * x[i];
  return obj;
}

double Model::max_violation(const std::vector<double>& x) const {
  NAT_CHECK(static_cast<int>(x.size()) == num_variables());
  double viol = 0.0;
  for (int i = 0; i < num_variables(); ++i) {
    viol = std::max(viol, vars_[i].lower - x[i]);
    if (std::isfinite(vars_[i].upper)) viol = std::max(viol, x[i] - vars_[i].upper);
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.coeffs) lhs += coeff * x[var];
    switch (row.sense) {
      case Sense::kLe: viol = std::max(viol, lhs - row.rhs); break;
      case Sense::kGe: viol = std::max(viol, row.rhs - lhs); break;
      case Sense::kEq: viol = std::max(viol, std::abs(lhs - row.rhs)); break;
    }
  }
  return viol;
}

}  // namespace nat::lp
