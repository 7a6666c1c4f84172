// bench_lp — the sparse revised simplex against the dense tableau on
// the repository's real LP families.
//
// For each cell, the same set of models is solved with the dense
// two-phase tableau (lp::solve, the check oracle) and the sparse
// revised simplex (lp::solve_sparse, the backend every LP hot path
// uses). Objectives are asserted to agree within 1e-9 relative per
// model; per-backend wall-clock plus the sparse backend's deterministic
// pivot / bound-flip / refactorization totals are recorded to
// BENCH_lp.json (--out) for the CI perf gate (tools/perf_gate.py,
// docs/PERFORMANCE.md).
//
// Model families:
//  * strong LPs of contended instances — fractional, ceiling-heavy,
//    the solve_nested hot path;
//  * strong LPs of deep forests (binary_nest / staircase) — many
//    nodes, extreme sparsity, where the revised simplex should win big;
//  * time-indexed CW LPs — wide dense-ish rows, the stress case for
//    sparse pricing.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "activetime/lp_relaxation.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "activetime/tree.hpp"
#include "bench/common.hpp"
#include "io/table.hpp"
#include "lp/sparse_simplex.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

using namespace nat;

namespace {

constexpr double kAgreeTol = 1e-9;

at::LaminarForest make_forest(const at::Instance& inst) {
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  return f;
}

struct Cell {
  std::string name;
  std::vector<lp::Model> models;
};

std::vector<Cell> build_cells(bool smoke) {
  std::vector<Cell> cells;

  {
    Cell cell;
    cell.name = "strong LP, contended (g=6)";
    const int n = smoke ? 4 : 24;
    for (int id = 0; id < n; ++id) {
      cell.models.push_back(
          at::build_strong_lp(make_forest(bench::contended_instance(id, 6)))
              .model);
    }
    cells.push_back(std::move(cell));
  }
  {
    Cell cell;
    cell.name = "strong LP, loose laminar (g=3)";
    const int n = smoke ? 4 : 24;
    for (int id = 0; id < n; ++id) {
      cell.models.push_back(
          at::build_strong_lp(make_forest(bench::loose_instance(id, 3)))
              .model);
    }
    cells.push_back(std::move(cell));
  }
  {
    Cell cell;
    cell.name = "strong LP, deep forests";
    // Smoke stays big enough that the cell's seconds clear the perf
    // gate's absolute noise slack — it's the cell whose wall-clock the
    // gate (and the injected-slowdown self-test) actually bites on.
    const int depth = smoke ? 5 : 6;
    const int levels = smoke ? 16 : 24;
    cell.models.push_back(
        at::build_strong_lp(make_forest(at::gen::binary_nest(4, depth)))
            .model);
    cell.models.push_back(
        at::build_strong_lp(make_forest(at::gen::staircase(3, levels, 2)))
            .model);
    cells.push_back(std::move(cell));
  }
  {
    Cell cell;
    cell.name = "time-indexed CW LP (g=4)";
    const int n = smoke ? 2 : 8;
    for (int id = 0; id < n; ++id) {
      cell.models.push_back(
          at::build_time_indexed_lp(bench::contended_instance(id, 4),
                                    at::CeilingIntervals::kEventAligned)
              .model);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_lp.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") smoke = true;
    if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
  }

  obs::Json doc = obs::Json::object();
  doc["schema"] = "nat-bench-lp-v1";
  doc["smoke"] = smoke;

  std::cout << "# bench_lp — dense tableau vs sparse revised simplex\n\n"
            << "Same models through both floating-point solvers;"
               " objectives asserted\nidentical to "
            << kAgreeTol << " relative. Pivot counts are deterministic.\n\n";

  io::Table table({"cell", "models", "rows", "cols", "dense s", "sparse s",
                   "speedup", "pivots", "refactor"});
  obs::Json cells_json = obs::Json::array();

  for (Cell& cell : build_cells(smoke)) {
    std::int64_t rows = 0, cols = 0;
    for (const lp::Model& m : cell.models) {
      rows += m.num_rows();
      cols += m.num_variables();
    }

    std::vector<lp::Solution> dense_sols;
    util::Stopwatch dense_watch;
    for (const lp::Model& m : cell.models) dense_sols.push_back(lp::solve(m));
    const double dense_s = dense_watch.seconds();

    lp::SparseStats stats;  // cell totals (solve_sparse reports per solve)
    std::int64_t dense_iterations = 0;
    util::Stopwatch sparse_watch;
    for (std::size_t k = 0; k < cell.models.size(); ++k) {
      lp::SparseStats one;
      lp::Solution s = lp::solve_sparse(cell.models[k], {}, &one);
      stats.pivots += one.pivots;
      stats.bound_flips += one.bound_flips;
      stats.degenerate += one.degenerate;
      stats.refactorizations += one.refactorizations;
      const lp::Solution& d = dense_sols[k];
      NAT_CHECK_MSG(s.status == d.status,
                    cell.name << " #" << k << ": status mismatch");
      if (d.status == lp::Status::kOptimal) {
        NAT_CHECK_MSG(
            std::abs(s.objective - d.objective) <=
                kAgreeTol * (1.0 + std::abs(d.objective)),
            cell.name << " #" << k << ": sparse=" << s.objective
                      << " dense=" << d.objective);
      }
    }
    const double sparse_s = sparse_watch.seconds();
    for (const lp::Solution& d : dense_sols) dense_iterations += d.iterations;

    const double speedup = sparse_s > 0 ? dense_s / sparse_s : 0.0;
    table.add_row(
        {cell.name, io::Table::num(std::int64_t(cell.models.size())),
         io::Table::num(rows), io::Table::num(cols),
         io::Table::num(dense_s, 4), io::Table::num(sparse_s, 4),
         io::Table::num(speedup, 2),
         io::Table::num(stats.pivots), io::Table::num(stats.refactorizations)});

    obs::Json j = obs::Json::object();
    j["name"] = cell.name;
    j["models"] = std::int64_t(cell.models.size());
    j["rows"] = rows;
    j["cols"] = cols;
    j["dense_seconds"] = dense_s;
    j["sparse_seconds"] = sparse_s;
    j["speedup_vs_dense"] = speedup;
    j["dense_iterations"] = dense_iterations;
    j["sparse_pivots"] = stats.pivots;
    j["sparse_bound_flips"] = stats.bound_flips;
    j["sparse_refactorizations"] = stats.refactorizations;
    cells_json.push_back(std::move(j));
  }
  table.print_markdown(std::cout);
  doc["lp_cells"] = std::move(cells_json);

  bench::write_bench_json(doc, out_path);
  return 0;
}
