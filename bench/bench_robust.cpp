// bench_robust — the robust interval-time pipeline (docs/ROBUST.md)
// against the point solver it wraps.
//
// Three cell families:
//
//  * interval laminar / interval general: random_interval draws, each
//    solved twice — once as the stripped point instance through
//    solve_active_time, once with its [p_lo, p_hi] boxes through
//    solve_robust. The headline number is the overhead ratio
//    (robust wall / point wall): the robust pipeline adds a hi-corner
//    solve (whose precheck is the worst-case feasibility flow) and a
//    lo-corner LP on top of the nominal solve, so the ratio should sit
//    near 3 and is gated by the CI perf gate (tools/perf_gate.py,
//    DOC_CEILINGS) on any hardware. The sandwich LP(p_lo) <= ALG <=
//    robust_hi is asserted on every draw, as is bit-identity of the
//    nominal schedule with the point solve.
//  * degenerate point: point instances through solve_robust — the
//    degenerate path must be a transparent wrapper, so its overhead is
//    timed (and its bit-identity asserted) separately.
//
// Results land in BENCH_robust.json (--out): structural integers exact,
// seconds gated when the hardware stamp matches, overhead_ratio gated
// on any hardware.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "activetime/robust.hpp"
#include "activetime/solver.hpp"
#include "bench/common.hpp"
#include "io/table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace nat;

namespace {

at::Instance interval_instance(int id, bool laminar) {
  util::Rng knobs(11000 + id);
  at::gen::RandomIntervalParams params;
  params.laminar = laminar;
  params.interval_probability = 0.8;
  if (laminar) {
    params.laminar_params.g = knobs.uniform_int(2, 4);
    params.laminar_params.max_depth = 3;
    params.laminar_params.max_children = 3;
    params.laminar_params.max_processing = 4;
  } else {
    params.general_params.g = knobs.uniform_int(2, 4);
    params.general_params.jobs = static_cast<int>(knobs.uniform_int(8, 18));
    params.general_params.horizon = knobs.uniform_int(12, 28);
    params.general_params.max_length = knobs.uniform_int(4, 10);
    params.general_params.max_processing = knobs.uniform_int(1, 4);
  }
  util::Rng rng(800 + id);
  return at::gen::random_interval(params, rng);
}

at::Instance strip_intervals(at::Instance instance) {
  for (at::Job& job : instance.jobs) {
    job.processing_lo = 0;
    job.processing_hi = 0;
  }
  return instance;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_robust.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") smoke = true;
    if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
  }

  obs::Json doc = obs::Json::object();
  doc["schema"] = "nat-bench-robust-v1";
  doc["smoke"] = smoke;

  std::cout << "# bench_robust — interval-time certification vs the point"
               " solver\n\nOverhead of solve_robust (worst-case"
               " feasibility + lo-corner LP + hi-corner\nsolve) over the"
               " nominal point solve, and the width of the certified\n"
               "sandwich LP(p_lo) <= ALG <= robust_hi.\n\n";

  io::Table table({"cell", "instances", "jobs", "point s", "robust s",
                   "overhead", "avg width", "max width"});
  obs::Json cells_json = obs::Json::array();
  double total_point_s = 0.0;
  double total_robust_s = 0.0;

  struct Spec {
    std::string name;
    bool laminar;
    int count;
  };
  const std::vector<Spec> specs = {
      {"interval laminar", true, smoke ? 10 : 40},
      {"interval general", false, smoke ? 10 : 40},
  };
  for (const Spec& spec : specs) {
    std::int64_t jobs = 0;
    bench::RatioStats widths;  // (robust_hi - robust_lo) / max(1, ALG)

    // Point leg: the stripped instances through the plain dispatcher.
    util::Stopwatch point_watch;
    std::vector<at::ActiveTimeResult> point;
    point.reserve(static_cast<std::size_t>(spec.count));
    for (int id = 0; id < spec.count; ++id) {
      point.push_back(at::solve_active_time(
          strip_intervals(interval_instance(id, spec.laminar))));
    }
    const double point_s = point_watch.seconds();

    // Robust leg: the same draws with their boxes.
    util::Stopwatch robust_watch;
    for (int id = 0; id < spec.count; ++id) {
      const at::Instance instance = interval_instance(id, spec.laminar);
      jobs += instance.num_jobs();
      const at::RobustSolveResult res = at::solve_robust(instance);
      const at::ActiveTimeResult& p =
          point[static_cast<std::size_t>(id)];
      NAT_CHECK_MSG(res.nominal.schedule.assignment ==
                            p.schedule.assignment &&
                        res.nominal.active_slots == p.active_slots,
                    spec.name << ": nominal solve diverged from the point"
                                 " solver on id "
                              << id);
      NAT_CHECK_MSG(res.robust_lo <=
                            static_cast<double>(res.nominal.active_slots) +
                                1e-6 &&
                        res.nominal.active_slots <= res.robust_hi,
                    spec.name << ": sandwich violated on id " << id);
      widths.add(static_cast<double>(res.robust_hi) - res.robust_lo);
    }
    const double robust_s = robust_watch.seconds();
    total_point_s += point_s;
    total_robust_s += robust_s;
    const double overhead = robust_s / std::max(point_s, 1e-9);

    table.add_row({spec.name, io::Table::num(std::int64_t(spec.count)),
                   io::Table::num(jobs), io::Table::num(point_s, 4),
                   io::Table::num(robust_s, 4), io::Table::num(overhead, 2),
                   io::Table::num(widths.avg(), 2),
                   io::Table::num(widths.max, 2)});

    obs::Json j = obs::Json::object();
    j["name"] = spec.name;
    j["instances"] = static_cast<std::int64_t>(spec.count);
    j["jobs"] = jobs;
    j["point_seconds"] = point_s;
    j["robust_seconds"] = robust_s;
    j["overhead_ratio"] = overhead;
    j["avg_sandwich_width"] = widths.avg();
    j["max_sandwich_width"] = widths.max;
    cells_json.push_back(std::move(j));
  }

  // Degenerate path: point instances through solve_robust must be a
  // transparent (and cheap) wrapper around solve_active_time.
  {
    const int count = smoke ? 10 : 40;
    std::int64_t jobs = 0;
    util::Stopwatch point_watch;
    std::vector<at::ActiveTimeResult> point;
    point.reserve(static_cast<std::size_t>(count));
    for (int id = 0; id < count; ++id) {
      point.push_back(at::solve_active_time(bench::contended_instance(id, 3)));
    }
    const double point_s = point_watch.seconds();

    util::Stopwatch robust_watch;
    for (int id = 0; id < count; ++id) {
      const at::Instance instance = bench::contended_instance(id, 3);
      jobs += instance.num_jobs();
      const at::RobustSolveResult res = at::solve_robust(instance);
      const at::ActiveTimeResult& p = point[static_cast<std::size_t>(id)];
      NAT_CHECK_MSG(res.degenerate, "point instance missed the degenerate"
                                    " path on id "
                                        << id);
      NAT_CHECK_MSG(res.nominal.schedule.assignment ==
                            p.schedule.assignment &&
                        res.nominal.active_slots == p.active_slots &&
                        res.robust_hi == p.active_slots,
                    "degenerate robust solve diverged from the point solver"
                    " on id "
                        << id);
    }
    const double robust_s = robust_watch.seconds();
    const double overhead = robust_s / std::max(point_s, 1e-9);

    table.add_row({"degenerate point", io::Table::num(std::int64_t(count)),
                   io::Table::num(jobs), io::Table::num(point_s, 4),
                   io::Table::num(robust_s, 4), io::Table::num(overhead, 2),
                   "-", "-"});

    obs::Json j = obs::Json::object();
    j["name"] = "degenerate point";
    j["instances"] = static_cast<std::int64_t>(count);
    j["jobs"] = jobs;
    j["point_seconds"] = point_s;
    j["robust_seconds"] = robust_s;
    j["overhead_ratio"] = overhead;
    cells_json.push_back(std::move(j));
  }

  table.print_markdown(std::cout);
  doc["robust_cells"] = std::move(cells_json);
  // Headline: interval-cell overhead only (the degenerate path is a
  // separate contract — it must stay near 1 but is not the headline).
  const double overhead_ratio = total_robust_s / std::max(total_point_s, 1e-9);
  doc["overhead_ratio"] = overhead_ratio;
  std::cout << "\nrobust/point overhead ratio: " << overhead_ratio
            << " (nominal + hi solve + lo LP)\n";

  bench::write_bench_json(doc, out_path);
  return 0;
}
