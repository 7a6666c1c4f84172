#include "service/batch.hpp"

#include <atomic>
#include <mutex>
#include <utility>

#include "activetime/robust.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "io/serialize.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "service/jsonl.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace nat::service {

const char* to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kSolved: return "solved";
    case CellStatus::kError: return "error";
    case CellStatus::kTimeout: return "timeout";
    case CellStatus::kSkipped: return "skipped";
  }
  return "?";
}

bool parse_job_row(const obs::Json& row, at::Job* job) {
  bool ok = row.is_array() && (row.size() == 3 || row.size() == 5);
  for (std::size_t f = 0; ok && f < row.size(); ++f) {
    ok = row.at(f).is_number();
  }
  if (!ok) return false;
  job->release = row.at(0).as_int();
  job->deadline = row.at(1).as_int();
  job->processing = row.at(2).as_int();
  if (row.size() == 5) {
    job->processing_lo = row.at(3).as_int();
    job->processing_hi = row.at(4).as_int();
  }
  return true;
}

at::Instance parse_json_instance(const std::string& text) {
  const obs::Json j = obs::Json::parse(text);
  NAT_CHECK_MSG(j.is_object(), "cell payload is not a JSON object");
  const obs::Json* g = j.find("g");
  NAT_CHECK_MSG(g != nullptr && g->is_number(),
                "cell payload: missing numeric \"g\"");
  const obs::Json* jobs = j.find("jobs");
  NAT_CHECK_MSG(jobs != nullptr && jobs->is_array(),
                "cell payload: missing \"jobs\" array");
  // Same cap as io::read_instance: a hostile payload must not drive
  // allocation (the JSON is already parsed, so this bounds Job storage).
  NAT_CHECK_MSG(jobs->size() <= 10'000'000,
                "cell payload: job count " << jobs->size()
                                           << " exceeds the cap");
  at::Instance instance;
  instance.g = g->as_int();
  instance.jobs.reserve(jobs->size());
  for (std::size_t k = 0; k < jobs->size(); ++k) {
    at::Job job;
    const bool ok = parse_job_row(jobs->at(k), &job);
    NAT_CHECK_MSG(ok, "cell payload: job "
                          << k
                          << " must be [release, deadline, processing] or "
                             "[release, deadline, processing, p_lo, p_hi]");
    instance.jobs.push_back(job);
  }
  return instance;
}

obs::Json cell_record(const CellResult& cell) {
  obs::Json j = obs::Json::object();
  j["index"] = static_cast<std::int64_t>(cell.index);
  j["id"] = cell.id;
  j["status"] = to_string(cell.status);
  if (!cell.solver.empty()) j["solver"] = cell.solver;
  if (!cell.backend.empty()) j["backend"] = cell.backend;
  if (!cell.failure_class.empty()) j["failure_class"] = cell.failure_class;
  if (!cell.error.empty()) j["error"] = cell.error;
  if (cell.jobs >= 0) j["jobs"] = static_cast<std::int64_t>(cell.jobs);
  if (cell.active_slots >= 0) j["active_slots"] = cell.active_slots;
  if (cell.lp_value >= 0.0) j["lp_value"] = cell.lp_value;
  if (cell.robust_hi >= 0) {
    j["robust_lo"] = cell.robust_lo;
    j["robust_hi"] = cell.robust_hi;
  }
  j["wall_ms"] = static_cast<double>(cell.wall_ns) / 1e6;
  return j;
}

std::string cell_to_json(const CellResult& cell) {
  return cell_record(cell).dump();
}

namespace {

/// Fills the failure fields of `r` and stamps the wall clock.
CellResult& fail(CellResult& r, CellStatus status, std::string failure_class,
                 std::string error, const util::Stopwatch& sw) {
  r.status = status;
  r.failure_class = std::move(failure_class);
  r.error = std::move(error);
  r.wall_ns = sw.nanos();
  return r;
}

/// solve_batch's per-cell wrapper: the keep_going stop check in front
/// of the shared fault boundary. Never throws.
CellResult run_cell(const BatchItem& item, int index,
                    const BatchOptions& options,
                    const std::atomic<bool>* stop) {
  if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
    const util::Stopwatch sw;
    CellResult r;
    r.index = index;
    r.id = item.id.empty() ? "cell-" + std::to_string(index) : item.id;
    return fail(r, CellStatus::kSkipped, "skipped",
                "skipped: an earlier cell failed with keep_going off", sw);
  }
  return solve_cell(item, index, options);
}

}  // namespace

CellResult solve_cell(const BatchItem& item, int index,
                      const BatchOptions& options,
                      const util::CancelToken* cancel) {
  const util::Stopwatch sw;
  obs::Span span("service.cell");
  CellResult r;
  r.index = index;
  r.id = item.id.empty() ? "cell-" + std::to_string(index) : item.id;

  util::CancelToken own_token;
  if (cancel == nullptr && options.timeout_ms > 0) {
    own_token.set_timeout_ms(options.timeout_ms);
    cancel = &own_token;
  }

  at::Instance instance;
  try {
    instance = item.format == BatchItem::Format::kJson
                   ? parse_json_instance(item.text)
                   : io::instance_from_string(item.text);
  } catch (const std::exception& e) {
    return fail(r, CellStatus::kError, "input:parse", e.what(), sw);
  }
  try {
    instance.validate();
  } catch (const std::exception& e) {
    return fail(r, CellStatus::kError, "input:validate", e.what(), sw);
  }
  r.jobs = instance.num_jobs();

  const std::string& solver = options.solver;
  r.solver = solver;
  if (solver == "auto") {
    // Provisional tag so failure records name the dispatched path; a
    // successful solve overwrites it with the backend that actually ran.
    r.solver = instance.is_laminar() ? "nested" : "general";
  }
  if ((solver == "nested" || solver == "exact") && !instance.is_laminar()) {
    return fail(r, CellStatus::kError, "input:laminar",
                "the " + solver + " solver requires nested (laminar) windows",
                sw);
  }
  if (options.robust && solver != "auto") {
    return fail(r, CellStatus::kError, "input:solver",
                "robust mode requires solver \"auto\" (got \"" + solver +
                    "\")",
                sw);
  }

  try {
    if (options.robust) {
      at::RobustSolverOptions robust;
      robust.cancel = cancel;
      const at::RobustSolveResult res = at::solve_robust(instance, robust);
      r.solver = to_string(res.nominal.backend);
      r.backend = to_string(res.nominal.backend);
      r.active_slots = res.nominal.active_slots;
      r.lp_value = res.nominal.lp_value;
      r.robust_lo = res.robust_lo;
      r.robust_hi = res.robust_hi;
    } else if (solver == "auto") {
      at::ActiveTimeOptions dispatch;
      dispatch.cancel = cancel;
      const at::ActiveTimeResult res = at::solve_active_time(instance,
                                                             dispatch);
      r.solver = to_string(res.backend);  // the path auto resolved to
      r.backend = to_string(res.backend);
      r.active_slots = res.active_slots;
      r.lp_value = res.lp_value;
    } else if (solver == "nested") {
      at::NestedSolverOptions nested;
      nested.cancel = cancel;
      const at::NestedSolveResult res = at::solve_nested(instance, nested);
      r.backend = "nested";
      r.active_slots = res.active_slots;
      r.lp_value = res.lp_value;
    } else if (solver == "general") {
      at::GeneralSolverOptions general;
      general.cancel = cancel;
      const at::GeneralSolveResult res = at::solve_general(instance, general);
      r.backend = res.lp_failed ? "greedy" : "general";
      r.active_slots = res.active_slots;
      r.lp_value = res.lp_failed ? -1.0 : res.lp_value;
    } else if (solver == "greedy") {
      const auto res = at::baselines::greedy_minimal_feasible(
          instance, at::baselines::DeactivationOrder::kRightToLeft, 0, cancel);
      r.backend = "greedy";
      r.active_slots = res.active_slots;
    } else if (solver == "exact") {
      // ExactOptions' default node budget (20M) bounds the search.
      at::baselines::ExactOptions exact;
      exact.cancel = cancel;
      const auto res = at::baselines::exact_opt_laminar(instance, exact);
      if (!res.has_value()) {
        return fail(r, CellStatus::kError, "exact:node_budget",
                    "branch-and-bound node budget exhausted", sw);
      }
      r.backend = "exact";
      r.active_slots = res->optimum;
    } else {
      return fail(r, CellStatus::kError, "input:solver",
                  "unknown solver \"" + solver + "\"", sw);
    }
  } catch (const util::CancelledError& e) {
    return fail(r, CellStatus::kTimeout, classify_cancelled(e.what()),
                e.what(), sw);
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    return fail(r, CellStatus::kError, classify_solver_failure(what), what,
                sw);
  } catch (const std::exception& e) {
    return fail(r, CellStatus::kError, "error:exception", e.what(), sw);
  }

  r.status = CellStatus::kSolved;
  r.wall_ns = sw.nanos();
  return r;
}

BatchReport solve_batch(const std::vector<BatchItem>& items,
                        const BatchOptions& options,
                        const CellCallback& on_cell) {
  NAT_CHECK_MSG(options.solver == "auto" || options.solver == "nested" ||
                    options.solver == "general" || options.solver == "greedy" ||
                    options.solver == "exact",
                "unknown batch solver \"" << options.solver << "\"");
  obs::Span span("service.batch");

  BatchReport report;
  report.cells.resize(items.size());
  if (items.empty()) return report;

  std::atomic<bool> stop{false};
  const std::atomic<bool>* stop_ptr = options.keep_going ? nullptr : &stop;
  std::mutex emit_mu;  // serializes the streaming callback

  util::ThreadPool pool(options.threads);
  util::parallel_for(
      pool, 0, items.size(),
      [&](std::size_t i) {
        CellResult cell =
            run_cell(items[i], static_cast<int>(i), options, stop_ptr);
        if (!options.keep_going && cell.status != CellStatus::kSolved &&
            cell.status != CellStatus::kSkipped) {
          stop.store(true, std::memory_order_relaxed);
        }
        if (on_cell) {
          std::lock_guard lk(emit_mu);
          on_cell(cell);
        }
        report.cells[i] = std::move(cell);
      },
      /*grain=*/1);

  for (const CellResult& cell : report.cells) {
    switch (cell.status) {
      case CellStatus::kSolved: ++report.solved; break;
      case CellStatus::kError: ++report.errors; break;
      case CellStatus::kTimeout: ++report.timeouts; break;
      case CellStatus::kSkipped: ++report.skipped; break;
    }
  }

  static obs::Counter& c_batches = obs::counter("at.service.batches");
  static obs::Counter& c_cells = obs::counter("at.service.cells");
  static obs::Counter& c_solved = obs::counter("at.service.solved");
  static obs::Counter& c_errors = obs::counter("at.service.errors");
  static obs::Counter& c_timeouts = obs::counter("at.service.timeouts");
  static obs::Counter& c_skipped = obs::counter("at.service.skipped");
  c_batches.add(1);
  c_cells.add(static_cast<std::int64_t>(items.size()));
  c_solved.add(report.solved);
  c_errors.add(report.errors);
  c_timeouts.add(report.timeouts);
  c_skipped.add(report.skipped);
  return report;
}

}  // namespace nat::service
