// The traced run: replays a workload's inputs one request at a time.
//
// For every line it times, from outside, (1) the envelope parse the
// daemon does before queueing, (2) the surface call itself —
// service::solve_cell or service::SessionManager::process_line — and
// (3) the record serialization. It then runs the same payload through
// each layer's public function in pipeline order, timing every call:
//
//   parse_json_instance + validate  service.parse
//   Instance::is_laminar            activetime.dispatch
//   LaminarForest build+canonicalize activetime.tree
//   FeasibilityOracle precheck      activetime.oracle
//   build_strong_lp                 activetime.lp_relaxation
//   lp::solve_auto                  lp.solve
//   unpack+push_down+topmost        activetime.lp_transform
//   round_solution                  activetime.rounding
//   repair_open_counts              activetime.repair
//   schedule_with_counts+validate   activetime.extract
//   solve_general                   activetime.general
//   solve_robust minus its nominal  activetime.robust
//   SolverSession::apply            activetime.session
//
// "unattributed" is the surface call's time minus the layer times
// inside it. The layered result must equal what the surface call
// returned, and that must equal the reference outcome; any difference
// is a mismatch. Work counts come from return values and obs counter
// deltas read outside the timed calls. Everything runs on one pool
// worker, like the surfaces' own solver calls, so library code that
// parallelizes only outside pool workers takes the same path here.
#include <chrono>
#include <iterator>

#include "activetime/feasibility.hpp"
#include "activetime/general.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/lp_transform.hpp"
#include "activetime/oracle.hpp"
#include "activetime/robust.hpp"
#include "activetime/rounding.hpp"
#include "activetime/session.hpp"
#include "activetime/solver.hpp"
#include "activetime/tree.hpp"
#include "harness/bench.hpp"
#include "lp/backend.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "service/batch.hpp"
#include "service/jsonl.hpp"
#include "service/sessions.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nat::e2e {

const char* const kLayers[] = {
    "service.parse",           "activetime.dispatch",
    "activetime.tree",         "activetime.oracle",
    "activetime.lp_relaxation", "lp.solve",
    "activetime.lp_transform", "activetime.rounding",
    "activetime.repair",       "activetime.extract",
    "activetime.general",      "activetime.robust",
    "activetime.session",      "service.serialize",
    "unattributed",
};
const std::size_t kLayerCount = std::size(kLayers);

namespace {

using steady = std::chrono::steady_clock;

/// Cells of batch_large the traced run replays (each is ~0.1 s).
constexpr std::size_t kBatchReplayCells = 24;

/// Milliseconds since `t`; restarts `t`, so consecutive layer calls
/// are timed without gaps.
double lap(steady::time_point& t) {
  const steady::time_point now = steady::now();
  const double ms = std::chrono::duration<double, std::milli>(now - t).count();
  t = now;
  return ms;
}

/// Solver work counters, read around layered calls (never inside one).
struct Work {
  std::int64_t lp_solves = 0, pivots = 0, refactorizations = 0,
               bound_flips = 0, oracle_queries = 0, oracle_warm = 0;

  static Work now() {
    Work w;
    w.lp_solves = obs::counter("lp.sparse.solves").value();
    w.pivots = obs::counter("lp.sparse.pivots").value();
    w.refactorizations = obs::counter("lp.sparse.refactorizations").value();
    w.bound_flips = obs::counter("lp.sparse.bound_flips").value();
    w.oracle_queries = obs::counter("at.oracle.queries").value();
    w.oracle_warm = obs::counter("at.oracle.warm_queries").value();
    return w;
  }
};

/// One replayed line.
struct Sample {
  double envelope_ms = 0.0;   // daemon envelope parse, before the surface
  double surface_ms = 0.0;    // solve_cell / process_line
  double serialize_ms = 0.0;  // record build + dump
  std::map<std::string, double> self_ms;  // layers inside the surface call
  std::map<std::string, double> work;

  void add_work(const Work& before, const Work& after) {
    work["lp.solves"] +=
        static_cast<double>(after.lp_solves - before.lp_solves);
    work["lp.pivots"] += static_cast<double>(after.pivots - before.pivots);
    work["lp.refactorizations"] +=
        static_cast<double>(after.refactorizations - before.refactorizations);
    work["lp.bound_flips"] +=
        static_cast<double>(after.bound_flips - before.bound_flips);
    work["oracle.queries"] +=
        static_cast<double>(after.oracle_queries - before.oracle_queries);
    work["oracle.warm_queries"] +=
        static_cast<double>(after.oracle_warm - before.oracle_warm);
  }

  double layer_sum() const {
    double sum = 0.0;
    for (const auto& [layer, ms] : self_ms) sum += ms;
    return sum;
  }
};

void merge(LayerTrace& t, const Sample& s) {
  ++t.requests;
  for (const auto& [layer, ms] : s.self_ms) t.self_ms[layer] += ms;
  t.self_ms["service.parse"] += s.envelope_ms;
  t.self_ms["service.serialize"] += s.serialize_ms;
  t.self_ms["unattributed"] += s.surface_ms - s.layer_sum();
  t.total_ms += s.envelope_ms + s.surface_ms + s.serialize_ms;
  for (const auto& [key, v] : s.work) t.work[key] += v;
}

void mismatch(LayerTrace& t, const std::string& what) {
  ++t.mismatches;
  if (t.failures.size() < 8) t.failures.push_back(what);
}

Expected error(const std::string& failure_class) {
  Expected e;
  e.status = "error";
  e.failure_class = failure_class;
  return e;
}

Expected solved(const char* backend, std::int64_t active_slots,
                double lp_value, int jobs) {
  Expected e;
  e.backend = backend;
  e.active_slots = active_slots;
  e.lp_value = lp_value;
  e.jobs = jobs;
  return e;
}

/// An outcome in record form, so check_record compares it.
obs::Json as_record(const Expected& e) {
  obs::Json j = obs::Json::object();
  j["status"] = e.status;
  if (!e.failure_class.empty()) j["failure_class"] = e.failure_class;
  if (!e.backend.empty()) j["backend"] = e.backend;
  if (e.active_slots >= 0) j["active_slots"] = e.active_slots;
  if (e.lp_value >= 0.0) j["lp_value"] = e.lp_value;
  if (e.jobs >= 0) j["jobs"] = static_cast<std::int64_t>(e.jobs);
  if (e.robust_hi >= 0) {
    j["robust_lo"] = e.robust_lo;
    j["robust_hi"] = e.robust_hi;
  }
  return j;
}

/// The 9/5 pipeline of at::solve_nested (default options, verification
/// off), one layer call at a time.
Expected nested_layers(const at::Instance& inst, Sample& s) {
  steady::time_point t = steady::now();
  at::LaminarForest forest = at::LaminarForest::build(inst);
  forest.canonicalize();
  s.self_ms["activetime.tree"] += lap(t);

  at::FeasibilityOracle oracle(forest);
  std::vector<at::Time> full(static_cast<std::size_t>(forest.num_nodes()));
  for (int i = 0; i < forest.num_nodes(); ++i) {
    full[static_cast<std::size_t>(i)] = forest.node(i).length();
  }
  const bool feasible = oracle.feasible(full);
  s.self_ms["activetime.oracle"] += lap(t);
  s.work["tree.builds"] += 1;
  s.work["tree.nodes"] += forest.num_nodes();
  if (!feasible) return error("infeasible");

  t = steady::now();
  const at::StrongLp lp = at::build_strong_lp(forest);
  s.self_ms["activetime.lp_relaxation"] += lap(t);

  const lp::Solution sol = lp::solve_auto(lp.model);
  s.self_ms["lp.solve"] += lap(t);
  s.work["lp_relaxation.builds"] += 1;
  s.work["lp_relaxation.rows"] += lp.model.num_rows();
  s.work["lp_relaxation.cols"] += lp.model.num_variables();
  if (sol.status != lp::Status::kOptimal) {
    return error(std::string("strong LP: ") + lp::to_string(sol.status));
  }

  t = steady::now();
  at::FractionalSolution frac = at::unpack(lp, sol);
  at::push_down_transform(forest, lp, frac);
  const std::vector<int> topmost = at::topmost_positive(forest, frac.x);
  s.self_ms["activetime.lp_transform"] += lap(t);

  at::RoundingResult rounded = at::round_solution(forest, frac.x, topmost);
  s.self_ms["activetime.rounding"] += lap(t);

  const std::int64_t skips = obs::counter("at.oracle.cut_skips").value();
  const std::int64_t probes = obs::counter("at.oracle.probes").value();
  t = steady::now();
  const int repairs = at::repair_open_counts(forest, oracle, rounded.x_tilde);
  s.self_ms["activetime.repair"] += lap(t);
  s.work["repair.calls"] += 1;
  s.work["repair.repairs"] += repairs;
  s.work["repair.cut_skips"] += static_cast<double>(
      obs::counter("at.oracle.cut_skips").value() - skips);
  s.work["repair.probes"] +=
      static_cast<double>(obs::counter("at.oracle.probes").value() - probes);

  t = steady::now();
  const auto schedule = at::schedule_with_counts(forest, rounded.x_tilde);
  if (!schedule.has_value()) return error("extract: no schedule");
  at::validate_schedule(inst, *schedule);
  const std::int64_t active = schedule->active_slots();
  s.self_ms["activetime.extract"] += lap(t);
  return solved("nested", active, sol.objective, inst.num_jobs());
}

/// The crossing-window backend: one public call, split by the spans
/// solve_general already records around its LP build, LP solve and
/// rounding phases.
Expected general_layers(const at::Instance& inst, Sample& s) {
  obs::clear_spans();
  steady::time_point t = steady::now();
  const at::GeneralSolveResult g = at::solve_general(inst);
  s.self_ms["activetime.general"] += lap(t);
  double build = 0.0, solve = 0.0, round = 0.0;
  for (const obs::SpanRecord& span : obs::spans_snapshot()) {
    const double ms = static_cast<double>(span.dur_ns) / 1e6;
    if (span.name == "solve_general/lp_build") {
      build += ms;
    } else if (span.name == "solve_general/lp_solve") {
      solve += ms;
    } else if (span.name == "solve_general/round_threshold" ||
               span.name == "solve_general/round_sweep" ||
               span.name == "solve_general/greedy") {
      round += ms;
    }
  }
  s.work["general.solves"] += 1;
  s.work["general.lp_build_ms"] += build;
  s.work["general.lp_solve_ms"] += solve;
  s.work["general.round_repair_ms"] += round;
  s.work["general.repairs"] += g.repairs;
  s.work["general.threshold"] +=
      !g.lp_failed && g.rounding == at::GeneralRounding::kThreshold ? 1 : 0;
  return solved(g.lp_failed ? "greedy" : "general", g.active_slots,
                g.lp_value, inst.num_jobs());
}

/// A solve payload through the layers, as service::solve_cell runs it
/// (robust mode routes through at::solve_robust).
Expected payload_layers(const std::string& text, bool robust, Sample& s) {
  steady::time_point t = steady::now();
  at::Instance inst;
  try {
    inst = service::parse_json_instance(text);
  } catch (const std::exception&) {
    s.self_ms["service.parse"] += lap(t);
    return error("input:parse");
  }
  try {
    inst.validate();
  } catch (const std::exception&) {
    s.self_ms["service.parse"] += lap(t);
    return error("input:validate");
  }
  s.self_ms["service.parse"] += lap(t);
  const bool laminar = inst.is_laminar();
  s.self_ms["activetime.dispatch"] += lap(t);

  const Work before = Work::now();
  Expected e;
  try {
    if (robust && inst.has_processing_intervals()) {
      // The robust layer's self time: the whole solve_robust minus the
      // nominal solve it contains, which is replayed layer by layer.
      t = steady::now();
      const at::RobustSolveResult r = at::solve_robust(inst);
      const double robust_ms = lap(t);
      const double layers_before = s.layer_sum();
      e = laminar ? nested_layers(inst, s) : general_layers(inst, s);
      s.self_ms["activetime.robust"] +=
          robust_ms - (s.layer_sum() - layers_before);
      if (e.status == "solved" &&
          (e.active_slots != r.nominal.active_slots ||
           e.lp_value != r.nominal.lp_value)) {
        e.status = "nominal differs from solve_robust's";
      }
      e.robust_lo = r.robust_lo;
      e.robust_hi = r.robust_hi;
    } else {
      e = laminar ? nested_layers(inst, s) : general_layers(inst, s);
      if (robust && e.status == "solved") {
        // Point payloads take solve_robust's degenerate path.
        e.robust_lo = e.lp_value;
        e.robust_hi = e.active_slots;
      }
    }
  } catch (const util::CheckError& ex) {
    e = error(service::classify_solver_failure(ex.what()));
  }
  s.add_work(before, Work::now());
  return e;
}

/// The envelope parse of Daemon::submit_line: "" plus the op on
/// success, else the class the daemon answers inline.
std::string envelope(const std::string& line, std::string* op,
                     std::string* id) {
  try {
    const obs::Json j = obs::Json::parse(line);
    NAT_CHECK(j.is_object());
    const obs::Json* o = j.find("op");
    NAT_CHECK(o != nullptr && o->type() == obs::Json::Type::kString);
    *op = o->as_string();
    if (const obs::Json* i = j.find("id")) *id = i->as_string();
  } catch (const std::exception&) {
    return "input:parse";
  }
  return "";
}

/// Compares the surface record with the reference and with the
/// layered replay.
void compare(LayerTrace& t, const std::string& what, const obs::Json& record,
             const Expected& expected, const Expected& layered) {
  std::string why = check_record(record, expected);
  if (!why.empty()) {
    mismatch(t, what + ": surface != reference: " + why);
    return;
  }
  why = check_record(record, layered);
  if (!why.empty()) mismatch(t, what + ": replay != surface: " + why);
}

/// Runs `body` on a one-worker pool and rethrows its failure.
void on_worker(const std::function<void()>& body) {
  util::ThreadPool pool(1);
  util::ThreadPool::Group group(pool);
  group.submit(body);
  group.wait();
}

/// Adds the daemon envelope the record of a queued request carries.
void envelope_fields(obs::Json& record, const std::string& tenant,
                     double solve_ms) {
  record["tenant"] = tenant;
  record["queue_ms"] = 0.0;
  record["solve_ms"] = solve_ms;
  record["wall_ms"] = solve_ms;
}

void add_line_bytes(Sample& s, const std::string& line) {
  s.work["parse.lines"] += 1;
  s.work["parse.bytes"] += static_cast<double>(line.size());
}

void add_record_bytes(Sample& s, const std::string& dumped) {
  s.work["serialize.records"] += 1;
  s.work["serialize.bytes"] += static_cast<double>(dumped.size());
}

}  // namespace

Replay replay_daemon_mixed(const DaemonMixedInput& input, const Config& cfg) {
  Replay out;
  service::BatchOptions options;
  options.robust = true;
  const std::size_t n = std::min(input.lines.size(),
                                 static_cast<std::size_t>(cfg.replay_limit));
  on_worker([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const Line& line = input.lines[i];
      const std::string what = "line " + std::to_string(i) + " (" +
                               line.family + ")";
      Sample s;
      add_line_bytes(s, line.text);
      std::string op, id;
      steady::time_point t = steady::now();
      const std::string inline_class = envelope(line.text, &op, &id);
      s.envelope_ms = lap(t);
      if (!inline_class.empty() || op != "solve") {
        // Answered inline by the daemon; nothing past the envelope runs.
        const Expected layered =
            error(inline_class.empty() ? "input:op" : inline_class);
        compare(out.all, what, as_record(layered), line.expect, layered);
        merge(out.all, s);
        continue;
      }
      const service::BatchItem item{id, line.text,
                                    service::BatchItem::Format::kJson};
      t = steady::now();
      const service::CellResult cell =
          service::solve_cell(item, static_cast<int>(i), options);
      s.surface_ms = lap(t);
      obs::Json record = service::cell_record(cell);
      record["op"] = "solve";
      envelope_fields(record, tenant_name(line.tenant), s.surface_ms);
      const std::string dumped = record.dump();
      s.serialize_ms = lap(t);
      add_record_bytes(s, dumped);

      const Expected layered = payload_layers(line.text, options.robust, s);
      compare(out.all, what, record, line.expect, layered);
      merge(out.all, s);
      if (line.kind != LineKind::kPoison && line.jobs >= 45 &&
          line.jobs <= 70) {
        merge(out.mid_jobs, s);
      }
    }
  });
  return out;
}

Replay replay_batch_large(const BatchLargeInput& input, const Config&) {
  Replay out;
  const service::BatchOptions options;
  const std::size_t n = std::min(input.cells.size(), kBatchReplayCells);
  on_worker([&] {
    for (std::size_t k = 0; k < n; ++k) {
      const Line& cell = input.cells[k];
      Sample s;
      add_line_bytes(s, cell.text);
      const service::BatchItem item{"c" + std::to_string(k), cell.text,
                                    service::BatchItem::Format::kJson};
      steady::time_point t = steady::now();
      const service::CellResult result =
          service::solve_cell(item, static_cast<int>(k), options);
      s.surface_ms = lap(t);
      const obs::Json record = service::cell_record(result);
      const std::string dumped = record.dump();
      s.serialize_ms = lap(t);
      add_record_bytes(s, dumped);

      const Expected layered = payload_layers(cell.text, false, s);
      compare(out.all, "cell " + std::to_string(k) + " (" + cell.family + ")",
              record, cell.expect, layered);
      merge(out.all, s);
    }
  });
  return out;
}

Replay replay_session_deltas(const SessionDeltasInput& input,
                             const Config& cfg) {
  Replay out;
  const std::size_t per_tenant = static_cast<std::size_t>(
      std::max(1, cfg.replay_limit / kTenants));
  on_worker([&] {
    for (std::size_t t = 0; t < input.tenants.size(); ++t) {
      const SessionScript& script = input.tenants[t];
      const std::string tenant = tenant_name(static_cast<int>(t));
      // The surface (a SessionManager, as the daemon's tenant holds)
      // and the layered replica, both opened outside the timers.
      service::SessionManager manager;
      at::SolverSession session(service::parse_json_instance(script.open.text));
      const obs::Json opened =
          service::session_op_record(manager.process_line(script.open.text, 0));
      const at::SessionResult& initial = session.solve();
      compare(out.all, tenant + " open", opened, script.open.expect,
              solved(at::to_string(initial.backend), initial.active_slots,
                     initial.lp_value, session.num_jobs()));

      const std::size_t n = std::min(per_tenant, script.deltas.size());
      for (std::size_t k = 0; k < n; ++k) {
        const Line& line = script.deltas[k];
        const std::string what = tenant + " step " + std::to_string(k) + " (" +
                                 line.family + ")";
        Sample s;
        add_line_bytes(s, line.text);
        std::string op, id;
        steady::time_point clock = steady::now();
        envelope(line.text, &op, &id);
        s.envelope_ms = lap(clock);
        const service::SessionOpResult r =
            manager.process_line(line.text, static_cast<int>(k + 1));
        s.surface_ms = lap(clock);
        obs::Json record = service::session_op_record(r);
        envelope_fields(record, tenant, s.surface_ms);
        const std::string dumped = record.dump();
        s.serialize_ms = lap(clock);
        add_record_bytes(s, dumped);

        Expected layered;
        at::Delta delta;
        bool parsed = true;
        try {
          delta = service::parse_delta(obs::Json::parse(line.text));
        } catch (const std::exception&) {
          parsed = false;
        }
        s.self_ms["service.parse"] += lap(clock);
        if (!parsed) {
          layered = error("input:parse");
        } else {
          const at::SessionStats before = session.stats();
          const Work work_before = Work::now();
          clock = steady::now();
          try {
            const at::SessionResult& res = session.apply(delta);
            s.self_ms["activetime.session"] += lap(clock);
            layered = solved(at::to_string(res.backend), res.active_slots,
                             res.lp_value, session.num_jobs());
          } catch (const util::CheckError& ex) {
            s.self_ms["activetime.session"] += lap(clock);
            layered = error(service::classify_solver_failure(ex.what()));
            s.work["session.rollbacks"] += 1;
          }
          s.add_work(work_before, Work::now());
          const at::SessionStats& after = session.stats();
          s.work["session.deltas"] += 1;
          s.work["session.groups_resolved"] += static_cast<double>(
              after.groups_resolved - before.groups_resolved);
          s.work["session.groups_reused"] += static_cast<double>(
              after.groups_reused - before.groups_reused);
          s.work["session.lp_warm"] += static_cast<double>(
              after.lp_warm_hits - before.lp_warm_hits +
              after.lp_warm_repairs - before.lp_warm_repairs);
          s.work["session.lp_cold"] += static_cast<double>(
              after.lp_cold_fallbacks - before.lp_cold_fallbacks);
        }
        compare(out.all, what, record, line.expect, layered);
        merge(out.all, s);
      }
    }
  });
  return out;
}

}  // namespace nat::e2e
