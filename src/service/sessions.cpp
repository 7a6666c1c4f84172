#include "service/sessions.hpp"

#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "service/jsonl.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace nat::service {

namespace {

at::Interval parse_window(const obs::Json& line) {
  const obs::Json* w = line.find("window");
  NAT_CHECK_MSG(w != nullptr && w->is_array() && w->size() == 2 &&
                    w->at(0).is_number() && w->at(1).is_number(),
                "delta line: \"window\" must be [lo, hi]");
  return at::Interval{w->at(0).as_int(), w->at(1).as_int()};
}

int parse_index(const obs::Json& line) {
  const obs::Json* idx = line.find("index");
  NAT_CHECK_MSG(idx != nullptr && idx->is_number(),
                "delta line: missing numeric \"index\"");
  return static_cast<int>(idx->as_int());
}

/// Clears a per-op cancel token off the session on every exit path, so
/// a long-lived session never keeps a pointer to a token that dies
/// with the request.
struct CancelScope {
  at::SolverSession& session;
  ~CancelScope() { session.set_cancel(nullptr); }
};

}  // namespace

at::Delta parse_delta(const obs::Json& line) {
  const obs::Json* kind = line.find("kind");
  NAT_CHECK_MSG(kind != nullptr && kind->type() == obs::Json::Type::kString,
                "delta line: missing string \"kind\"");
  const std::string& k = kind->as_string();
  if (k == "add") {
    const obs::Json* j = line.find("job");
    bool ok = j != nullptr && j->is_array() && (j->size() == 3 ||
                                                j->size() == 5);
    for (std::size_t f = 0; ok && f < j->size(); ++f) {
      ok = j->at(f).is_number();
    }
    NAT_CHECK_MSG(ok,
                  "delta line: \"job\" must be [release, deadline, "
                  "processing] or [release, deadline, processing, p_lo, "
                  "p_hi]");
    at::Job job;
    job.release = j->at(0).as_int();
    job.deadline = j->at(1).as_int();
    job.processing = j->at(2).as_int();
    if (j->size() == 5) {
      job.processing_lo = j->at(3).as_int();
      job.processing_hi = j->at(4).as_int();
    }
    return at::AddJob{job};
  }
  if (k == "remove") return at::RemoveJob{parse_index(line)};
  if (k == "extend") return at::ExtendWindow{parse_index(line),
                                             parse_window(line)};
  if (k == "shrink") return at::ShrinkWindow{parse_index(line),
                                             parse_window(line)};
  if (k == "retime") {
    // Widen or narrow a job's [p_lo, p_hi] uncertainty box
    // (docs/ROBUST.md): {"kind":"retime","index":i,"interval":[lo,hi]}.
    const obs::Json* iv = line.find("interval");
    NAT_CHECK_MSG(iv != nullptr && iv->is_array() && iv->size() == 2 &&
                      iv->at(0).is_number() && iv->at(1).is_number(),
                  "delta line: \"interval\" must be [p_lo, p_hi]");
    return at::Retime{parse_index(line), iv->at(0).as_int(),
                      iv->at(1).as_int()};
  }
  NAT_CHECK_MSG(false, "delta line: unknown kind \"" << k << "\"");
}

obs::Json session_op_record(const SessionOpResult& r) {
  obs::Json j = obs::Json::object();
  j["index"] = static_cast<std::int64_t>(r.index);
  if (!r.session.empty()) j["session"] = r.session;
  if (!r.op.empty()) j["op"] = r.op;
  j["status"] = to_string(r.status);
  if (!r.backend.empty()) j["backend"] = r.backend;
  if (!r.failure_class.empty()) j["failure_class"] = r.failure_class;
  if (!r.error.empty()) j["error"] = r.error;
  if (r.jobs >= 0) j["jobs"] = static_cast<std::int64_t>(r.jobs);
  if (r.active_slots >= 0) j["active_slots"] = r.active_slots;
  if (r.lp_value >= 0.0) j["lp_value"] = r.lp_value;
  if (r.groups_resolved >= 0) {
    j["groups_resolved"] = r.groups_resolved;
    j["groups_reused"] = r.groups_reused;
    j["lp_warm_hits"] = r.lp_warm_hits;
    j["lp_warm_repairs"] = r.lp_warm_repairs;
    j["lp_cold_fallbacks"] = r.lp_cold_fallbacks;
  }
  j["wall_ms"] = static_cast<double>(r.wall_ns) / 1e6;
  return j;
}

std::string session_op_to_json(const SessionOpResult& r) {
  return session_op_record(r).dump();
}

SessionManager::~SessionManager() = default;

SessionOpResult SessionManager::process_line(const std::string& line,
                                             int index,
                                             const util::CancelToken* cancel) {
  const util::Stopwatch sw;
  obs::Span span("service.session_op");
  static obs::Counter& c_ops = obs::counter("at.service.session_ops");
  static obs::Counter& c_errors = obs::counter("at.service.session_errors");
  c_ops.add(1);

  SessionOpResult r;
  r.index = index;

  const auto fail = [&](std::string failure_class,
                        std::string error) -> SessionOpResult& {
    r.status = CellStatus::kError;
    r.failure_class = std::move(failure_class);
    r.error = std::move(error);
    r.wall_ns = sw.nanos();
    c_errors.add(1);
    return r;
  };

  obs::Json parsed;
  try {
    parsed = obs::Json::parse(line);
    NAT_CHECK_MSG(parsed.is_object(), "session line is not a JSON object");
    const obs::Json* session = parsed.find("session");
    NAT_CHECK_MSG(session != nullptr &&
                      session->type() == obs::Json::Type::kString &&
                      !session->as_string().empty(),
                  "session line: missing string \"session\"");
    r.session = session->as_string();
    const obs::Json* op = parsed.find("op");
    NAT_CHECK_MSG(op != nullptr && op->type() == obs::Json::Type::kString,
                  "session line: missing string \"op\"");
    r.op = op->as_string();
  } catch (const std::exception& e) {
    return fail("input:parse", e.what());
  }

  try {
    if (r.op == "open") {
      if (sessions_.count(r.session) != 0) {
        return fail("session:exists",
                    "session \"" + r.session + "\" is already open");
      }
      at::Instance instance;
      try {
        instance = parse_json_instance(line);
      } catch (const std::exception& e) {
        return fail("input:parse", e.what());
      }
      try {
        instance.validate();
      } catch (const std::exception& e) {
        return fail("input:validate", e.what());
      }
      auto session = std::make_unique<at::SolverSession>(std::move(instance));
      session->set_cancel(cancel);
      const CancelScope cancel_scope{*session};
      const at::SessionResult& res = session->solve();
      const at::SessionStats& stats = session->stats();
      r.jobs = session->num_jobs();
      r.backend = at::to_string(res.backend);
      r.active_slots = res.active_slots;
      r.lp_value = res.lp_value;
      r.groups_resolved = stats.groups_resolved;
      r.groups_reused = stats.groups_reused;
      r.lp_warm_hits = stats.lp_warm_hits;
      r.lp_warm_repairs = stats.lp_warm_repairs;
      r.lp_cold_fallbacks = stats.lp_cold_fallbacks;
      sessions_.emplace(r.session, std::move(session));
      static obs::Counter& c_opens = obs::counter("at.service.session_opens");
      c_opens.add(1);
    } else if (r.op == "delta") {
      const auto it = sessions_.find(r.session);
      if (it == sessions_.end()) {
        return fail("session:unknown",
                    "session \"" + r.session + "\" is not open");
      }
      at::SolverSession& session = *it->second;
      at::Delta delta;
      try {
        delta = parse_delta(parsed);
      } catch (const std::exception& e) {
        return fail("input:parse", e.what());
      }
      session.set_cancel(cancel);
      const CancelScope cancel_scope{session};
      const at::SessionStats before = session.stats();
      const at::SessionResult& res = session.apply(delta);
      const at::SessionStats& after = session.stats();
      r.jobs = session.num_jobs();
      r.backend = at::to_string(res.backend);
      r.active_slots = res.active_slots;
      r.lp_value = res.lp_value;
      r.groups_resolved = after.groups_resolved - before.groups_resolved;
      r.groups_reused = after.groups_reused - before.groups_reused;
      r.lp_warm_hits = after.lp_warm_hits - before.lp_warm_hits;
      r.lp_warm_repairs = after.lp_warm_repairs - before.lp_warm_repairs;
      r.lp_cold_fallbacks =
          after.lp_cold_fallbacks - before.lp_cold_fallbacks;
      static obs::Counter& c_deltas = obs::counter("at.service.session_deltas");
      c_deltas.add(1);
    } else if (r.op == "close") {
      const auto it = sessions_.find(r.session);
      if (it == sessions_.end()) {
        return fail("session:unknown",
                    "session \"" + r.session + "\" is not open");
      }
      r.jobs = it->second->num_jobs();
      sessions_.erase(it);
    } else {
      return fail("input:op", "session line: unknown op \"" + r.op + "\"");
    }
  } catch (const util::CancelledError& e) {
    SessionOpResult& failed = fail(classify_cancelled(e.what()), e.what());
    failed.status = CellStatus::kTimeout;
    return failed;
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    return fail(classify_solver_failure(what), what);
  } catch (const std::exception& e) {
    return fail("error:exception", e.what());
  }

  r.status = CellStatus::kSolved;
  r.wall_ns = sw.nanos();
  return r;
}

}  // namespace nat::service
