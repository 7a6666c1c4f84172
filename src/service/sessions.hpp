// Stateful session protocol over the incremental delta re-solve engine
// (activetime/session.hpp), in the JSONL style of the batch service.
//
// Where solve_batch treats every line as an independent cell, a
// SessionManager threads lines through named long-lived SolverSessions:
//
//   {"op":"open",  "session":"a", "g":2, "jobs":[[r,d,p],...]}
//   {"op":"delta", "session":"a", "kind":"add",    "job":[r,d,p]}
//   {"op":"delta", "session":"a", "kind":"remove", "index":3}
//   {"op":"delta", "session":"a", "kind":"extend", "index":3,
//                                 "window":[lo,hi]}
//   {"op":"delta", "session":"a", "kind":"shrink", "index":3,
//                                 "window":[lo,hi]}
//   {"op":"delta", "session":"a", "kind":"retime", "index":3,
//                                 "interval":[p_lo,p_hi]}
//   {"op":"close", "session":"a"}
//
// "add" jobs (and "open" rows) may carry 5 elements
// [r, d, p, p_lo, p_hi] to attach a processing-time uncertainty box;
// "retime" widens/narrows an existing box (docs/ROBUST.md).
//
// Each line is processed inside its own fault boundary, mirroring the
// batch cells: a malformed line, an unknown session, or a rejected
// delta becomes a structured error record and the stream continues. A
// rejected delta additionally leaves its session on the pre-delta
// instance (SolverSession::apply rolls back), so one bad edit never
// poisons the session it targeted. Records echo the solve numbers plus
// the session's incremental counters (groups re-solved vs reused, LP
// warm-start ladder) so drivers can watch the engine work.
//
// Schema details: docs/INCREMENTAL.md. Counters: at.service.session_*.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "activetime/session.hpp"
#include "obs/report.hpp"
#include "service/batch.hpp"

namespace nat::service {

/// One processed protocol line (the session analogue of CellResult).
struct SessionOpResult {
  int index = -1;              // line position in the stream
  std::string session;         // session name ("" if the line had none)
  std::string op;              // "open", "delta", "close" ("" on parse fail)
  CellStatus status = CellStatus::kError;
  std::string backend;         // pipeline tag of the solve ("nested" |
                               // "general" | "greedy"; "" when no solve
                               // ran, e.g. close ops and failures)
  std::string failure_class;   // taxonomy key ("" on success)
  std::string error;           // full diagnostic ("" on success)
  int jobs = -1;               // session job count after the op
  std::int64_t active_slots = -1;
  double lp_value = -1.0;
  // Incremental-engine deltas for this op (session stats diff).
  std::int64_t groups_resolved = -1;
  std::int64_t groups_reused = -1;
  std::int64_t lp_warm_hits = -1;
  std::int64_t lp_warm_repairs = -1;
  std::int64_t lp_cold_fallbacks = -1;
  std::int64_t wall_ns = 0;
};

/// Parses the "kind"/"job"/"index"/"window" fields of a delta line.
/// Throws util::CheckError on malformed input. Exposed for the delta
/// fuzz family, which replays protocol lines through a session.
at::Delta parse_delta(const obs::Json& line);

/// One processed-line record as a Json object (the daemon layers its
/// envelope fields on top before framing).
obs::Json session_op_record(const SessionOpResult& r);

/// One compact JSONL record for a processed line.
std::string session_op_to_json(const SessionOpResult& r);

/// Owns the named sessions of one protocol stream. Lines are processed
/// strictly in order (sessions are stateful, so there is no pool here —
/// parallelism across *sessions* belongs to the caller).
class SessionManager {
 public:
  ~SessionManager();

  /// Processes one JSONL line inside a fault boundary. Never throws.
  /// When `cancel` is non-null it is polled by the targeted session's
  /// solve for the duration of this op (the daemon passes per-request
  /// deadline tokens); a cancellation becomes a "timeout"/"cancelled"
  /// record and, for deltas, rolls the session back.
  SessionOpResult process_line(const std::string& line, int index,
                               const util::CancelToken* cancel = nullptr);

  int open_sessions() const { return static_cast<int>(sessions_.size()); }

 private:
  std::map<std::string, std::unique_ptr<at::SolverSession>> sessions_;
};

}  // namespace nat::service
