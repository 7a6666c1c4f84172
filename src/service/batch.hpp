// Fault-isolated batch solving: many (instance, solver) cells fanned
// out across a thread pool, where one bad cell produces a structured
// error record instead of poisoning its neighbors or the process.
//
// The unit of work is a *cell*: one instance payload plus the solver
// choice of the batch. Each cell is parsed, validated, solved, and
// classified entirely inside its own try/catch on a pool worker:
//
//   * a malformed payload     -> status "error",   class "input:parse"
//   * an invalid instance     -> status "error",   class "input:validate"
//   * an infeasible instance  -> status "error",   class "check:<file>:<line>"
//   * a verify-layer failure  -> status "error",   class "verify:<stage>"
//   * a per-cell deadline hit -> status "timeout", class "timeout"
//   * everything else         -> status "solved" with the solve numbers
//
// Failure classes follow the docs/CORRECTNESS.md taxonomy via
// verify::classify_failure, so a batch record points at the same key a
// fuzzer repro would. Cancellation is cooperative (util/cancel.hpp):
// each cell gets its own CancelToken armed with options.timeout_ms and
// threaded through the solver's pivot/oracle/B&B loops, so a hung cell
// degrades to a "timeout" record while the rest of the batch proceeds.
//
// Schema, cancellation semantics, and the pool's concurrency contract
// are documented in docs/SERVICE.md. Counters: at.service.*.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/solver.hpp"
#include "obs/report.hpp"

namespace nat::util {
class CancelToken;
}  // namespace nat::util

namespace nat::service {

enum class CellStatus { kSolved, kError, kTimeout, kSkipped };

const char* to_string(CellStatus status);

/// One instance payload. The payload stays *unparsed* text on purpose:
/// parsing happens inside the cell's fault boundary, so a hostile
/// payload fails that cell and nothing else.
struct BatchItem {
  enum class Format {
    kJson,    // one JSON object: {"id": ..., "g": g, "jobs": [[r,d,p],...]}
    kNative,  // the "activetime v1" text format of io/serialize.hpp
  };
  std::string id;    // echoed in the record; defaults to "cell-<index>"
  std::string text;  // the payload
  Format format = Format::kJson;
};
// JSON job rows may also be 5-element [r, d, p, p_lo, p_hi] to carry a
// processing-time uncertainty interval (docs/ROBUST.md); native
// payloads use the "activetime v2" format for the same.

struct CellResult {
  int index = -1;              // position in the batch
  std::string id;
  CellStatus status = CellStatus::kError;
  std::string solver;          // solver that ran ("" if never reached)
  std::string backend;         // pipeline that produced the numbers:
                               // "nested" | "general" | "greedy" |
                               // "exact" ("" if the solve never ran)
  std::string failure_class;   // taxonomy key ("" on success)
  std::string error;           // full diagnostic ("" on success)
  std::int64_t active_slots = -1;  // cost; -1 when not solved
  double lp_value = -1.0;          // LP lower bound; < 0 when unused
  int jobs = -1;                   // parsed job count; -1 if parse failed
  std::int64_t wall_ns = 0;        // cell wall time (parse + solve)
  // Robust-mode certificate (docs/ROBUST.md); robust_hi < 0 means the
  // robust solve did not run (emission is keyed on robust_hi >= 0).
  double robust_lo = -1.0;         // best-case LP lower bound LP(p_lo)
  std::int64_t robust_hi = -1;     // worst-case upper bound
};

struct BatchOptions {
  // "auto" dispatches on laminarity (at::solve_active_time): nested
  // 9/5 pipeline for laminar instances, the general LP-rounding
  // 2-approx otherwise (greedy when its LP fails). "nested", "general",
  // "greedy", "exact" force that solver (nested/exact reject
  // non-laminar instances with an input:laminar error record).
  std::string solver = "auto";
  // Per-cell deadline in milliseconds; 0 disables. A cell that exceeds
  // it yields a kTimeout record.
  std::int64_t timeout_ms = 0;
  // Worker threads for the batch pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  // When false, the first non-solved cell marks every cell that has
  // not started yet as kSkipped (cells already running finish).
  bool keep_going = true;
  // Base options for the nested solver (per-cell cancel is overlaid).
  at::NestedSolverOptions nested;
  // Base options for the general 2-approx solver (same overlay).
  at::GeneralSolverOptions general;
  // Robust interval-time mode (docs/ROBUST.md): every cell routes
  // through at::solve_robust, records gain robust_lo / robust_hi, and
  // a worst-case-infeasible box fails its cell with the usual
  // infeasibility class. Requires solver == "auto" (solve_robust owns
  // the per-corner dispatch); point cells take the degenerate path,
  // which is bit-identical to the non-robust solve.
  bool robust = false;
};

struct BatchReport {
  std::vector<CellResult> cells;  // in batch (index) order
  int solved = 0;
  int errors = 0;
  int timeouts = 0;
  int skipped = 0;
};

/// Called once per finished cell, in *completion* order, serialized
/// (never concurrently). Used by the CLI to stream JSONL records.
using CellCallback = std::function<void(const CellResult&)>;

/// Solves every cell on a private pool of options.threads workers and
/// returns the records in batch order. Never throws on a bad cell —
/// cell failures come back as records; only batch-level misuse (e.g. an
/// unknown options.solver) throws.
BatchReport solve_batch(const std::vector<BatchItem>& items,
                        const BatchOptions& options = {},
                        const CellCallback& on_cell = {});

/// Runs ONE cell inside its fault boundary and never throws: the
/// parse/validate/solve/classify pipeline of solve_batch, exposed so
/// stateless daemon requests ride the exact same code path as batch
/// cells. When `cancel` is non-null it is polled instead of a
/// cell-private deadline token (options.timeout_ms is ignored) — the
/// daemon arms its tokens at enqueue time so queue wait counts against
/// the request deadline.
CellResult solve_cell(const BatchItem& item, int index,
                      const BatchOptions& options,
                      const util::CancelToken* cancel = nullptr);

/// Parses one JSON cell payload:
///   {"id": "...", "g": 2, "jobs": [[release, deadline, processing], ...]}
/// ("id" is optional — solve_batch takes the id from BatchItem). Job
/// rows may also be 5-element [r, d, p, p_lo, p_hi] interval jobs.
/// Throws util::CheckError on malformed input.
at::Instance parse_json_instance(const std::string& text);

/// One cell record as a Json object (docs/SERVICE.md schema). The
/// daemon layers its envelope fields (tenant, queue/solve timings) on
/// top of this before framing.
obs::Json cell_record(const CellResult& cell);

/// One compact JSONL record for a cell (docs/SERVICE.md schema).
std::string cell_to_json(const CellResult& cell);

}  // namespace nat::service
