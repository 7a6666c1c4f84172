// Persistent multi-tenant solver daemon (docs/DAEMON.md).
//
// A Daemon is the long-running counterpart of service::solve_batch:
// it accepts a stream of JSONL requests, keeps hot state resident
// across them — per-tenant SessionManagers whose open SolverSessions
// retain warm FeasibilityOracle networks, cached group solves, and
// exported sparse-simplex bases — and schedules queued requests across
// tenants with the CFS-style vruntime fair queue (fair_queue.hpp), so
// one tenant flooding heavy instances cannot starve another tenant's
// small interactive requests.
//
// Request lines (all fields beyond "op" optional unless noted):
//
//   {"op":"solve", "tenant":"t", "id":"r1", "deadline_ms":500,
//    "g":2, "jobs":[[r,d,p],...]}                    stateless cell
//   {"op":"open"|"delta"|"close", "tenant":"t", "session":"s", ...}
//                             session ops, schema of docs/INCREMENTAL.md
//   {"op":"tenant", "tenant":"t", "weight":4,
//    "max_queue_depth":64, "max_in_flight":1}        tenant config
//   {"op":"stats"}                                   inline snapshot
//   {"op":"shutdown"}                 cancel everything, drain, stop
//
// Every submitted line produces exactly one terminal record on the
// sink, in completion order:
//
//   * solve/session records are the batch/session records
//     (docs/SERVICE.md, docs/INCREMENTAL.md) plus the daemon envelope:
//     "tenant", "op", "queue_ms", "solve_ms", "wall_ms" (queue+solve),
//     and "deadline_left_ms" when a deadline was armed;
//   * admission failures are {"status":"rejected",
//     "failure_class":"admission:rejected"} records — the tenant's
//     queue-depth cap was hit at enqueue;
//   * a request whose deadline expires *in the queue* becomes a
//     "timeout" record without ever touching a solver: tokens are
//     armed at enqueue, so queue wait counts against the deadline;
//   * requests cancelled by shutdown become "cancelled" records.
//
// Threading: submit_line() parses, admits, and enqueues on the calling
// thread (inline ops — tenant/stats/shutdown — are also answered
// there); solver work runs on a private util::ThreadPool whose workers
// pull from the fair queue under the scheduler mutex. The sink is
// serialized. Tenants with max_in_flight == 1 (the default) execute
// strictly in submission order, which is what keeps their session
// streams well-ordered; per-tenant SessionManagers are additionally
// mutex-guarded so raising the cap cannot corrupt session state.
//
// Observability: at.daemon.* counters and gauges (queue depth,
// in-flight, vruntime lag, p50/p99 latency, admission rejects), plus
// the stats op for a structured snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "daemon/fair_queue.hpp"
#include "obs/report.hpp"
#include "service/batch.hpp"
#include "service/sessions.hpp"
#include "util/thread_pool.hpp"

namespace nat::daemon {

/// Receives each terminal record (already serialized, unframed).
/// Calls are serialized; the sink must not re-enter the daemon.
using RecordSink = std::function<void(const std::string& record)>;

struct DaemonOptions {
  // Solver pool width; 0 = hardware concurrency.
  std::size_t threads = 0;
  // Dispatch by global arrival order instead of min-vruntime — the
  // starvation-prone baseline bench_daemon compares against.
  bool fifo = false;
  // Deadline armed at enqueue for requests that carry none; 0 = no
  // deadline. A request's "deadline_ms" field overrides this.
  std::int64_t default_deadline_ms = 0;
  // Weight / queue-depth / in-flight caps for first-contact tenants.
  TenantConfig tenant_defaults;
  // Solver knobs for "solve" requests (timeout_ms is ignored: daemon
  // deadlines ride the per-request token instead).
  service::BatchOptions batch;
  // Start with dispatch paused so tests and load generators can
  // preload queues deterministically, then resume().
  bool start_paused = false;
  RecordSink sink;
};

/// Per-tenant slice of a stats snapshot.
struct TenantStats {
  TenantCounters queue;           // fair-queue view (vruntime, caps, ...)
  std::int64_t completed = 0;     // terminal records emitted
  int open_sessions = 0;
  double p50_ms = 0.0;            // total latency (queue + solve) over
  double p99_ms = 0.0;            // the retained completion window
};

struct DaemonStats {
  std::int64_t submitted = 0;     // request lines seen (incl. rejects)
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;      // admission:rejected records
  std::int64_t solved = 0;
  std::int64_t errors = 0;
  std::int64_t timeouts = 0;      // deadline + cancelled records
  std::size_t queue_depth = 0;    // admitted, not yet dispatched
  std::size_t in_flight = 0;
  double vruntime_lag_ms = 0.0;
  double p50_ms = 0.0;            // all-tenant completion latency
  double p99_ms = 0.0;
  std::size_t pool_workers = 0;
  util::ThreadPool::Stats pool;
  std::map<std::string, TenantStats> tenants;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  /// Cancels outstanding work and drains (every admitted request still
  /// gets its terminal record) before the pool is torn down.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Processes one request line: parse + admit + enqueue, or answer
  /// inline (tenant/stats/shutdown). Exactly one record reaches the
  /// sink per call, now or when the request completes. Never throws on
  /// a bad line — malformed input becomes an "input:parse" record.
  /// Returns false once the daemon is shutting down (including the
  /// call that carried the shutdown op): callers should stop feeding.
  bool submit_line(const std::string& line);

  /// Dispatch control: while paused, submit_line still admits and
  /// queues but no request starts executing.
  void pause();
  void resume();

  /// Blocks until every admitted request has emitted its record and
  /// no solver work is queued or running. Resumes dispatch if paused.
  void drain();

  /// Stops accepting (`submit_line` → "daemon:draining" rejects),
  /// cancels queued and in-flight requests via their tokens, and wakes
  /// dispatch so the cancelled records flush. Pair with drain().
  void shutdown();

  bool draining() const;

  DaemonStats stats();

  /// stats() as the {"op":"stats"} record object.
  obs::Json stats_record();

  /// Swaps the record sink (serialized against in-flight emits).
  void set_sink(RecordSink sink);

  /// Convenience loop: read request lines from `in` (service JSONL
  /// framing: blank lines and # comments skipped), stream records to
  /// `out`, drain at EOF or shutdown. Returns 0. State — tenants,
  /// vruntime, open sessions — persists across serve() calls, which is
  /// how the socket CLI keeps hot state across connections.
  int serve(std::istream& in, std::ostream& out);

  std::size_t threads() const { return pool_.thread_count(); }

 private:
  struct Request;
  struct TenantState;
  struct LatencyWindow {
    std::vector<double> window;  // ring of recent total latencies (ms)
    std::size_t next = 0;
    std::int64_t completed = 0;
    void add(double ms);
  };
  struct Executed {
    std::string record;
    service::CellStatus status = service::CellStatus::kError;
    std::int64_t solve_ns = 0;
    double total_ms = 0.0;
  };

  void emit(const std::string& record);
  void emit(const obs::Json& record);
  /// Tops up to `slots` pulling workers (bounded by the pool width).
  void maybe_dispatch_locked(std::size_t slots);
  void worker_body();
  Executed execute(Request& request);
  TenantState& tenant_state(const std::string& tenant);
  DaemonStats stats_locked();
  obs::Json handle_tenant_op(std::uint64_t seq, const std::string& tenant,
                             const obs::Json& parsed);

  DaemonOptions options_;
  util::ThreadPool pool_;

  mutable std::mutex mu_;  // scheduler state below
  std::condition_variable idle_cv_;
  FairQueue fair_queue_;
  std::map<std::uint64_t, std::unique_ptr<Request>> pending_;
  std::map<std::string, std::unique_ptr<TenantState>> tenant_state_;
  std::map<std::string, LatencyWindow> latencies_;
  std::uint64_t seq_ = 0;
  std::size_t active_workers_ = 0;  // worker_body loops on the pool
  std::size_t in_flight_ = 0;       // requests currently executing
  bool paused_ = false;
  bool draining_ = false;
  std::int64_t submitted_ = 0;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t solved_ = 0;
  std::int64_t errors_ = 0;
  std::int64_t timeouts_ = 0;

  std::mutex emit_mu_;  // serializes the sink
  RecordSink sink_;
};

}  // namespace nat::daemon
