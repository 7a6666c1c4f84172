// End-to-end benchmark over the daemon, batch and session surfaces.
//
// Three seeded workloads drive the public surfaces of the repository —
// daemon::Daemon::submit_line, service::solve_batch, and session ops
// through the daemon — from one process:
//
//   daemon_mixed    open loop into one robust-mode Daemon, small mixed
//                   payloads plus ~1/10 poisoned lines
//   batch_large     closed loop of solve_batch calls over large laminar
//                   instances
//   session_deltas  one session per tenant, closed-loop delta streams
//
// Every line's expected terminal record is computed by a reference run
// before any timer starts (workloads.cpp); the untraced run
// (surfaces.cpp) checks each record against it. A separate traced run
// (replay.cpp) replays the same inputs one request at a time, calling
// each layer's public function in pipeline order and timing it from
// outside. README.md in this directory documents workloads and metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace nat::e2e {

enum class Workload { kDaemonMixed, kBatchLarge, kSessionDeltas };

const char* to_string(Workload workload);
/// False when `name` names no workload.
bool parse_workload(const std::string& name, Workload* out);

/// Tenants of the daemon workloads, and the pool widths.
inline constexpr int kTenants = 3;
inline constexpr std::size_t kDaemonThreads = 3;  // daemon_mixed
inline constexpr std::size_t kSessionThreads = 3;  // session_deltas
inline constexpr std::size_t kBatchThreads = 4;   // batch_large

/// Generation and run sizes. The defaults are the benchmark's; the
/// tests shrink them so every workload runs in well under a second.
struct Config {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool small = false;              // small instance families (tests)
  int setup_reps = 15;             // set-ups timed per run; median reported
  int replay_limit = 1500;         // lines the traced run replays
  // daemon_mixed: every request line is distinct.
  double offered_rps = 600.0;
  // batch_large: unique cells, cycled through solve_batch calls.
  int batch_cells = 64;
  int batch_cells_per_call = 8;
  // session_deltas: forward walk length; the script walks back too.
  int session_walk = 300;
};

enum class LineKind {
  kLaminar,   // laminar point payload
  kCrossing,  // crossing-window point payload
  kInterval,  // payload with [p_lo, p_hi] boxes (robust path)
  kPoison,    // must fail with an exact class
  kOpen,      // session open
  kDelta,     // session delta (valid or not)
};

const char* to_string(LineKind kind);

/// The terminal record a line must produce, taken from a reference run
/// made before any timer starts.
struct Expected {
  std::string status = "solved";   // "solved" | "error"
  std::string failure_class;       // exact class when status is "error"
  std::string backend;
  std::int64_t active_slots = -1;
  double lp_value = -1.0;
  int jobs = -1;                   // job count the record reports
  double robust_lo = -1.0;         // robust-mode solve lines only
  std::int64_t robust_hi = -1;
};

/// "" when `record` is the expected outcome, else what differs.
std::string check_record(const obs::Json& record, const Expected& expected);

/// One request line.
struct Line {
  std::string text;
  int tenant = 0;
  LineKind kind = LineKind::kLaminar;
  std::string family;  // generator family or poison kind
  int jobs = 0;        // payload job count (0 when unparseable)
  Expected expect;
};

struct DaemonMixedInput {
  std::vector<Line> lines;     // in send order
  std::vector<double> due_ms;  // open-loop schedule, relative to start
  std::vector<std::string> reference_failures;
};

struct BatchLargeInput {
  std::vector<Line> cells;     // unique cells; the run cycles through them
  std::vector<std::string> reference_failures;
};

struct SessionScript {
  Line open;                   // the tenant's session open line
  std::vector<Line> deltas;    // one period: ends on the opened instance
  int root_groups = 0;         // window groups of the opened instance
};

struct SessionDeltasInput {
  std::vector<SessionScript> tenants;
  std::vector<std::string> reference_failures;
};

/// Input generation plus reference outcomes (outside every timer).
DaemonMixedInput make_daemon_mixed(const Config& cfg);
BatchLargeInput make_batch_large(const Config& cfg);
SessionDeltasInput make_session_deltas(const Config& cfg);

/// Tenant name of tenant index t ("t0", "t1", ...).
std::string tenant_name(int t);

/// The daemon "tenant" config line every workload sends first.
std::string tenant_line(int t, int max_in_flight);

/// What one untraced run of a workload observed.
struct SurfaceRun {
  std::int64_t attempted = 0;      // lines sent (set-up lines excluded)
  std::int64_t failed = 0;         // lines without their expected record
  std::vector<std::string> failures;  // first few diagnostics
  double elapsed_s = 0.0;          // the measured window
  double cpu_s = 0.0;              // process user+sys CPU in the window
  std::int64_t completed = 0;      // records completed in the window
  std::vector<double> latency_ms;  // one per completed line
  std::vector<double> setup_s;     // each timed set-up
  double alg_over_lp = 0.0;        // mean over the healthy inputs
  // Layer-side figures that only the untraced run can see.
  std::vector<double> queue_ms;     // record queue_ms (daemon surfaces)
  std::vector<double> envelope_ms;  // client latency minus record wall_ms
  std::vector<double> late_ms;      // open-loop generator lateness
  std::int64_t rejected = 0;        // admission:rejected records
  double offered_rps = 0.0;         // achieved send rate (open loop)
};

SurfaceRun run_daemon_mixed(const DaemonMixedInput& input, const Config& cfg);
SurfaceRun run_batch_large(const BatchLargeInput& input, const Config& cfg);
SurfaceRun run_session_deltas(const SessionDeltasInput& input,
                              const Config& cfg);

/// Summed self times and work counts of one traced replay.
struct LayerTrace {
  std::int64_t requests = 0;              // lines replayed
  double total_ms = 0.0;                  // envelope + surface + serialize
  std::map<std::string, double> self_ms;  // layer name -> summed self time
  std::map<std::string, double> work;     // counter name -> summed count
  std::int64_t mismatches = 0;            // replay != surface, or != expected
  std::vector<std::string> failures;
};

struct Replay {
  LayerTrace all;
  // daemon_mixed only: solve lines of 45..70 jobs, the daemon payload
  // class the layer breakdown was first asked about.
  LayerTrace mid_jobs;
};

Replay replay_daemon_mixed(const DaemonMixedInput& input, const Config& cfg);
Replay replay_batch_large(const BatchLargeInput& input, const Config& cfg);
Replay replay_session_deltas(const SessionDeltasInput& input,
                             const Config& cfg);

/// Layer names in pipeline order, as the per-layer metrics spell them.
extern const char* const kLayers[];
extern const std::size_t kLayerCount;

/// Program stamp: host, build, and the solver settings in effect.
obs::Json program_stamp();

/// "" when the program is the default one (optimized, unsanitized
/// build; NAT_LP_BACKEND / NAT_VERIFY unset or at their defaults),
/// else why the benchmark refuses to run.
std::string guard_violation();

/// Process CPU time (user + sys) in seconds, and peak RSS in MiB.
double process_cpu_s();
double peak_rss_mb();

}  // namespace nat::e2e
