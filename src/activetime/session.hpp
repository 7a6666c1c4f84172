// Incremental delta re-solve engine (docs/INCREMENTAL.md).
//
// A SolverSession owns an instance plus every derived solver artifact —
// laminar forests, strengthened LP models, sparse-simplex bases, warm
// feasibility-oracle networks, rounded counts, schedule fragments — and
// accepts typed deltas (AddJob / RemoveJob / ExtendWindow /
// ShrinkWindow / Retime), re-solving only what a delta invalidates.
//
// Localization exploits that the whole 9/5 pipeline is block-separable
// per *root window group*: jobs whose windows land in disjoint maximal
// intervals never share an LP row, an oracle arc, a push-down move, or
// a rounding decision. The session partitions the instance into those
// groups, caches each group's solve keyed by its content, and after a
// delta re-solves only groups whose content changed — warm-starting the
// dirty group's LP from the displaced group's exported basis, mapped
// across models by 64-bit variable content keys.
//
// A laminar group runs through solve_nested (solver.hpp) — the same
// precheck, push-down, Algorithm 1, repair, extraction, NAT_VERIFY
// hooks and solve_nested/* spans as the batch path — with the session's
// warm LP (1) step in place of the cold lp::solve_auto. A crossing
// group runs through solve_general.
//
// Determinism contract: a group's LP is solved by the canonicalizing
// sparse simplex (lp/sparse_simplex.hpp), which terminates at the same
// optimal vertex whether it started cold or warm. Downstream stages are
// deterministic functions of that vertex, so an incremental re-solve is
// BIT-IDENTICAL to a fresh SolverSession built on the same instance —
// tests/test_session.cpp asserts this on every step of randomized delta
// walks, and bench/bench_delta.cpp re-asserts it while timing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <variant>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/schedule.hpp"
#include "activetime/solver.hpp"
#include "lp/sparse_simplex.hpp"
#include "util/cancel.hpp"

namespace nat::at {

// Typed deltas. Job indices refer to the session's *current* job list
// (insertion order; RemoveJob shifts later indices down by one, like a
// vector erase). Window edits must nest — ExtendWindow's new window
// must contain the old one, ShrinkWindow's must be contained in it;
// violations throw util::CheckError and roll the session back. The
// instance itself may be non-laminar: groups whose windows cross
// dispatch to the general 2-approx backend (solve_general) while
// laminar groups keep the 9/5 pipeline and its warm-start machinery.
struct AddJob {
  Job job;
};
struct RemoveJob {
  int job = -1;
};
struct ExtendWindow {
  int job = -1;
  Interval window;
};
struct ShrinkWindow {
  int job = -1;
  Interval window;
};
// Replaces a job's processing-time uncertainty box [p_lo, p_hi]
// (docs/ROBUST.md) — widening or narrowing it around the unchanged
// nominal p; lo = hi = 0 clears the box, turning the job back into a
// point job. Instance::validate() enforces the box invariants after
// the edit (and rolls back on violation, like every delta).
struct Retime {
  int job = -1;
  std::int64_t processing_lo = 0;
  std::int64_t processing_hi = 0;
};
using Delta =
    std::variant<AddJob, RemoveJob, ExtendWindow, ShrinkWindow, Retime>;

/// Cumulative session statistics (reset never; diff across calls).
struct SessionStats {
  std::int64_t groups_resolved = 0; // groups actually re-solved
  std::int64_t groups_reused = 0;   // cache hits (untouched groups)
  std::int64_t oracle_builds = 0;   // flow networks built by this session
  // Warm-start ladder, summed over group LP solves (lp.sparse.warm_*).
  std::int64_t lp_warm_hits = 0;
  std::int64_t lp_warm_repairs = 0;
  std::int64_t lp_cold_fallbacks = 0;
};

struct SessionResult {
  Schedule schedule;  // indexed by current job positions
  std::int64_t active_slots = 0;
  double lp_value = 0.0;  // sum of the group LP optima
  int repairs = 0;
  // Most-degraded backend across the groups of this solve: kNested when
  // every group was laminar (the 9/5 pipeline), kGeneral when any group
  // needed the 2-approx, kGreedy when any group's LP failed.
  Backend backend = Backend::kNested;
};

class SolverSession {
 public:
  explicit SolverSession(Instance initial);

  /// Result for the current instance; solves lazily, then caches.
  const SessionResult& solve();

  /// Applies one delta and re-solves incrementally. On any failure
  /// (invalid delta, infeasible result) the session rolls back to its
  /// pre-delta instance and result and rethrows. A delta that makes the
  /// instance non-laminar is fine: the crossing groups dispatch to the
  /// general 2-approx backend.
  const SessionResult& apply(const Delta& delta);

  /// Re-points the cancel token polled at the simplex pivots and oracle
  /// queries of subsequent solve()/apply() calls (nullptr = none).
  /// Long-lived daemon sessions overlay one per-request token this way;
  /// a cancellation mid-apply rolls the session back like any other
  /// failure.
  void set_cancel(const util::CancelToken* cancel) { cancel_ = cancel; }

  const Instance& instance() const { return instance_; }
  const SessionStats& stats() const { return stats_; }
  int num_jobs() const { return static_cast<int>(instance_.jobs.size()); }

 private:
  /// One root window group's cached solve.
  struct GroupSolve {
    std::vector<Job> jobs;  // group content, in current-instance order
    Interval window{0, 0};  // union of the member windows
    std::vector<std::vector<Time>> slots;  // per member, sorted
    double lp_value = 0.0;
    int repairs = 0;
    // Which pipeline solved this group (laminar groups keep the 9/5
    // path and its warm-basis machinery; crossing groups dispatch to
    // solve_general and export no basis).
    Backend backend = Backend::kNested;
    lp::Basis basis;                      // exported optimal basis
    std::vector<std::uint64_t> var_keys;  // content key per LP variable
  };

  void resolve();
  GroupSolve solve_group(const std::vector<int>& members,
                         const GroupSolve* hint);

  Instance instance_;
  const util::CancelToken* cancel_ = nullptr;
  SessionStats stats_;
  SessionResult result_;
  bool solved_ = false;
  // Content-keyed cache of the latest resolve's groups. Keys hash the
  // group's (g, jobs) content; collisions are disambiguated by storing
  // the jobs and comparing on hit.
  std::unordered_map<std::uint64_t, GroupSolve> cache_;
};

/// Splits job indices into root window groups: connected components of
/// window overlap, each a maximal union interval. Groups are ordered by
/// window start; members keep ascending index order. Exposed for tests
/// and the delta fuzz family.
std::vector<std::vector<int>> window_groups(const Instance& instance);

}  // namespace nat::at
