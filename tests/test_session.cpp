// SolverSession: incremental delta re-solves must be bit-identical to
// from-scratch solves at every step, reuse untouched groups' state, and
// roll back cleanly on invalid deltas.
#include "activetime/session.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "activetime/feasibility.hpp"
#include "activetime/solver.hpp"
#include "helpers.hpp"
#include "instances/generators.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::at {
namespace {

/// Multi-group instance: `batches` contended clusters shifted apart in
/// time, sharing one g. Each batch's long spanning job makes it a
/// single root window group; the gaps keep the groups disjoint.
Instance make_rolling(int batches, int seed, std::int64_t g = 3) {
  Instance out;
  out.g = g;
  Time offset = 0;
  for (int b = 0; b < batches; ++b) {
    gen::ContendedParams params;
    params.g = g;
    params.min_groups = 2;
    params.max_groups = 3;
    params.max_long_jobs = 1;
    util::Rng rng(1000 * seed + b);
    Instance batch = gen::random_contended(params, rng);
    Time hi = 0;
    for (Job j : batch.jobs) {
      j.release += offset;
      j.deadline += offset;
      hi = std::max(hi, j.deadline);
      out.jobs.push_back(j);
    }
    offset = hi + 2;
  }
  return out;
}

bool all_open_feasible(const Instance& instance) {
  if (instance.jobs.empty()) return true;
  const Interval h = instance.horizon();
  std::vector<Time> slots;
  slots.reserve(static_cast<std::size_t>(h.length()));
  for (Time t = h.lo; t < h.hi; ++t) slots.push_back(t);
  return feasible_with_slots(instance, slots);
}

/// Applies `delta` to a copy; true iff the result is a valid, laminar,
/// feasible instance (the walk only takes safe steps — rejected deltas
/// have their own dedicated tests).
bool delta_is_safe(const Instance& instance, const Delta& delta) {
  Instance cand = instance;
  try {
    if (const auto* a = std::get_if<AddJob>(&delta)) {
      cand.jobs.push_back(a->job);
    } else if (const auto* r = std::get_if<RemoveJob>(&delta)) {
      if (r->job < 0 || r->job >= static_cast<int>(cand.jobs.size())) {
        return false;
      }
      cand.jobs.erase(cand.jobs.begin() + r->job);
    } else if (const auto* e = std::get_if<ExtendWindow>(&delta)) {
      Job& j = cand.jobs.at(static_cast<std::size_t>(e->job));
      if (e->window.lo > j.release || e->window.hi < j.deadline) return false;
      j.release = e->window.lo;
      j.deadline = e->window.hi;
    } else if (const auto* s = std::get_if<ShrinkWindow>(&delta)) {
      Job& j = cand.jobs.at(static_cast<std::size_t>(s->job));
      if (s->window.lo < j.release || s->window.hi > j.deadline) return false;
      if (s->window.length() < j.processing) return false;
      j.release = s->window.lo;
      j.deadline = s->window.hi;
    }
    cand.validate();
  } catch (const util::CheckError&) {
    return false;
  }
  return cand.is_laminar() && !cand.jobs.empty() && all_open_feasible(cand);
}

std::optional<Delta> propose_delta(const Instance& instance, util::Rng& rng) {
  const int n = static_cast<int>(instance.jobs.size());
  if (n == 0) return std::nullopt;
  // Bias toward removal once the walk has grown the instance.
  const int kind = n > 60 ? static_cast<int>(rng.uniform_int(0, 5)) % 4 + 1
                          : static_cast<int>(rng.uniform_int(0, 3));
  const int pick = static_cast<int>(rng.uniform_int(0, n - 1));
  const Job& j = instance.jobs[static_cast<std::size_t>(pick)];
  Delta delta;
  switch (kind) {
    case 0: {
      // Duplicate an existing window (laminar by construction) with a
      // fresh processing time.
      Job add = j;
      add.processing = rng.uniform_int(1, std::max<Time>(1, j.window().length()));
      delta = AddJob{add};
      break;
    }
    case 2: {
      // Widen by a small amount on either side; non-laminar or
      // infeasible proposals are filtered by delta_is_safe.
      Interval w = j.window();
      w.lo -= rng.uniform_int(0, 2);
      w.hi += rng.uniform_int(0, 2);
      delta = ExtendWindow{pick, w};
      break;
    }
    case 3: {
      Interval w = j.window();
      const Time slack = w.length() - j.processing;
      if (slack <= 0) return std::nullopt;
      const Time cut_lo = rng.uniform_int(0, slack);
      const Time cut_hi = rng.uniform_int(0, slack - cut_lo);
      delta = ShrinkWindow{pick, Interval{w.lo + cut_lo, w.hi - cut_hi}};
      break;
    }
    default:
      delta = RemoveJob{pick};
      break;
  }
  if (!delta_is_safe(instance, delta)) return std::nullopt;
  return delta;
}

/// The contract: an incremental session equals a fresh session built on
/// the same instance, bit for bit.
void expect_matches_scratch(SolverSession& session) {
  SolverSession fresh(session.instance());
  const SessionResult& inc = session.solve();
  const SessionResult& scr = fresh.solve();
  ASSERT_EQ(inc.schedule.assignment, scr.schedule.assignment);
  EXPECT_EQ(inc.active_slots, scr.active_slots);
  EXPECT_EQ(inc.repairs, scr.repairs);
  EXPECT_NEAR(inc.lp_value, scr.lp_value,
              1e-6 * (1.0 + std::abs(scr.lp_value)));
}

void run_walk(Instance base, int steps, int seed) {
  SolverSession session(std::move(base));
  session.solve();
  util::Rng rng(seed);
  int applied = 0;
  for (int step = 0; step < steps; ++step) {
    auto delta = propose_delta(session.instance(), rng);
    if (!delta) continue;
    session.apply(*delta);
    ++applied;
    expect_matches_scratch(session);
    if (applied % 25 == 0) {
      // The per-group LP optima must sum to the global LP optimum
      // (the LP is block-diagonal across window groups).
      const double global = strong_lp_value(session.instance());
      EXPECT_NEAR(session.solve().lp_value, global,
                  1e-6 * (1.0 + std::abs(global)));
    }
  }
  // The walk must actually exercise the machinery.
  EXPECT_GT(applied, steps / 4);
  EXPECT_GT(session.stats().groups_reused, 0);
}

TEST(WindowGroups, SplitsDisjointClustersAndKeepsOrder) {
  Instance instance;
  instance.g = 2;
  instance.jobs = {Job{10, 14, 2}, Job{0, 4, 1}, Job{2, 4, 1}, Job{20, 22, 1},
                   Job{11, 13, 1}};
  const auto groups = window_groups(instance);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(groups[1], (std::vector<int>{0, 4}));
  EXPECT_EQ(groups[2], (std::vector<int>{3}));
}

TEST(WindowGroups, TouchingHalfOpenWindowsStaySeparate) {
  Instance instance;
  instance.g = 1;
  instance.jobs = {Job{0, 5, 1}, Job{5, 8, 1}};
  EXPECT_EQ(window_groups(instance).size(), 2u);
}

TEST(Session, MatchesSolveNestedOnFixture) {
  const Instance instance = testing::small_nested();
  SolverSession session(instance);
  const SessionResult& res = session.solve();
  const NestedSolveResult nested = solve_nested(instance);
  EXPECT_NEAR(res.lp_value, nested.lp_value, 1e-6);
  // Different LP vertices can round differently, so only the sandwich
  // is required against the global pipeline; identity is asserted
  // against fresh sessions throughout this file.
  EXPECT_GE(res.active_slots, static_cast<std::int64_t>(res.lp_value - 1e-6));
  validate_schedule(instance, res.schedule);
}

TEST(Session, RandomWalk1kStepsSmall) {
  run_walk(make_rolling(3, 7, 3), 1000, 42);
}

TEST(Session, RandomWalkMediumRolling) {
  run_walk(make_rolling(6, 11, 2), 150, 43);
}

TEST(Session, RandomWalkUnitJobs) {
  gen::RandomLaminarParams params;
  params.g = 2;
  util::Rng rng(99);
  Instance a = gen::random_laminar_unit(params, rng);
  run_walk(std::move(a), 300, 44);
}

TEST(Session, UntouchedGroupsReuseOracleNetworks) {
  SolverSession session(make_rolling(4, 3, 2));
  session.solve();
  const auto groups = window_groups(session.instance());
  ASSERT_GE(groups.size(), 3u);
  const std::int64_t builds0 = session.stats().oracle_builds;
  const std::int64_t reused0 = session.stats().groups_reused;
  const std::int64_t obs0 = obs::counter("at.oracle.builds").value();

  // Touch exactly one group by duplicating one of its windows.
  const int victim = groups.front().front();
  const Job j = session.instance().jobs[static_cast<std::size_t>(victim)];
  session.apply(AddJob{Job{j.release, j.deadline, 1}});
  const std::int64_t obs_incremental =
      obs::counter("at.oracle.builds").value() - obs0;

  // Exactly one group was re-solved: one new session-owned oracle
  // network, all other groups served from cache.
  EXPECT_EQ(session.stats().oracle_builds, builds0 + 1);
  EXPECT_EQ(session.stats().groups_reused,
            reused0 + static_cast<std::int64_t>(groups.size()) - 1);

  // Observable reuse invariant: a from-scratch solve of the same
  // instance builds networks for every group (plus its ceiling
  // probes); the incremental apply only paid for the dirty group.
  const std::int64_t obs1 = obs::counter("at.oracle.builds").value();
  SolverSession scratch(session.instance());
  scratch.solve();
  const std::int64_t obs_scratch =
      obs::counter("at.oracle.builds").value() - obs1;
  EXPECT_LT(obs_incremental, obs_scratch);
  expect_matches_scratch(session);
}

TEST(Session, WarmStartLadderEngagesOnWindowEdit) {
  Instance instance = testing::contended(1);
  SolverSession session(instance);
  session.solve();
  // Find a job with shrink slack and shrink it: same group, new model.
  int pick = -1;
  for (int i = 0; i < session.num_jobs(); ++i) {
    const Job& j = session.instance().jobs[static_cast<std::size_t>(i)];
    if (j.window().length() > j.processing) {
      pick = i;
      break;
    }
  }
  ASSERT_GE(pick, 0);
  const Job j = session.instance().jobs[static_cast<std::size_t>(pick)];
  session.apply(ShrinkWindow{pick, Interval{j.release, j.deadline}});
  // A same-window "shrink" is a content no-op only if nothing changed;
  // either way the re-solve must have consulted the warm ladder or hit
  // the cache. Now do a real edit when possible.
  const SessionStats& st = session.stats();
  EXPECT_GE(st.lp_warm_hits + st.lp_warm_repairs + st.lp_cold_fallbacks +
                st.groups_reused,
            1);
  expect_matches_scratch(session);
}

TEST(Session, AddThenRemoveRestoresCachedResult) {
  SolverSession session(make_rolling(3, 5, 2));
  const SessionResult first = session.solve();
  const std::int64_t resolved0 = session.stats().groups_resolved;
  const Job j = session.instance().jobs[0];
  session.apply(AddJob{Job{j.release, j.deadline, 1}});
  const int added = session.num_jobs() - 1;
  session.apply(RemoveJob{added});
  const SessionResult& back = session.solve();
  EXPECT_EQ(back.schedule.assignment, first.schedule.assignment);
  EXPECT_EQ(back.active_slots, first.active_slots);
  // The return trip is served from the content-addressed cache: the
  // second apply resolves at most the one group the add had dirtied.
  EXPECT_LE(session.stats().groups_resolved, resolved0 + 2);
}

TEST(Session, InvalidDeltaRollsBack) {
  SolverSession session(testing::small_nested());
  const SessionResult before = session.solve();
  const int n = session.num_jobs();
  EXPECT_THROW(session.apply(RemoveJob{-5}), util::CheckError);
  EXPECT_THROW(session.apply(RemoveJob{n}), util::CheckError);
  EXPECT_THROW(
      session.apply(ExtendWindow{0, Interval{3, 4}}),  // does not contain old
      util::CheckError);
  EXPECT_THROW(
      session.apply(ShrinkWindow{0, Interval{-1, 11}}),  // not contained
      util::CheckError);
  EXPECT_EQ(session.num_jobs(), n);
  EXPECT_EQ(session.solve().schedule.assignment, before.schedule.assignment);
}

TEST(Session, InfeasibleDeltaRollsBack) {
  Instance instance;
  instance.g = 1;
  instance.jobs = {Job{0, 2, 2}};  // saturated window
  SolverSession session(instance);
  session.solve();
  EXPECT_THROW(session.apply(AddJob{Job{0, 2, 1}}), util::CheckError);
  EXPECT_EQ(session.num_jobs(), 1);
  expect_matches_scratch(session);
}

// Robust-mode delta (docs/ROBUST.md): Retime rewrites a job's
// uncertainty box around the unchanged nominal processing time. The
// nominal schedule is untouched by construction (solvers only read
// `processing`), invalid boxes roll back, and lo = hi = 0 clears the
// box again.
TEST(Session, RetimeDeltaWidensNarrowsAndClears) {
  SolverSession session(testing::small_nested());
  const SessionResult before = session.solve();

  // Widen: nominal p of job 0 is 3; box it to [1, 3].
  const SessionResult& widened = session.apply(Retime{0, 1, 3});
  EXPECT_EQ(widened.schedule.assignment, before.schedule.assignment);
  EXPECT_EQ(widened.active_slots, before.active_slots);
  EXPECT_TRUE(session.instance().has_processing_intervals());

  // Narrow the same box.
  session.apply(Retime{0, 2, 3});
  EXPECT_EQ(session.instance().jobs[0].processing_lo, 2);

  // Invalid boxes roll back: out-of-range index, box missing the
  // nominal value, hi corner overflowing the window.
  EXPECT_THROW(session.apply(Retime{99, 1, 3}), util::CheckError);
  EXPECT_THROW(session.apply(Retime{0, 1, 2}), util::CheckError);   // p=3 > hi
  EXPECT_THROW(session.apply(Retime{2, 1, 5}), util::CheckError);   // window [2,3)
  EXPECT_EQ(session.instance().jobs[0].processing_lo, 2);

  // Clear: back to a point instance, bit-identical result.
  session.apply(Retime{0, 0, 0});
  EXPECT_FALSE(session.instance().has_processing_intervals());
  EXPECT_EQ(session.solve().schedule.assignment, before.schedule.assignment);
}

// Laminar groups run through solve_nested, so NAT_VERIFY reaches them:
// under full verification every group solve re-certifies its LP,
// push-down, rounding and schedule in exact arithmetic.
TEST(Session, FullVerificationCertifiesGroupSolves) {
  // resolve_level reads NAT_VERIFY on every call; restore it on exit.
  struct EnvGuard {
    std::optional<std::string> saved;
    EnvGuard() {
      if (const char* v = std::getenv("NAT_VERIFY")) saved = v;
      ::setenv("NAT_VERIFY", "full", 1);
    }
    ~EnvGuard() {
      if (saved) {
        ::setenv("NAT_VERIFY", saved->c_str(), 1);
      } else {
        ::unsetenv("NAT_VERIFY");
      }
    }
  };
  const char* const stages[] = {"lp", "push_down", "rounding", "schedule"};
  const auto stage_counts = [&] {
    std::vector<std::int64_t> out;
    for (const char* stage : stages) {
      out.push_back(
          obs::counter(std::string("at.verify.stage.") + stage).value());
    }
    return out;
  };

  const EnvGuard env;
  SolverSession session(make_rolling(3, 5, 2));
  const std::int64_t groups =
      static_cast<std::int64_t>(window_groups(session.instance()).size());
  const std::vector<std::int64_t> before = stage_counts();
  session.solve();
  const std::vector<std::int64_t> after = stage_counts();
  for (std::size_t s = 0; s < after.size(); ++s) {
    EXPECT_GE(after[s] - before[s], groups) << stages[s];
  }

  // A delta re-solves its dirty group under the same checks.
  const Job j = session.instance().jobs[0];
  session.apply(AddJob{Job{j.release, j.deadline, 1}});
  const std::vector<std::int64_t> delta = stage_counts();
  for (std::size_t s = 0; s < delta.size(); ++s) {
    EXPECT_GT(delta[s], after[s]) << stages[s];
  }
  expect_matches_scratch(session);
}

TEST(Session, NonLaminarDeltaDispatchesToGeneral) {
  Instance instance;
  instance.g = 2;
  instance.jobs = {Job{0, 4, 1}, Job{4, 8, 1}};
  SolverSession session(instance);
  EXPECT_EQ(session.solve().backend, Backend::kNested);
  // The crossing add used to be rejected; it now merges the two groups
  // and dispatches the merged group to the general 2-approx backend.
  const SessionResult& res = session.apply(AddJob{Job{2, 6, 1}});
  EXPECT_EQ(session.num_jobs(), 3);
  EXPECT_EQ(res.backend, Backend::kGeneral);
  validate_schedule(session.instance(), res.schedule);
  expect_matches_scratch(session);
  // Removing the crossing job restores the all-laminar (nested) path.
  const SessionResult& back = session.apply(RemoveJob{2});
  EXPECT_EQ(back.backend, Backend::kNested);
  expect_matches_scratch(session);
}

}  // namespace
}  // namespace nat::at
