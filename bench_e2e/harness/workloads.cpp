// Seeded inputs for the three workloads, and the expected record of
// every line from a reference run that shares no code path with the
// surfaces beyond the solver entry points themselves:
//
//   daemon_mixed    at::solve_robust on the generated Instance (the
//                   daemon runs in robust mode); poisoned lines expect
//                   the class their poison kind defines
//   batch_large     at::solve_active_time on the generated Instance
//   session_deltas  a replica SolverSession fed the typed deltas, with
//                   a fresh SolverSession cross-check every few steps
//
// Healthy references must also satisfy LP <= ALG <= 2·LP; a violation
// is a reference failure, reported like a mismatched record.
#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <thread>
#include <variant>

#include "activetime/feasibility.hpp"
#include "activetime/robust.hpp"
#include "activetime/session.hpp"
#include "activetime/solver.hpp"
#include "harness/bench.hpp"
#include "instances/generators.hpp"
#include "service/jsonl.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nat::e2e {

namespace {

using at::Instance;
using at::Job;
using at::Time;
using util::Rng;

/// Reference computations run on a private pool of this width.
constexpr std::size_t kReferenceThreads = 4;

/// Session references are cross-checked against a fresh session this
/// often (and after the last step).
constexpr int kFreshCheckEvery = 50;

/// Share of session deltas that are deliberately invalid.
constexpr double kInvalidDeltaShare = 0.05;

/// [r,d,p], or [r,d,p,p_lo,p_hi] for an interval job.
std::string job_row(const Job& j) {
  std::string s = "[" + std::to_string(j.release) + "," +
                  std::to_string(j.deadline) + "," +
                  std::to_string(j.processing);
  if (j.processing_hi > 0) {
    s += "," + std::to_string(j.processing_lo) + "," +
         std::to_string(j.processing_hi);
  }
  return s + "]";
}

/// "g":G,"jobs":[...] — the payload fields every surface parses.
std::string payload_body(const Instance& inst) {
  std::string s = "\"g\":" + std::to_string(inst.g) + ",\"jobs\":[";
  for (std::size_t i = 0; i < inst.jobs.size(); ++i) {
    if (i != 0) s += ",";
    s += job_row(inst.jobs[i]);
  }
  return s + "]";
}

/// Lays the parts out left to right, min_gap or min_gap + 1 empty slots
/// apart, so each part stays its own root window group. All parts must
/// share g.
Instance side_by_side(const std::vector<Instance>& parts, Rng& rng,
                      Time min_gap = 1) {
  Instance out;
  out.g = parts.front().g;
  Time offset = 0;
  for (const Instance& part : parts) {
    NAT_CHECK(part.g == out.g);
    const at::Interval h = part.horizon();
    for (Job j : part.jobs) {
      j.release += offset - h.lo;
      j.deadline += offset - h.lo;
      out.jobs.push_back(j);
    }
    offset += h.length() + rng.uniform_int(min_gap, min_gap + 1);
  }
  return out;
}

Instance contended(Rng& rng, std::int64_t g, int min_groups, int max_groups) {
  at::gen::ContendedParams p;
  p.g = g;
  p.min_groups = min_groups;
  p.max_groups = max_groups;
  p.unit_slack = rng.uniform_int(0, 2);
  p.max_long_jobs = static_cast<int>(rng.uniform_int(1, 3));
  return at::gen::random_contended(p, rng);
}

/// Several random laminar trees side by side, at least `target` jobs.
Instance laminar_forest(Rng& rng, int target, int depth, int jobs_per_node) {
  at::gen::RandomLaminarParams p;
  p.g = rng.uniform_int(2, 4);
  p.max_depth = depth;
  p.max_children = 3;
  p.max_jobs_per_node = jobs_per_node;
  p.max_processing = 4;
  std::vector<Instance> parts;
  int jobs = 0;
  while (jobs < target) {
    parts.push_back(at::gen::random_laminar(p, rng));
    jobs += parts.back().num_jobs();
  }
  return side_by_side(parts, rng);
}

/// Contended blocks side by side, one g for all, at least `target` jobs.
Instance contended_forest(Rng& rng, int target, std::int64_t g,
                          int max_groups, Time min_gap = 1) {
  std::vector<Instance> parts;
  int jobs = 0;
  while (jobs < target) {
    parts.push_back(contended(rng, g, 1, max_groups));
    jobs += parts.back().num_jobs();
  }
  return side_by_side(parts, rng, min_gap);
}

Instance crossing(Rng& rng, bool small) {
  at::gen::RandomGeneralParams p;
  p.g = rng.uniform_int(2, 4);
  p.jobs = static_cast<int>(small ? rng.uniform_int(6, 12)
                                  : rng.uniform_int(15, 40));
  p.horizon = small ? rng.uniform_int(12, 20) : rng.uniform_int(30, 60);
  return at::gen::random_general(p, rng);
}

/// LP values agree to a relative 1e-9. Cold solves reproduce the value
/// bit for bit, but a session's warm re-solve reaches the same vertex
/// along a different pivot path and may differ in the last bits.
bool same_lp(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b));
}

bool within_lp_sandwich(std::int64_t alg, double lp) {
  const double slack = 1e-6 * (1.0 + std::abs(lp));
  return lp <= static_cast<double>(alg) + slack &&
         static_cast<double>(alg) <= 2.0 * lp + slack;
}

Expected error(const std::string& failure_class) {
  Expected e;
  e.status = "error";
  e.failure_class = failure_class;
  return e;
}

/// Runs `body(i)` for every index on a private reference pool.
void for_each_parallel(std::size_t n,
                       const std::function<void(std::size_t)>& body) {
  util::ThreadPool pool(
      std::min<std::size_t>(kReferenceThreads,
                            std::max(1u, std::thread::hardware_concurrency())));
  util::parallel_for(pool, 0, n, body, /*grain=*/1);
}

// --- daemon_mixed ------------------------------------------------------------

/// One daemon_mixed payload: the instance plus its family name, or a
/// poison kind with no instance.
struct Draw {
  std::string family;
  Instance instance;
  bool poison = false;
};

/// Calls `draw` until a generator accepts its own draw: a generator
/// NAT_CHECKs that its output is feasible and throws on the rare draw
/// that is not. The retry keeps the inputs a function of the seed.
template <class F>
auto redraw(F&& draw) -> decltype(draw()) {
  for (int attempt = 1;; ++attempt) {
    try {
      return draw();
    } catch (const util::CheckError&) {
      NAT_CHECK_MSG(attempt < 100, "generator keeps rejecting its draws");
    }
  }
}

Draw draw_daemon_payload_once(Rng& rng, bool small) {
  Draw d;
  const double u = rng.uniform01();
  if (u < 0.40) {
    d.family = "contended";
    d.instance = contended(rng, rng.uniform_int(4, 12), 2, small ? 3 : 8);
  } else if (u < 0.60) {
    d.family = "laminar_forest";
    d.instance = laminar_forest(
        rng, static_cast<int>(small ? rng.uniform_int(8, 20)
                                    : rng.uniform_int(20, 70)),
        3, 3);
  } else if (u < 0.70) {
    d.family = "random_general";
    d.instance = crossing(rng, small);
  } else if (u < 0.76) {
    d.family = "hard_crossing";
    d.instance = at::gen::hard_crossing(
        rng.uniform_int(2, 4),
        static_cast<int>(rng.uniform_int(3, small ? 5 : 12)));
  } else if (u < 0.90) {
    d.family = "interval";
    d.instance = rng.chance(0.5)
                     ? laminar_forest(rng,
                                      static_cast<int>(rng.uniform_int(
                                          small ? 8 : 20, small ? 20 : 50)),
                                      3, 3)
                     : crossing(rng, small);
    at::gen::add_processing_intervals(d.instance, 0.7, rng);
  } else {
    d.poison = true;
    static const char* const kPoisons[] = {"malformed", "invalid_window",
                                           "infeasible", "unknown_op"};
    d.family = kPoisons[rng.uniform_int(0, 3)];
    d.instance = contended(rng, rng.uniform_int(3, 6), 2, 3);
    if (d.family == "invalid_window") {
      // A window shorter than its job: input validation must reject it.
      Job& j = d.instance.jobs[rng.uniform_int(
          0, d.instance.num_jobs() - 1)];
      j.processing = j.deadline - j.release + 1;
    } else if (d.family == "infeasible") {
      // g + 1 unit jobs squeezed into one slot: the instance is
      // laminar and valid, so the solver's feasibility precheck fails.
      for (std::int64_t k = 0; k <= d.instance.g; ++k) {
        d.instance.jobs.push_back(Job{0, 1, 1});
      }
    }
  }
  return d;
}

Draw draw_daemon_payload(Rng& rng, bool small) {
  return redraw([&] { return draw_daemon_payload_once(rng, small); });
}

Line daemon_line(const Draw& d, std::size_t i, int tenant) {
  Line line;
  line.tenant = tenant;
  line.family = d.family;
  line.jobs = d.instance.num_jobs();
  const std::string head = "{\"op\":\"" +
                           std::string(d.family == "unknown_op" ? "solv"
                                                                : "solve") +
                           "\",\"tenant\":\"" + tenant_name(tenant) +
                           "\",\"id\":\"r" + std::to_string(i) + "\",";
  line.text = head + payload_body(d.instance) + "}";
  if (!d.poison) {
    line.kind = d.instance.has_processing_intervals() ? LineKind::kInterval
                : d.instance.is_laminar()             ? LineKind::kLaminar
                                                      : LineKind::kCrossing;
    return line;
  }
  line.kind = LineKind::kPoison;
  if (d.family == "malformed") {
    // Cut mid-payload: the envelope parse fails before anything else.
    line.text.resize(line.text.size() * 2 / 3);
    line.jobs = 0;
    line.expect = error("input:parse");
  } else if (d.family == "invalid_window") {
    line.expect = error("input:validate");
  } else if (d.family == "infeasible") {
    line.expect = error("infeasible");
  } else {
    line.expect = error("input:op");
  }
  return line;
}

// --- session_deltas ----------------------------------------------------------

/// Blocks of a session instance sit this many slots apart (or one
/// more); window extensions stay within one slot of their block, so
/// no delta ever merges two root window groups.
constexpr Time kSessionGap = 3;

/// Tenant t's opened instance. Sizes are stratified — 200, 260 and 320
/// jobs at g = 4, 5, 6 for tenants 0, 1, 2 — so every seed spans the
/// same range and only the instances' structure varies with the seed.
Instance session_base(int tenant, Rng& rng, bool small) {
  const int target = small ? 30 + 10 * tenant : 200 + 60 * tenant;
  return redraw([&] {
    return contended_forest(rng, target, 4 + tenant, 3, kSessionGap);
  });
}

/// Union window of each root group of `inst`, ordered by position.
std::vector<at::Interval> group_hulls(const Instance& inst) {
  std::vector<at::Interval> hulls;
  for (const std::vector<int>& group : at::window_groups(inst)) {
    at::Interval h = inst.jobs[group.front()].window();
    for (int j : group) {
      h.lo = std::min(h.lo, inst.jobs[j].release);
      h.hi = std::max(h.hi, inst.jobs[j].deadline);
    }
    hulls.push_back(h);
  }
  return hulls;
}

/// The opened instance's group hull that window w lies in, widened by
/// one slot on each side: the limit for extending w.
at::Interval extension_limit(const std::vector<at::Interval>& hulls,
                             at::Interval w) {
  for (const at::Interval& h : hulls) {
    if (w.lo < h.hi + 1 && h.lo - 1 < w.hi) return {h.lo - 1, h.hi + 1};
  }
  return w;
}

bool feasible(const Instance& inst) {
  const at::Interval h = inst.horizon();
  std::vector<Time> all;
  for (Time t = h.lo; t < h.hi; ++t) all.push_back(t);
  return at::feasible_with_slots(inst, all);
}

/// One scripted step: the protocol line body (after the session field)
/// and the typed delta the replica applies.
struct Step {
  std::string body;
  at::Delta delta;
  bool parse_poison = false;  // rejected by the delta parser
  std::string family;
};

Step add_step(const Job& j) {
  return Step{"\"kind\":\"add\",\"job\":" + job_row(j), at::AddJob{j}, false,
              "add"};
}
Step remove_step(int index) {
  return Step{"\"kind\":\"remove\",\"index\":" + std::to_string(index),
              at::RemoveJob{index}, false, "remove"};
}
Step window_step(bool extend, int index, at::Interval w) {
  const std::string body = std::string("\"kind\":\"") +
                           (extend ? "extend" : "shrink") +
                           "\",\"index\":" + std::to_string(index) +
                           ",\"window\":[" + std::to_string(w.lo) + "," +
                           std::to_string(w.hi) + "]";
  if (extend) return Step{body, at::ExtendWindow{index, w}, false, "extend"};
  return Step{body, at::ShrinkWindow{index, w}, false, "shrink"};
}
Step retime_step(int index, std::int64_t lo, std::int64_t hi) {
  return Step{"\"kind\":\"retime\",\"index\":" + std::to_string(index) +
                  ",\"interval\":[" + std::to_string(lo) + "," +
                  std::to_string(hi) + "]",
              at::Retime{index, lo, hi}, false, "retime"};
}

/// A deliberately invalid step; the session must roll it back.
Step invalid_step(const Instance& cur, Rng& rng) {
  const int n = cur.num_jobs();
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      Step s = remove_step(n + static_cast<int>(rng.uniform_int(1, 9)));
      s.family = "invalid_remove";
      return s;
    }
    case 1: {
      // A "shrink" whose window is not inside the old one.
      const int j = static_cast<int>(rng.uniform_int(0, n - 1));
      const Job& job = cur.jobs[j];
      Step s = window_step(false, j, {job.release, job.deadline + 1});
      s.family = "invalid_shrink";
      return s;
    }
    default: {
      Step s;
      s.body = "\"kind\":\"rotate\",\"index\":0";
      s.parse_poison = true;
      s.family = "invalid_kind";
      return s;
    }
  }
}

/// Applies a valid step to the generator's copy of the instance and
/// returns its exact inverse.
Step apply_and_invert(Instance& cur, const Step& step) {
  return std::visit(
      [&](const auto& d) -> Step {
        using D = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<D, at::AddJob>) {
          cur.jobs.push_back(d.job);
          return remove_step(cur.num_jobs() - 1);
        } else if constexpr (std::is_same_v<D, at::RemoveJob>) {
          const Job removed = cur.jobs[d.job];
          cur.jobs.erase(cur.jobs.begin() + d.job);
          return add_step(removed);
        } else if constexpr (std::is_same_v<D, at::ExtendWindow> ||
                             std::is_same_v<D, at::ShrinkWindow>) {
          Job& j = cur.jobs[d.job];
          const at::Interval old{j.release, j.deadline};
          j.release = d.window.lo;
          j.deadline = d.window.hi;
          return window_step(std::is_same_v<D, at::ShrinkWindow>, d.job, old);
        } else {
          Job& j = cur.jobs[d.job];
          const std::int64_t lo = j.processing_lo, hi = j.processing_hi;
          j.processing_lo = d.processing_lo;
          j.processing_hi = d.processing_hi;
          return retime_step(d.job, lo, hi);
        }
      },
      step.delta);
}

/// Draws a valid step for `cur` (every candidate keeps the instance
/// valid and feasible); false when sixteen draws found none.
bool valid_step(const Instance& cur, const std::vector<at::Interval>& hulls,
                Rng& rng, Step* out) {
  const int n = cur.num_jobs();
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int j = static_cast<int>(rng.uniform_int(0, n - 1));
    const Job& job = cur.jobs[j];
    const Time len = job.deadline - job.release;
    const std::int64_t need = std::max(job.processing, job.processing_hi);
    const double u = rng.uniform01();
    if (u < 0.30) {
      // A short job inside an existing window.
      Job add;
      add.release = job.release + rng.uniform_int(0, len - 1);
      add.deadline = rng.uniform_int(add.release + 1, job.deadline);
      add.processing = rng.uniform_int(
          1, std::min<std::int64_t>(2, add.deadline - add.release));
      Instance next = cur;
      next.jobs.push_back(add);
      if (!feasible(next)) continue;
      *out = add_step(add);
      return true;
    }
    if (u < 0.45) {
      if (n <= 2) continue;
      *out = remove_step(n - 1);
      return true;
    }
    if (u < 0.65) {
      const at::Interval limit = extension_limit(hulls, job.window());
      const at::Interval w{
          std::max<Time>({0, limit.lo, job.release - rng.uniform_int(0, 2)}),
          std::min<Time>(limit.hi, job.deadline + rng.uniform_int(0, 2))};
      if (w.lo == job.release && w.hi == job.deadline) continue;
      *out = window_step(true, j, w);
      return true;
    }
    if (u < 0.85) {
      if (len <= need) continue;
      const Time lo = job.release + rng.uniform_int(0, len - need);
      const Time hi = rng.uniform_int(lo + need, job.deadline);
      if (lo == job.release && hi == job.deadline) continue;
      Instance next = cur;
      next.jobs[j].release = lo;
      next.jobs[j].deadline = hi;
      if (!feasible(next)) continue;
      *out = window_step(false, j, {lo, hi});
      return true;
    }
    if (job.processing_hi > 0) {
      *out = retime_step(j, 0, 0);
    } else {
      const std::int64_t lo = rng.uniform_int(1, job.processing);
      const std::int64_t hi = rng.uniform_int(
          job.processing, std::min<Time>(len, job.processing + 2));
      *out = retime_step(j, lo, hi);
    }
    return true;
  }
  return false;
}

Expected session_expected(const at::SessionResult& res, int jobs) {
  Expected e;
  e.backend = at::to_string(res.backend);
  e.active_slots = res.active_slots;
  e.lp_value = res.lp_value;
  e.jobs = jobs;
  return e;
}

SessionScript make_script(int tenant, Rng rng, const Config& cfg,
                          std::vector<std::string>* failures) {
  const Instance base = session_base(tenant, rng, cfg.small);
  const std::vector<at::Interval> hulls = group_hulls(base);
  const std::string head = "{\"op\":\"delta\",\"tenant\":\"" +
                           tenant_name(tenant) + "\",\"session\":\"s" +
                           std::to_string(tenant) + "\",";

  // Forward walk, then the inverses of its valid steps in reverse, so
  // one period ends on the opened instance and the script can cycle.
  std::vector<Step> steps;
  std::vector<Step> inverses;
  Instance cur = base;
  for (int k = 0; k < cfg.session_walk; ++k) {
    if (rng.chance(kInvalidDeltaShare)) {
      steps.push_back(invalid_step(cur, rng));
      continue;
    }
    Step step;
    if (!valid_step(cur, hulls, rng, &step)) continue;
    inverses.push_back(apply_and_invert(cur, step));
    steps.push_back(std::move(step));
  }
  for (auto it = inverses.rbegin(); it != inverses.rend(); ++it) {
    if (rng.chance(kInvalidDeltaShare)) steps.push_back(invalid_step(cur, rng));
    apply_and_invert(cur, *it);
    steps.push_back(*it);
  }
  NAT_CHECK_MSG(cur.jobs == base.jobs, "session script does not close");

  SessionScript script;
  script.root_groups = static_cast<int>(at::window_groups(base).size());
  script.open.tenant = tenant;
  script.open.kind = LineKind::kOpen;
  script.open.family = "open";
  script.open.jobs = base.num_jobs();
  script.open.text = "{\"op\":\"open\",\"tenant\":\"" + tenant_name(tenant) +
                     "\",\"session\":\"s" + std::to_string(tenant) + "\"," +
                     payload_body(base) + "}";

  at::SolverSession replica(base);
  script.open.expect = session_expected(replica.solve(), base.num_jobs());
  const auto cross_check = [&](std::size_t step) {
    at::SolverSession fresh(replica.instance());
    const at::SessionResult& a = fresh.solve();
    const at::SessionResult& b = replica.solve();
    if (a.active_slots != b.active_slots || !same_lp(a.lp_value, b.lp_value) ||
        a.backend != b.backend) {
      std::ostringstream why;
      why << tenant_name(tenant) << " step " << step
          << ": incremental session (" << b.active_slots << " slots, LP "
          << b.lp_value << ", " << at::to_string(b.backend)
          << ") differs from a fresh one (" << a.active_slots << ", "
          << a.lp_value << ", " << at::to_string(a.backend) << ")";
      failures->push_back(why.str());
    }
  };
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const Step& step = steps[k];
    Line line;
    line.tenant = tenant;
    line.kind = LineKind::kDelta;
    line.family = step.family;
    line.text = head + step.body + "}";
    if (step.parse_poison) {
      line.expect = error("input:parse");
    } else {
      try {
        const at::SessionResult& res = replica.apply(step.delta);
        line.expect = session_expected(res, replica.num_jobs());
      } catch (const util::CheckError& e) {
        line.expect = error(service::classify_solver_failure(e.what()));
      }
    }
    line.jobs = replica.num_jobs();
    if (line.expect.status == "solved" &&
        !within_lp_sandwich(line.expect.active_slots, line.expect.lp_value)) {
      failures->push_back(tenant_name(tenant) + " step " + std::to_string(k) +
                          ": reference outside LP <= ALG <= 2·LP");
    }
    script.deltas.push_back(std::move(line));
    if ((k + 1) % kFreshCheckEvery == 0 || k + 1 == steps.size()) {
      cross_check(k);
    }
  }
  return script;
}

/// Cell k of batch_large; the families interleave so every
/// solve_batch call gets the same mix.
Instance batch_instance(int k, Rng& rng, bool small, std::string* family) {
  Instance inst;
  // Size knobs cycle with the cell index rather than the seed, so every
  // seed runs the same size mix; the seed varies the random structure.
  const int round = k / 4;
  switch (k % 4) {
    case 0:
      *family = "staircase";
      inst = at::gen::staircase(3 + round % 3, small ? 10 : 60, 5);
      break;
    case 1:
      *family = "binary_nest";
      inst = at::gen::binary_nest(3 + round % 3, small ? 3 : 5);
      break;
    case 2:
      *family = "random_laminar";
      inst = laminar_forest(rng, small ? 40 : 400, 4, 4);
      break;
    default:
      *family = "random_contended";
      inst = contended_forest(rng, small ? 60 : 600, 6 + round % 7, 8);
      break;
  }
  return inst;
}

}  // namespace

const char* to_string(LineKind kind) {
  switch (kind) {
    case LineKind::kLaminar: return "laminar";
    case LineKind::kCrossing: return "crossing";
    case LineKind::kInterval: return "interval";
    case LineKind::kPoison: return "poison";
    case LineKind::kOpen: return "open";
    case LineKind::kDelta: return "delta";
  }
  return "?";
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kDaemonMixed: return "daemon_mixed";
    case Workload::kBatchLarge: return "batch_large";
    case Workload::kSessionDeltas: return "session_deltas";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kDaemonMixed, Workload::kBatchLarge,
                     Workload::kSessionDeltas}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string tenant_name(int t) { return "t" + std::to_string(t); }

std::string tenant_line(int t, int max_in_flight) {
  // Deep queues: the workloads stay far below saturation, so an
  // admission reject would be a finding, not back-pressure by design.
  return "{\"op\":\"tenant\",\"tenant\":\"" + tenant_name(t) +
         "\",\"weight\":1,\"max_queue_depth\":100000,\"max_in_flight\":" +
         std::to_string(max_in_flight) + "}";
}

std::string check_record(const obs::Json& record, const Expected& expected) {
  std::ostringstream why;
  const auto text = [&](const char* key) -> std::string {
    const obs::Json* f = record.find(key);
    return f != nullptr && f->type() == obs::Json::Type::kString
               ? f->as_string()
               : std::string("<none>");
  };
  const auto number = [&](const char* key, double missing) {
    const obs::Json* f = record.find(key);
    return f != nullptr && f->is_number() ? f->as_double() : missing;
  };
  const std::string status = text("status");
  if (status != expected.status) {
    why << "status " << status << " (" << text("failure_class") << ": "
        << text("error") << "), expected " << expected.status;
  } else if (status == "error") {
    if (text("failure_class") != expected.failure_class) {
      why << "class " << text("failure_class") << ", expected "
          << expected.failure_class;
    }
  } else {
    if (text("backend") != expected.backend) {
      why << "backend " << text("backend") << " != " << expected.backend
          << "; ";
    }
    if (number("active_slots", -1) !=
        static_cast<double>(expected.active_slots)) {
      why << "active_slots " << number("active_slots", -1)
          << " != " << expected.active_slots << "; ";
    }
    if (!same_lp(number("lp_value", -1), expected.lp_value)) {
      why << "lp_value " << number("lp_value", -1)
          << " != " << expected.lp_value << "; ";
    }
    if (expected.jobs >= 0 &&
        number("jobs", -1) != static_cast<double>(expected.jobs)) {
      why << "jobs " << number("jobs", -1) << " != " << expected.jobs << "; ";
    }
    if (expected.robust_hi >= 0 &&
        (!same_lp(number("robust_lo", -1), expected.robust_lo) ||
         number("robust_hi", -1) !=
             static_cast<double>(expected.robust_hi))) {
      why << "robust box [" << number("robust_lo", -1) << ", "
          << number("robust_hi", -1) << "] != [" << expected.robust_lo << ", "
          << expected.robust_hi << "]";
    }
  }
  return why.str();
}

DaemonMixedInput make_daemon_mixed(const Config& cfg) {
  DaemonMixedInput in;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 11);
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.offered_rps * cfg.seconds)));
  std::vector<Draw> draws;
  draws.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int tenant = static_cast<int>(rng.uniform_int(0, kTenants - 1));
    draws.push_back(draw_daemon_payload(rng, cfg.small));
    in.lines.push_back(daemon_line(draws.back(), i, tenant));
    // Fixed offered rate; the first request is due 1 ms in.
    in.due_ms.push_back(1.0 + 1000.0 * static_cast<double>(i) /
                                  cfg.offered_rps);
  }

  std::vector<std::string> failures(n);
  for_each_parallel(n, [&](std::size_t i) {
    Line& line = in.lines[i];
    if (line.kind == LineKind::kPoison) return;
    const at::RobustSolveResult r = at::solve_robust(draws[i].instance);
    Expected& e = line.expect;
    e.backend = at::to_string(r.nominal.backend);
    e.active_slots = r.nominal.active_slots;
    e.lp_value = r.nominal.lp_value;
    e.jobs = line.jobs;
    e.robust_lo = r.robust_lo;
    e.robust_hi = r.robust_hi;
    if (!within_lp_sandwich(e.active_slots, e.lp_value)) {
      failures[i] = "line " + std::to_string(i) +
                    ": reference outside LP <= ALG <= 2·LP";
    }
  });
  for (std::string& f : failures) {
    if (!f.empty()) in.reference_failures.push_back(std::move(f));
  }
  return in;
}

BatchLargeInput make_batch_large(const Config& cfg) {
  BatchLargeInput in;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 22);
  std::vector<Instance> instances;
  for (int k = 0; k < cfg.batch_cells; ++k) {
    Line line;
    Instance inst = redraw(
        [&] { return batch_instance(k, rng, cfg.small, &line.family); });
    line.kind = LineKind::kLaminar;
    line.jobs = inst.num_jobs();
    line.text = "{\"id\":\"c" + std::to_string(k) + "\"," + payload_body(inst) +
                "}";
    in.cells.push_back(std::move(line));
    instances.push_back(std::move(inst));
  }

  std::vector<std::string> failures(in.cells.size());
  for_each_parallel(in.cells.size(), [&](std::size_t k) {
    const at::ActiveTimeResult r = at::solve_active_time(instances[k]);
    Expected& e = in.cells[k].expect;
    e.backend = at::to_string(r.backend);
    e.active_slots = r.active_slots;
    e.lp_value = r.lp_value;
    e.jobs = in.cells[k].jobs;
    if (!within_lp_sandwich(e.active_slots, e.lp_value)) {
      failures[k] = "cell " + std::to_string(k) +
                    ": reference outside LP <= ALG <= 2·LP";
    }
  });
  for (std::string& f : failures) {
    if (!f.empty()) in.reference_failures.push_back(std::move(f));
  }
  return in;
}

SessionDeltasInput make_session_deltas(const Config& cfg) {
  SessionDeltasInput in;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 33);
  in.tenants.resize(static_cast<std::size_t>(kTenants));
  std::vector<std::vector<std::string>> failures(in.tenants.size());
  std::vector<Rng> streams;
  for (int t = 0; t < kTenants; ++t) streams.push_back(rng.fork(t));
  for_each_parallel(in.tenants.size(), [&](std::size_t t) {
    in.tenants[t] =
        make_script(static_cast<int>(t), streams[t], cfg, &failures[t]);
  });
  for (auto& f : failures) {
    in.reference_failures.insert(in.reference_failures.end(), f.begin(),
                                 f.end());
  }
  return in;
}

}  // namespace nat::e2e
