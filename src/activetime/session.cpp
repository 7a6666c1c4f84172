#include "activetime/session.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "activetime/general.hpp"
#include "activetime/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::at {

namespace {

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

/// Folds one field into a key. The field is spread by a splitmix64
/// step first: `mix` alone folds small integers with structured
/// collisions (the intervals [1, 15) and [0, 80) would meet).
std::uint64_t fold(std::uint64_t h, std::int64_t field) {
  auto state = static_cast<std::uint64_t>(field);
  return mix(h, util::splitmix64(state));
}

/// Cache key of a root window group. Two live groups with one key
/// would evict each other from the cache, so every field is folded.
std::uint64_t group_key(std::int64_t g, const std::vector<Job>& jobs) {
  std::uint64_t h = fold(0x243F6A8885A308D3ull, g);
  for (const Job& j : jobs) {
    h = fold(h, j.release);
    h = fold(h, j.deadline);
    h = fold(h, j.processing);
    h = fold(h, j.processing_lo);
    h = fold(h, j.processing_hi);
  }
  return h;
}

/// Content key per LP variable, stable across models of overlapping
/// instances: a node is identified by its interval, virtual flag, and
/// occurrence rank (canonicalization can create several virtual nodes
/// with the same hull), a class by its node, processing time, and
/// member count; x and y keys are tagged apart. Keys are compared by
/// value alone. The group cache compares jobs on a hit, because a
/// collision there would return another group's slots; a key collision
/// here only changes a warm hint, and the canonicalizing LP lands on
/// the same vertex from any hint (docs/INCREMENTAL.md). Keys that fail
/// to map between two models simply lose their warm hint — mapping is
/// a performance channel, never a correctness one.
std::vector<std::uint64_t> variable_keys(const LaminarForest& forest,
                                         const StrongLp& lp) {
  std::vector<std::uint64_t> nd(forest.num_nodes());
  std::unordered_map<std::uint64_t, std::int64_t> seen;  // per triple
  for (int i = 0; i < forest.num_nodes(); ++i) {
    const TreeNode& n = forest.node(i);
    const std::uint64_t triple =
        fold(fold(fold(0, n.interval.lo), n.interval.hi), n.is_virtual);
    nd[i] = fold(triple, seen[triple]++);
  }
  std::vector<std::uint64_t> keys(
      static_cast<std::size_t>(lp.model.num_variables()));
  for (int i = 0; i < forest.num_nodes(); ++i) {
    keys[static_cast<std::size_t>(lp.x_var[i])] = mix(1, nd[i]);
  }
  for (std::size_t c = 0; c < lp.classes.size(); ++c) {
    const JobClass& jc = lp.classes[c];
    const std::uint64_t ckey =
        fold(fold(mix(2, nd[jc.node]), jc.processing), jc.count());
    for (const auto& [node, var] : lp.y_vars[c]) {
      keys[static_cast<std::size_t>(var)] = mix(ckey, nd[node]);
    }
  }
  return keys;
}

Interval union_window(const std::vector<Job>& jobs) {
  Interval w = jobs.front().window();
  for (const Job& j : jobs) {
    w.lo = std::min(w.lo, j.release);
    w.hi = std::max(w.hi, j.deadline);
  }
  return w;
}

Time overlap_length(const Interval& a, const Interval& b) {
  return std::max<Time>(0, std::min(a.hi, b.hi) - std::max(a.lo, b.lo));
}

}  // namespace

std::vector<std::vector<int>> window_groups(const Instance& instance) {
  const int n = static_cast<int>(instance.jobs.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Job& ja = instance.jobs[static_cast<std::size_t>(a)];
    const Job& jb = instance.jobs[static_cast<std::size_t>(b)];
    if (ja.release != jb.release) return ja.release < jb.release;
    if (ja.deadline != jb.deadline) return ja.deadline > jb.deadline;
    return a < b;
  });
  std::vector<std::vector<int>> groups;
  Time hi = 0;
  for (int j : order) {
    const Job& job = instance.jobs[static_cast<std::size_t>(j)];
    if (groups.empty() || job.release >= hi) {
      groups.emplace_back();
      hi = job.deadline;
    }
    groups.back().push_back(j);
    hi = std::max(hi, job.deadline);
  }
  for (auto& g : groups) std::sort(g.begin(), g.end());
  return groups;
}

SolverSession::SolverSession(Instance initial)
    : instance_(std::move(initial)) {
  instance_.validate();
}

const SessionResult& SolverSession::solve() {
  if (!solved_) resolve();
  return result_;
}

const SessionResult& SolverSession::apply(const Delta& delta) {
  if (!solved_) resolve();  // baseline to roll back to
  Instance backup = instance_;
  try {
    std::visit(
        Overload{
            [&](const AddJob& d) { instance_.jobs.push_back(d.job); },
            [&](const RemoveJob& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "RemoveJob: index out of range");
              instance_.jobs.erase(instance_.jobs.begin() + d.job);
            },
            [&](const ExtendWindow& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "ExtendWindow: index out of range");
              Job& j = instance_.jobs[static_cast<std::size_t>(d.job)];
              NAT_CHECK_MSG(
                  d.window.lo <= j.release && d.window.hi >= j.deadline,
                  "ExtendWindow: new window must contain the old one");
              j.release = d.window.lo;
              j.deadline = d.window.hi;
            },
            [&](const ShrinkWindow& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "ShrinkWindow: index out of range");
              Job& j = instance_.jobs[static_cast<std::size_t>(d.job)];
              NAT_CHECK_MSG(
                  d.window.lo >= j.release && d.window.hi <= j.deadline,
                  "ShrinkWindow: new window must fit inside the old one");
              j.release = d.window.lo;
              j.deadline = d.window.hi;
            },
            [&](const Retime& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "Retime: index out of range");
              Job& j = instance_.jobs[static_cast<std::size_t>(d.job)];
              j.processing_lo = d.processing_lo;
              j.processing_hi = d.processing_hi;
            },
        },
        delta);
    instance_.validate();
    resolve();
  } catch (...) {
    instance_ = std::move(backup);
    throw;
  }
  return result_;
}

void SolverSession::resolve() {
  const auto groups = window_groups(instance_);

  // Pass 1: match groups against the cache by content.
  struct Planned {
    std::uint64_t key = 0;
    std::vector<Job> jobs;
    Interval window{0, 0};
    GroupSolve* reuse = nullptr;  // matching cache entry, if any
    GroupSolve solved;            // this resolve's solve otherwise
  };
  std::vector<Planned> plan(groups.size());
  std::unordered_set<std::uint64_t> matched;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    Planned& p = plan[gi];
    p.jobs.reserve(groups[gi].size());
    for (int m : groups[gi]) {
      p.jobs.push_back(instance_.jobs[static_cast<std::size_t>(m)]);
    }
    p.window = union_window(p.jobs);
    p.key = group_key(instance_.g, p.jobs);
    auto it = cache_.find(p.key);
    if (it != cache_.end() && it->second.jobs == p.jobs) {
      p.reuse = &it->second;
      matched.insert(p.key);
    }
  }
  // Displaced entries become warm hints for the dirty groups.
  std::vector<const GroupSolve*> leftovers;
  for (const auto& [key, entry] : cache_) {
    if (!matched.count(key)) leftovers.push_back(&entry);
  }

  SessionResult res;
  res.backend = Backend::kNested;
  res.schedule.assignment.resize(instance_.jobs.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (plan[gi].reuse != nullptr) {
      ++stats_.groups_reused;
    } else {
      ++stats_.groups_resolved;
      // Best hint: the displaced entry with the largest window overlap
      // (deterministic tie-break on window position). Hints only steer
      // warm starts — the canonicalizing LP lands on the same vertex
      // with any hint or none.
      const GroupSolve* hint = nullptr;
      Time best = 0;
      for (const GroupSolve* cand : leftovers) {
        const Time ov = overlap_length(cand->window, plan[gi].window);
        if (ov > best ||
            (ov == best && hint != nullptr && ov > 0 &&
             (cand->window.lo < hint->window.lo ||
              (cand->window.lo == hint->window.lo &&
               cand->window.hi < hint->window.hi)))) {
          best = ov;
          hint = cand;
        }
      }
      plan[gi].solved = solve_group(groups[gi], hint);
    }
    const GroupSolve& entry =
        plan[gi].reuse != nullptr ? *plan[gi].reuse : plan[gi].solved;
    const auto& members = groups[gi];
    NAT_DCHECK(entry.slots.size() == members.size());
    for (std::size_t p = 0; p < members.size(); ++p) {
      res.schedule.assignment[static_cast<std::size_t>(members[p])] =
          entry.slots[p];
    }
    res.lp_value += entry.lp_value;
    res.repairs += entry.repairs;
    // Most-degraded backend wins: greedy > general > nested.
    if (entry.backend == Backend::kGreedy ||
        (entry.backend == Backend::kGeneral &&
         res.backend == Backend::kNested)) {
      res.backend = entry.backend;
    }
  }
  res.active_slots = res.schedule.active_slots();
  // Sessions are long-lived state: every assembled schedule is
  // validated against the current instance (cheap next to the solve).
  if (!instance_.jobs.empty()) validate_schedule(instance_, res.schedule);
  // Every check that can reject the delta is behind us, so a failed
  // resolve leaves cache_ untouched. Reused entries move into the next
  // cache: root groups have disjoint windows, so each entry matches at
  // most one group.
  std::unordered_map<std::uint64_t, GroupSolve> next;
  next.reserve(groups.size());
  for (Planned& p : plan) {
    next.emplace(p.key, std::move(p.reuse != nullptr ? *p.reuse : p.solved));
  }
  cache_ = std::move(next);
  result_ = std::move(res);
  solved_ = true;
}

SolverSession::GroupSolve SolverSession::solve_group(
    const std::vector<int>& members, const GroupSolve* hint) {
  GroupSolve out;
  out.jobs.reserve(members.size());
  for (int m : members) {
    out.jobs.push_back(instance_.jobs[static_cast<std::size_t>(m)]);
  }
  out.window = union_window(out.jobs);

  Instance sub;
  sub.g = instance_.g;
  sub.jobs = out.jobs;
  ++stats_.oracle_builds;

  if (!sub.is_laminar()) {
    // Crossing windows: dispatch this group to the general 2-approx
    // backend. No basis is exported (the time-indexed LP's variables do
    // not map onto the strong LP's), so a later re-solve of this group
    // starts cold — mapping is a performance channel, never a
    // correctness one, and the content cache still dedupes repeats.
    GeneralSolverOptions general;
    general.cancel = cancel_;
    GeneralSolveResult res = solve_general(sub, general);
    out.backend = res.lp_failed ? Backend::kGreedy : Backend::kGeneral;
    out.lp_value = res.lp_value;
    out.repairs = res.repairs;
    out.slots = std::move(res.schedule.assignment);
    return out;
  }

  // The warm LP (1) step: map the hint's exported basis onto this
  // model by variable content keys, solve on the canonicalizing sparse
  // simplex, and export this model's basis for the next delta.
  const auto warm_lp = [&](const LaminarForest& forest, const StrongLp& lp) {
    out.var_keys = variable_keys(forest, lp);
    lp::SolveOptions lp_options;
    lp_options.cancel = cancel_;
    lp::WarmOptions warm;
    warm.canonical = true;
    warm.export_basis = &out.basis;
    lp::Basis mapped;
    if (hint != nullptr && !hint->basis.empty() &&
        hint->var_keys.size() == hint->basis.variables.size()) {
      std::unordered_map<std::uint64_t, lp::VarStatus> old_status;
      old_status.reserve(hint->var_keys.size());
      for (std::size_t v = 0; v < hint->var_keys.size(); ++v) {
        old_status.emplace(hint->var_keys[v], hint->basis.variables[v]);
      }
      mapped.variables.assign(out.var_keys.size(), lp::VarStatus::kAtLower);
      for (std::size_t v = 0; v < out.var_keys.size(); ++v) {
        auto it = old_status.find(out.var_keys[v]);
        if (it != old_status.end()) mapped.variables[v] = it->second;
      }
      warm.warm = &mapped;
    }
    lp::SparseStats lp_stats;
    lp::Solution sol =
        lp::solve_sparse_warm(lp.model, lp_options, warm, &lp_stats);
    stats_.lp_warm_hits += lp_stats.warm_hit;
    stats_.lp_warm_repairs += lp_stats.warm_repair;
    stats_.lp_cold_fallbacks += lp_stats.cold_fallback;
    return sol;
  };
  NestedSolverOptions nested;
  nested.cancel = cancel_;
  NestedSolveResult res = solve_nested(sub, nested, warm_lp);
  out.lp_value = res.lp_value;
  out.repairs = res.repairs;
  out.slots = std::move(res.schedule.assignment);
  return out;
}

}  // namespace nat::at
