// bench_e2e — the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload <daemon_mixed|batch_large|session_deltas>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload from the seed, computes every line's expected
// record, drives the surface untraced for --seconds, and — with
// --trace 1 — replays the inputs layer by layer. Diagnostic lines go to
// stdout first; the last line is one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status: 0 when every line got its expected record,
// 1 on any mismatch, 2 on a usage error or a refused program.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/bench.hpp"
#include "harness/stats.hpp"
#include "util/stopwatch.hpp"

using namespace nat;
using namespace nat::e2e;

namespace {

obs::Json metric(double value, const char* unit) {
  obs::Json j = obs::Json::object();
  j["value"] = value;
  j["unit"] = unit;
  return j;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Shares and spreads of the inputs, so a later claim of the form
/// "helps only inputs with property X" can cite how common X is.
obs::Json properties(const std::vector<const Line*>& lines) {
  std::vector<double> jobs;
  double bytes = 0.0;
  int crossing = 0, interval = 0, poisoned = 0, mid = 0;
  for (const Line* line : lines) {
    bytes += static_cast<double>(line->text.size());
    crossing += line->kind == LineKind::kCrossing;
    interval += line->kind == LineKind::kInterval;
    if (line->kind == LineKind::kPoison ||
        line->expect.status != "solved") {
      ++poisoned;
      continue;
    }
    jobs.push_back(line->jobs);
    mid += line->jobs >= 45 && line->jobs <= 70;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, lines.size()));
  obs::Json j = obs::Json::object();
  j["lines"] = static_cast<std::int64_t>(lines.size());
  j["crossing_share"] = crossing / n;
  j["interval_share"] = interval / n;
  j["failing_share"] = poisoned / n;
  std::sort(jobs.begin(), jobs.end());
  j["jobs_min"] = jobs.empty() ? 0.0 : jobs.front();
  j["jobs_median"] = median(jobs);
  j["jobs_max"] = jobs.empty() ? 0.0 : jobs.back();
  j["jobs_45_70_share"] = mid / n;
  j["bytes_per_line"] = bytes / n;
  return j;
}

obs::Json end_to_end(const SurfaceRun& run) {
  const Tail t = tail(run.latency_ms);
  obs::Json m = obs::Json::object();
  m["setup_s"] = metric(median(run.setup_s), "s");
  m["throughput_ops"] =
      metric(ratio(static_cast<double>(run.completed), run.elapsed_s), "1/s");
  m["latency_p50_ms"] = metric(median(run.latency_ms), "ms");
  m["latency_tail_ms"] = metric(t.value, "ms");
  m["ok_frac"] = metric(
      ratio(static_cast<double>(run.attempted - run.failed),
            static_cast<double>(run.attempted)),
      "frac");
  m["alg_over_lp"] = metric(run.alg_over_lp, "ratio");
  m["cpu_ms_per_op"] =
      metric(ratio(run.cpu_s * 1e3, static_cast<double>(run.completed)), "ms");
  m["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  return m;
}

obs::Json per_layer(const Replay& replay, const SurfaceRun& run) {
  const LayerTrace& t = replay.all;
  const auto self = [&](const char* layer) {
    const auto it = t.self_ms.find(layer);
    return it == t.self_ms.end() ? 0.0 : it->second;
  };
  const auto work = [&](const char* key) {
    const auto it = t.work.find(key);
    return it == t.work.end() ? 0.0 : it->second;
  };
  obs::Json m = obs::Json::object();
  const auto time_share = [&](const std::string& prefix, const char* layer) {
    m[prefix + ".ms"] =
        metric(ratio(self(layer), static_cast<double>(t.requests)), "ms");
    m[prefix + ".share"] = metric(ratio(self(layer), t.total_ms), "frac");
  };

  time_share("service.parse", "service.parse");
  m["service.parse.bytes"] =
      metric(ratio(work("parse.bytes"), work("parse.lines")), "B");
  time_share("service.serialize", "service.serialize");
  m["service.serialize.bytes"] =
      metric(ratio(work("serialize.bytes"), work("serialize.records")), "B");

  m["daemon.queue.wait_ms_p50"] = metric(median(run.queue_ms), "ms");
  m["daemon.queue.wait_ms_tail"] = metric(tail(run.queue_ms).value, "ms");
  m["daemon.queue.rejected"] =
      metric(static_cast<double>(run.rejected), "count");
  m["daemon.envelope.ms_p50"] = metric(median(run.envelope_ms), "ms");

  time_share("activetime.dispatch", "activetime.dispatch");
  time_share("activetime.tree", "activetime.tree");
  m["activetime.tree.nodes"] =
      metric(ratio(work("tree.nodes"), work("tree.builds")), "count");
  time_share("activetime.oracle", "activetime.oracle");
  m["activetime.oracle.queries"] =
      metric(ratio(work("oracle.queries"), static_cast<double>(t.requests)),
             "count");
  m["activetime.oracle.warm_hit_rate"] = metric(
      ratio(work("oracle.warm_queries"), work("oracle.queries")), "frac");
  time_share("activetime.lp_relaxation", "activetime.lp_relaxation");
  m["activetime.lp_relaxation.rows"] = metric(
      ratio(work("lp_relaxation.rows"), work("lp_relaxation.builds")), "count");
  m["activetime.lp_relaxation.cols"] = metric(
      ratio(work("lp_relaxation.cols"), work("lp_relaxation.builds")), "count");
  time_share("lp.solve", "lp.solve");
  m["lp.solve.pivots"] =
      metric(ratio(work("lp.pivots"), work("lp.solves")), "count");
  m["lp.solve.refactorizations"] =
      metric(ratio(work("lp.refactorizations"), work("lp.solves")), "count");
  m["lp.solve.bound_flips"] =
      metric(ratio(work("lp.bound_flips"), work("lp.solves")), "count");
  time_share("activetime.lp_transform", "activetime.lp_transform");
  time_share("activetime.rounding", "activetime.rounding");
  time_share("activetime.repair", "activetime.repair");
  m["activetime.repair.repairs"] =
      metric(ratio(work("repair.repairs"), work("repair.calls")), "count");
  m["activetime.repair.cut_skip_rate"] = metric(
      ratio(work("repair.cut_skips"),
            work("repair.cut_skips") + work("repair.probes")),
      "frac");
  time_share("activetime.extract", "activetime.extract");

  time_share("activetime.general", "activetime.general");
  const double general = work("general.solves");
  m["activetime.general.lp_build_ms"] =
      metric(ratio(work("general.lp_build_ms"), general), "ms");
  m["activetime.general.lp_solve_ms"] =
      metric(ratio(work("general.lp_solve_ms"), general), "ms");
  m["activetime.general.round_repair_ms"] =
      metric(ratio(work("general.round_repair_ms"), general), "ms");
  m["activetime.general.repairs"] =
      metric(ratio(work("general.repairs"), general), "count");
  m["activetime.general.threshold_rate"] =
      metric(ratio(work("general.threshold"), general), "frac");
  time_share("activetime.robust", "activetime.robust");

  time_share("activetime.session", "activetime.session");
  const double deltas = work("session.deltas");
  const double resolved = work("session.groups_resolved");
  const double warm = work("session.lp_warm");
  const double cold = work("session.lp_cold");
  m["activetime.session.groups_resolved"] =
      metric(ratio(resolved, deltas), "count");
  m["activetime.session.reuse_rate"] = metric(
      ratio(work("session.groups_reused"),
            work("session.groups_reused") + resolved),
      "frac");
  m["activetime.session.lp_warm_rate"] =
      metric(ratio(warm, warm + cold), "frac");
  m["activetime.session.lp_cold_fallbacks"] =
      metric(ratio(cold, deltas), "count");
  m["activetime.session.rollbacks"] =
      metric(work("session.rollbacks"), "count");

  time_share("unattributed", "unattributed");
  m["loadgen.late_ms_tail"] = metric(tail(run.late_ms).value, "ms");
  m["loadgen.offered_rps"] = metric(run.offered_rps, "1/s");
  return m;
}

/// One line per layer: mean self ms per request and share of the total.
obs::Json breakdown(const LayerTrace& t) {
  obs::Json j = obs::Json::object();
  j["requests"] = t.requests;
  j["mean_total_ms"] = ratio(t.total_ms, static_cast<double>(t.requests));
  obs::Json layers = obs::Json::object();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto it = t.self_ms.find(kLayers[i]);
    const double ms = it == t.self_ms.end() ? 0.0 : it->second;
    obs::Json l = obs::Json::object();
    l["ms"] = ratio(ms, static_cast<double>(t.requests));
    l["share"] = ratio(ms, t.total_ms);
    layers[kLayers[i]] = std::move(l);
  }
  j["layers"] = std::move(layers);
  return j;
}

int usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload "
               "<daemon_mixed|batch_large|session_deltas> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  Workload workload = Workload::kDaemonMixed;
  bool have_workload = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!parse_workload(value, &workload)) {
        return usage("unknown workload " + value);
      }
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad seed " + value);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0.0) || cfg.seconds > 600.0) {
        return usage("bad seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad trace " + value);
      trace = value == "1";
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_workload) return usage("--workload is required");
  const std::string refused = guard_violation();
  if (!refused.empty()) {
    std::cerr << "bench_e2e: refusing to measure a non-default program: "
              << refused << "\n";
    return 2;
  }

  std::cout << "bench_e2e stamp " << program_stamp().dump() << "\n";
  const util::Stopwatch gen_sw;
  DaemonMixedInput daemon_input;
  BatchLargeInput batch_input;
  SessionDeltasInput session_input;
  std::vector<std::string> reference_failures;
  obs::Json props = obs::Json::object();
  std::vector<const Line*> lines;
  switch (workload) {
    case Workload::kDaemonMixed:
      daemon_input = make_daemon_mixed(cfg);
      reference_failures = daemon_input.reference_failures;
      for (const Line& l : daemon_input.lines) lines.push_back(&l);
      props = properties(lines);
      break;
    case Workload::kBatchLarge:
      batch_input = make_batch_large(cfg);
      reference_failures = batch_input.reference_failures;
      for (const Line& l : batch_input.cells) lines.push_back(&l);
      props = properties(lines);
      break;
    case Workload::kSessionDeltas: {
      session_input = make_session_deltas(cfg);
      reference_failures = session_input.reference_failures;
      obs::Json groups = obs::Json::array();
      obs::Json opened = obs::Json::array();
      for (const SessionScript& s : session_input.tenants) {
        for (const Line& l : s.deltas) lines.push_back(&l);
        groups.push_back(static_cast<std::int64_t>(s.root_groups));
        opened.push_back(static_cast<std::int64_t>(s.open.jobs));
      }
      props = properties(lines);
      props["session_jobs"] = std::move(opened);
      props["root_groups_per_session"] = std::move(groups);
      break;
    }
  }
  props["workload"] = to_string(workload);
  props["seed"] = static_cast<std::int64_t>(cfg.seed);
  props["generate_s"] = gen_sw.seconds();
  std::cout << "bench_e2e properties " << props.dump() << "\n";

  SurfaceRun run;
  switch (workload) {
    case Workload::kDaemonMixed:
      run = run_daemon_mixed(daemon_input, cfg);
      break;
    case Workload::kBatchLarge:
      run = run_batch_large(batch_input, cfg);
      break;
    case Workload::kSessionDeltas:
      run = run_session_deltas(session_input, cfg);
      break;
  }
  std::int64_t failed =
      run.failed + static_cast<std::int64_t>(reference_failures.size());
  std::vector<std::string> failures = reference_failures;
  failures.insert(failures.end(), run.failures.begin(), run.failures.end());

  const Tail t = tail(run.latency_ms);
  obs::Json detail = obs::Json::object();
  detail["latency_samples"] = static_cast<std::int64_t>(run.latency_ms.size());
  detail["latency_tail_percentile"] = t.percentile;
  detail["latency_tail_beyond"] = static_cast<std::int64_t>(t.beyond);
  detail["measured_s"] = run.elapsed_s;
  detail["setup_samples"] = static_cast<std::int64_t>(run.setup_s.size());
  std::cout << "bench_e2e detail " << detail.dump() << "\n";

  obs::Json metrics;
  if (trace) {
    Replay replay;
    switch (workload) {
      case Workload::kDaemonMixed:
        replay = replay_daemon_mixed(daemon_input, cfg);
        break;
      case Workload::kBatchLarge:
        replay = replay_batch_large(batch_input, cfg);
        break;
      case Workload::kSessionDeltas:
        replay = replay_session_deltas(session_input, cfg);
        break;
    }
    failed += replay.all.mismatches;
    failures.insert(failures.end(), replay.all.failures.begin(),
                    replay.all.failures.end());
    std::cout << "bench_e2e layers " << breakdown(replay.all).dump() << "\n";
    if (replay.mid_jobs.requests > 0) {
      std::cout << "bench_e2e layers_45_70_jobs "
                << breakdown(replay.mid_jobs).dump() << "\n";
    }
    metrics = per_layer(replay, run);
  } else {
    metrics = end_to_end(run);
  }

  for (const std::string& f : failures) {
    std::cout << "bench_e2e FAILED " << f << "\n";
  }
  obs::Json result = obs::Json::object();
  result["correct"] = failed == 0;
  result["attempted"] = std::max<std::int64_t>(1, run.attempted);
  result["failed"] = failed;
  result["metrics"] = std::move(metrics);
  std::cout << result.dump() << std::endl;
  return failed == 0 ? 0 : 1;
}
