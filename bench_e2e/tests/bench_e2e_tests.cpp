// The end-to-end benchmark's own tests: the order statistics it
// reports, open-loop lateness accounting on a fake clock, the traced
// replay agreeing with the surfaces on a small seed of every workload,
// and poisoned lines getting their exact failure classes.
//
//   cmake --build .bench_build/bench_e2e --target bench_e2e_tests
//   .bench_build/bench_e2e/bench_e2e_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "daemon/daemon.hpp"
#include "harness/bench.hpp"
#include "harness/loadgen.hpp"
#include "harness/stats.hpp"

namespace nat::e2e {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Stats, NearestRankPercentile) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Stats, TailHasTenSamplesBeyond) {
  // 100 samples: p90 leaves exactly 10 above it, p95 only 5.
  Tail t = tail(one_to(100));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 90.0);

  // 1000 samples: p99 leaves 10, p99.9 only 1.
  t = tail(one_to(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990.0);

  // The ladder tops out at p99, however many samples there are.
  t = tail(one_to(10000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 100u);
  EXPECT_EQ(samples_beyond(99.9, 10000), 10u);

  // Just below a threshold the rule steps down the ladder.
  t = tail(one_to(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_GE(t.beyond, kTailBeyond);

  // Too few samples for any percentile: the maximum, marked p100.
  t = tail(one_to(5));
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 5.0);
  EXPECT_EQ(t.beyond, 0u);
}

TEST(Stats, SamplesBeyondMatchesLadder) {
  for (std::size_t n : {1u, 10u, 11u, 20u, 21u, 200u, 1000u, 12345u}) {
    for (double p : kTailLadder) {
      std::size_t above = 0;
      const std::vector<double> v = one_to(static_cast<int>(n));
      const double cut = percentile(v, p);
      for (double x : v) above += x > cut;
      EXPECT_EQ(samples_beyond(p, n), above) << "n=" << n << " p=" << p;
    }
  }
}

/// Time moves only when a sleep targets the future or a test says so.
class FakeClock final : public Clock {
 public:
  double now_ms() override { return now_; }
  void sleep_until_ms(double t) override { now_ = std::max(now_, t); }
  void advance(double ms) { now_ += ms; }

 private:
  double now_ = 0.0;
};

TEST(OpenLoop, OnTimeSendsAreNotLate) {
  FakeClock clock;
  std::vector<std::size_t> order;
  const OpenLoopTrace trace = run_open_loop(
      clock, {0.0, 10.0, 20.0}, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(trace.sent_ms, (std::vector<double>{0.0, 10.0, 20.0}));
  EXPECT_EQ(trace.late_ms, (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(OpenLoop, StallIsChargedToLaterRequests) {
  // Sending request 1 takes 25 ms: request 2 (due at 20) goes out 15 ms
  // late and request 3 (due at 30) 5 ms late; request 4 is on time.
  FakeClock clock;
  const OpenLoopTrace trace =
      run_open_loop(clock, {0.0, 10.0, 20.0, 30.0, 50.0}, [&](std::size_t i) {
        if (i == 1) clock.advance(25.0);
      });
  EXPECT_EQ(trace.sent_ms, (std::vector<double>{0.0, 10.0, 35.0, 35.0, 50.0}));
  EXPECT_EQ(trace.late_ms, (std::vector<double>{0.0, 0.0, 15.0, 5.0, 0.0}));
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // A request due at 20 but sent at 35 whose record lands at 40 waited
  // 20 ms as its user sees it, not the 5 ms after the late send.
  FakeClock clock;
  const std::vector<double> due = {0.0, 20.0};
  const OpenLoopTrace trace = run_open_loop(clock, due, [&](std::size_t i) {
    if (i == 0) clock.advance(35.0);
  });
  const double record_at = trace.sent_ms[1] + 5.0;
  EXPECT_EQ(record_at - due[1], 20.0);
  EXPECT_EQ(trace.late_ms[1], 15.0);
}

Config small_config(std::uint64_t seed) {
  Config cfg;
  cfg.seed = seed;
  cfg.small = true;
  cfg.seconds = 0.3;
  cfg.offered_rps = 200.0;
  cfg.setup_reps = 2;
  cfg.replay_limit = 60;
  cfg.batch_cells = 8;
  cfg.batch_cells_per_call = 4;
  cfg.session_walk = 20;
  return cfg;
}

void expect_clean(const SurfaceRun& run, const Replay& replay) {
  EXPECT_EQ(run.failed, 0) << (run.failures.empty() ? "" : run.failures[0]);
  EXPECT_GT(run.completed, 0);
  EXPECT_EQ(static_cast<std::size_t>(run.completed), run.latency_ms.size());
  EXPECT_GT(replay.all.requests, 0);
  EXPECT_EQ(replay.all.mismatches, 0)
      << (replay.all.failures.empty() ? "" : replay.all.failures[0]);
  // Every layer's self time is accounted for, unattributed included.
  double sum = 0.0;
  for (const auto& [layer, ms] : replay.all.self_ms) sum += ms;
  EXPECT_NEAR(sum, replay.all.total_ms, 1e-6 * (1.0 + replay.all.total_ms));
}

TEST(Replay, DaemonMixedMatchesSurface) {
  const Config cfg = small_config(3);
  const DaemonMixedInput input = make_daemon_mixed(cfg);
  EXPECT_TRUE(input.reference_failures.empty());
  expect_clean(run_daemon_mixed(input, cfg), replay_daemon_mixed(input, cfg));
}

TEST(Replay, BatchLargeMatchesSurface) {
  const Config cfg = small_config(4);
  const BatchLargeInput input = make_batch_large(cfg);
  EXPECT_TRUE(input.reference_failures.empty());
  expect_clean(run_batch_large(input, cfg), replay_batch_large(input, cfg));
}

TEST(Replay, SessionDeltasMatchesSurface) {
  const Config cfg = small_config(5);
  const SessionDeltasInput input = make_session_deltas(cfg);
  EXPECT_TRUE(input.reference_failures.empty());
  for (const SessionScript& script : input.tenants) {
    EXPECT_FALSE(script.deltas.empty());
  }
  expect_clean(run_session_deltas(input, cfg),
               replay_session_deltas(input, cfg));
}

TEST(Inputs, SameSeedSameInputs) {
  const Config cfg = small_config(9);
  const DaemonMixedInput a = make_daemon_mixed(cfg);
  const DaemonMixedInput b = make_daemon_mixed(cfg);
  ASSERT_EQ(a.lines.size(), b.lines.size());
  for (std::size_t i = 0; i < a.lines.size(); ++i) {
    EXPECT_EQ(a.lines[i].text, b.lines[i].text);
    EXPECT_EQ(a.lines[i].expect.active_slots, b.lines[i].expect.active_slots);
  }
  const SessionDeltasInput s1 = make_session_deltas(cfg);
  const SessionDeltasInput s2 = make_session_deltas(cfg);
  ASSERT_EQ(s1.tenants.size(), s2.tenants.size());
  for (std::size_t t = 0; t < s1.tenants.size(); ++t) {
    ASSERT_EQ(s1.tenants[t].deltas.size(), s2.tenants[t].deltas.size());
    for (std::size_t k = 0; k < s1.tenants[t].deltas.size(); ++k) {
      EXPECT_EQ(s1.tenants[t].deltas[k].text, s2.tenants[t].deltas[k].text);
    }
  }
}

TEST(Poison, EveryKindGetsItsClass) {
  const std::map<std::string, std::string> kClass = {
      {"malformed", "input:parse"},
      {"invalid_window", "input:validate"},
      {"infeasible", "infeasible"},
      {"unknown_op", "input:op"},
  };
  Config cfg = small_config(7);
  cfg.seconds = 2.0;  // 400 lines, so every poison kind appears
  const DaemonMixedInput input = make_daemon_mixed(cfg);

  std::vector<std::string> records;
  std::mutex mu;
  daemon::DaemonOptions options;
  options.threads = 2;
  options.batch.robust = true;
  options.sink = [&](const std::string& r) {
    std::lock_guard<std::mutex> lk(mu);
    records.push_back(r);
  };
  std::map<std::size_t, std::string> poisoned;  // daemon index -> kind
  {
    daemon::Daemon d(options);
    for (std::size_t i = 0; i < input.lines.size(); ++i) {
      const Line& line = input.lines[i];
      if (line.kind != LineKind::kPoison) continue;
      ASSERT_EQ(kClass.count(line.family), 1u) << line.family;
      EXPECT_EQ(line.expect.status, "error");
      EXPECT_EQ(line.expect.failure_class, kClass.at(line.family));
      poisoned[poisoned.size()] = line.family;
      d.submit_line(line.text);
    }
    d.drain();
  }
  std::map<std::string, int> seen;
  ASSERT_EQ(records.size(), poisoned.size());  // one record per line
  for (const std::string& r : records) {
    const obs::Json j = obs::Json::parse(r);
    const auto index = static_cast<std::size_t>(j.find("index")->as_int());
    const std::string& kind = poisoned.at(index);
    EXPECT_EQ(j.find("status")->as_string(), "error") << r;
    EXPECT_EQ(j.find("failure_class")->as_string(), kClass.at(kind)) << r;
    ++seen[kind];
  }
  for (const auto& [kind, cls] : kClass) EXPECT_GT(seen[kind], 0) << kind;
}

TEST(Guard, DefaultProgramIsAccepted) {
  EXPECT_EQ(guard_violation(), "");
  const obs::Json stamp = program_stamp();
  for (const char* key : {"nproc", "hardware_concurrency", "compiler",
                          "build_type", "verify_level", "NAT_LP_BACKEND",
                          "NAT_VERIFY"}) {
    EXPECT_NE(stamp.find(key), nullptr) << key;
  }
}

}  // namespace
}  // namespace nat::e2e
