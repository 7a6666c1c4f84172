// Multi-tenant daemon: deterministic vruntime fairness on the pure
// FairQueue (synthetic charges are the simulated clock), and the
// Daemon's fault boundary / admission / deadline / shutdown contract
// end-to-end over in-memory streams.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "daemon/daemon.hpp"
#include "daemon/fair_queue.hpp"
#include "obs/report.hpp"
#include "util/check.hpp"
#include "util/fd_streambuf.hpp"

namespace nat::daemon {
namespace {

constexpr std::int64_t kMs = 1'000'000;  // synthetic charge: 1 ms in ns

/// Runs one pick+charge step and returns the dispatched tenant.
std::string step(FairQueue& q, std::int64_t charge_ns = kMs) {
  std::uint64_t ticket = 0;
  std::string tenant;
  EXPECT_TRUE(q.pick(&ticket, &tenant));
  q.charge(tenant, charge_ns);
  return tenant;
}

TEST(FairQueue, WeightedDispatchOrderIsDeterministic) {
  FairQueue q;
  q.configure_tenant("a", TenantConfig{1.0, 256, 1});
  q.configure_tenant("b", TenantConfig{2.0, 256, 1});
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.try_enqueue("a", 100 + i));
    ASSERT_TRUE(q.try_enqueue("b", 200 + i));
  }
  // Equal 1 ms charges, weights 1:2. Ties break to "a" by name; each
  // "a" completion costs 1.0 virtual ms, each "b" 0.5, so the steady
  // pattern is one "a" per two "b"s until b's queue runs dry.
  const std::vector<std::string> expected = {"a", "b", "b", "a", "b", "b",
                                             "a", "b", "b", "a", "a", "a"};
  std::vector<std::string> got;
  for (std::size_t i = 0; i < expected.size(); ++i) got.push_back(step(q));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(q.queued(), 0u);
}

TEST(FairQueue, InteractiveArrivalJumpsAFlood) {
  FairQueue q;
  for (std::uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(q.try_enqueue("flood", i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(step(q), "flood");
  // A tenant arriving mid-flood starts at min_vruntime, not 0 — but
  // that still beats the flood's accrued vruntime, so it runs next
  // even with 40 flood requests queued ahead of it.
  ASSERT_TRUE(q.try_enqueue("ui", 999));
  EXPECT_EQ(step(q), "ui");
  EXPECT_EQ(step(q), "flood");
}

TEST(FairQueue, IdleTenantDoesNotBankCredit) {
  FairQueue q;
  ASSERT_TRUE(q.try_enqueue("a", 0));
  EXPECT_EQ(step(q), "a");  // a has worked 1 virtual ms; now goes idle
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(q.try_enqueue("b", i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(step(q), "b");
  EXPECT_NEAR(q.vruntime_ms("b"), 10.0, 1e-9);
  // Waking up, a re-enters at max(own, min_vruntime): the 9 ms it
  // "slept" is not banked as credit.
  ASSERT_TRUE(q.try_enqueue("a", 100));
  EXPECT_GE(q.vruntime_ms("a"), 9.0);
}

TEST(FairQueue, QueueDepthCapRejects) {
  FairQueue q;
  q.configure_tenant("t", TenantConfig{1.0, 2, 1});
  EXPECT_TRUE(q.try_enqueue("t", 0));
  EXPECT_TRUE(q.try_enqueue("t", 1));
  EXPECT_FALSE(q.try_enqueue("t", 2));
  EXPECT_EQ(q.queued("t"), 2u);
  EXPECT_EQ(q.counters().at("t").rejected, 1);
  // Dispatching one frees a slot.
  step(q);
  EXPECT_TRUE(q.try_enqueue("t", 3));
}

TEST(FairQueue, InFlightCapHoldsBackSecondPick) {
  FairQueue q;
  ASSERT_TRUE(q.try_enqueue("t", 0));
  ASSERT_TRUE(q.try_enqueue("t", 1));
  std::uint64_t ticket = 0;
  std::string tenant;
  ASSERT_TRUE(q.pick(&ticket, &tenant));
  EXPECT_EQ(ticket, 0u);
  // Default max_in_flight = 1: the second request must wait for the
  // first to be charged back.
  EXPECT_FALSE(q.pick(&ticket, &tenant));
  q.charge("t", kMs);
  ASSERT_TRUE(q.pick(&ticket, &tenant));
  EXPECT_EQ(ticket, 1u);
}

TEST(FairQueue, FifoModeIgnoresWeightsAndCaps) {
  FairQueueOptions options;
  options.fifo = true;
  FairQueue q(options);
  q.configure_tenant("a", TenantConfig{100.0, 256, 1});
  ASSERT_TRUE(q.try_enqueue("b", 0));
  ASSERT_TRUE(q.try_enqueue("a", 1));
  ASSERT_TRUE(q.try_enqueue("b", 2));
  std::uint64_t ticket = 0;
  std::string tenant;
  // Pure arrival order, and the in-flight cap is ignored (both "b"
  // requests dispatch without an intervening charge).
  ASSERT_TRUE(q.pick(&ticket, &tenant));
  EXPECT_EQ(tenant, "b");
  ASSERT_TRUE(q.pick(&ticket, &tenant));
  EXPECT_EQ(tenant, "a");
  ASSERT_TRUE(q.pick(&ticket, &tenant));
  EXPECT_EQ(tenant, "b");
  EXPECT_EQ(q.in_flight("b"), 2);
}

TEST(FairQueue, ConfigValidation) {
  FairQueue q;
  EXPECT_THROW(q.configure_tenant("t", TenantConfig{0.0, 1, 1}),
               util::CheckError);
  EXPECT_THROW(q.configure_tenant("t", TenantConfig{1.0, 0, 1}),
               util::CheckError);
  EXPECT_THROW(q.configure_tenant("t", TenantConfig{1.0, 1, 0}),
               util::CheckError);
  EXPECT_FALSE(q.has_tenant("t"));
}

// ---------------------------------------------------------------------------
// Daemon end-to-end.

/// Thread-safe record collector used as the daemon sink.
struct Collector {
  std::mutex mu;
  std::vector<std::string> records;

  RecordSink sink() {
    return [this](const std::string& r) {
      std::lock_guard<std::mutex> lk(mu);
      records.push_back(r);
    };
  }

  std::vector<obs::Json> parsed() {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<obs::Json> out;
    for (const std::string& r : records) out.push_back(obs::Json::parse(r));
    return out;
  }

  /// The record whose "index" field is `index` (every daemon record
  /// carries one except the stats snapshot before indexing).
  obs::Json find_index(std::int64_t index) {
    for (obs::Json& j : parsed()) {
      const obs::Json* idx = j.find("index");
      if (idx != nullptr && idx->is_number() && idx->as_int() == index) {
        return std::move(j);
      }
    }
    ADD_FAILURE() << "no record with index " << index;
    return obs::Json::object();
  }
};

std::string field(const obs::Json& j, const char* key) {
  const obs::Json* v = j.find(key);
  return v != nullptr && v->type() == obs::Json::Type::kString ? v->as_string()
                                                               : "";
}

/// g=2, three jobs in nested (laminar) windows; solves in microseconds.
constexpr const char* kQuickJobs =
    R"("g":2,"jobs":[[0,4,2],[0,4,2],[1,3,1]])";

TEST(Daemon, PoisonedStreamOneRecordPerLineExitsClean) {
  Collector out;
  DaemonOptions options;
  options.threads = 2;
  options.sink = out.sink();
  Daemon daemon(options);

  const std::vector<std::string> lines = {
      std::string(R"({"op":"solve","tenant":"ui","id":"q1",)") + kQuickJobs +
          "}",                                                        // 0
      "this is not json",                                             // 1
      R"({"op":"frobnicate"})",                                       // 2
      R"({"op":"solve","id":"bad","g":2,"jobs":[[5,3,9]]})",          // 3
      std::string(R"({"op":"open","tenant":"ui","session":"s",)") +
          kQuickJobs + "}",                                           // 4
      R"({"op":"delta","tenant":"ui","session":"s","kind":"warp"})",  // 5
      R"({"op":"delta","tenant":"ui","session":"zz","kind":"remove","index":0})",  // 6
      std::string(R"({"op":"solve","id":"late","deadline_ms":-1,)") +
          kQuickJobs + "}",                                           // 7
      R"({"op":"close","tenant":"ui","session":"s"})",                // 8
  };
  for (const std::string& line : lines) {
    EXPECT_TRUE(daemon.submit_line(line));
  }
  daemon.drain();

  ASSERT_EQ(out.parsed().size(), lines.size());  // one record per line
  EXPECT_EQ(field(out.find_index(0), "status"), "solved");
  EXPECT_EQ(field(out.find_index(1), "failure_class"), "input:parse");
  EXPECT_EQ(field(out.find_index(2), "failure_class"), "input:op");
  EXPECT_EQ(field(out.find_index(3), "failure_class"), "input:validate");
  EXPECT_EQ(field(out.find_index(4), "status"), "solved");
  EXPECT_EQ(field(out.find_index(5), "failure_class"), "input:parse");
  EXPECT_EQ(field(out.find_index(6), "failure_class"), "session:unknown");
  const obs::Json late = out.find_index(7);
  EXPECT_EQ(field(late, "status"), "timeout");
  EXPECT_EQ(field(late, "failure_class"), "timeout");
  EXPECT_EQ(field(late, "error"), "deadline expired while queued");
  EXPECT_EQ(field(out.find_index(8), "status"), "solved");

  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.submitted, static_cast<std::int64_t>(lines.size()));
  EXPECT_EQ(s.solved, 3);
  EXPECT_EQ(s.errors, 5);
  EXPECT_EQ(s.timeouts, 1);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(Daemon, ServeStreamsRecordsAndDrains) {
  DaemonOptions options;
  options.threads = 2;
  Daemon daemon(options);
  std::istringstream in(
      "# a comment, then a blank line, then two requests\n"
      "\n" +
      std::string(R"({"op":"solve","id":"a",)") + kQuickJobs + "}\n" +
      R"({"op":"stats"})" + "\n");
  std::ostringstream out;
  EXPECT_EQ(daemon.serve(in, out), 0);
  std::istringstream records(out.str());
  std::string line;
  int count = 0;
  while (std::getline(records, line)) {
    const obs::Json j = obs::Json::parse(line);  // every record parses
    EXPECT_TRUE(j.is_object());
    ++count;
  }
  EXPECT_EQ(count, 2);
}

// The JSON parser recurses once per nesting level; a hostile line of
// 300,000 '[' used to overflow the stack and take every tenant's
// sessions down with the process.
TEST(Daemon, DeeplyNestedLineIsAParseErrorAndServingContinues) {
  DaemonOptions options;
  options.threads = 2;
  Daemon daemon(options);
  std::istringstream in(std::string(300000, '[') + "\n" +
                        R"({"op":"solve","id":"after",)" + kQuickJobs +
                        "}\n");
  std::ostringstream out;
  EXPECT_EQ(daemon.serve(in, out), 0);
  std::istringstream records(out.str());
  std::vector<obs::Json> parsed;
  for (std::string line; std::getline(records, line);) {
    parsed.push_back(obs::Json::parse(line));
  }
  ASSERT_EQ(parsed.size(), 2u);
  for (const obs::Json& j : parsed) {
    if (j.find("index")->as_int() == 0) {
      EXPECT_EQ(field(j, "failure_class"), "input:parse");
    } else {
      EXPECT_EQ(field(j, "id"), "after");
      EXPECT_EQ(field(j, "status"), "solved");
    }
  }
}

TEST(Daemon, AdmissionRejectsOverQueueDepthCap) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.start_paused = true;  // requests pile up deterministically
  options.tenant_defaults.max_queue_depth = 2;
  options.sink = out.sink();
  Daemon daemon(options);

  const std::string solve =
      std::string(R"({"op":"solve","tenant":"t",)") + kQuickJobs + "}";
  EXPECT_TRUE(daemon.submit_line(solve));
  EXPECT_TRUE(daemon.submit_line(solve));
  EXPECT_TRUE(daemon.submit_line(solve));  // over cap: rejected inline

  const obs::Json rejected = out.find_index(2);
  EXPECT_EQ(field(rejected, "status"), "rejected");
  EXPECT_EQ(field(rejected, "failure_class"), "admission:rejected");

  daemon.resume();
  daemon.drain();
  EXPECT_EQ(out.parsed().size(), 3u);
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.solved, 2);
  EXPECT_EQ(s.tenants.at("t").queue.rejected, 1);
}

TEST(Daemon, DeadlineArmedAtEnqueueCountsQueueWait) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.start_paused = true;
  options.sink = out.sink();
  Daemon daemon(options);

  // Deadline expires while the daemon is paused, i.e. purely in queue.
  EXPECT_TRUE(daemon.submit_line(
      std::string(R"({"op":"solve","id":"d","deadline_ms":1,)") + kQuickJobs +
      "}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  daemon.resume();
  daemon.drain();

  const obs::Json j = out.find_index(0);
  EXPECT_EQ(field(j, "status"), "timeout");
  EXPECT_EQ(field(j, "failure_class"), "timeout");
  EXPECT_EQ(field(j, "error"), "deadline expired while queued");
  const obs::Json* left = j.find("deadline_left_ms");
  ASSERT_NE(left, nullptr);
  EXPECT_LT(left->as_double(), 0.0);  // already past due when dispatched
  EXPECT_EQ(daemon.stats().timeouts, 1);
}

TEST(Daemon, ShutdownCancelsQueuedWorkAndFlushesRecords) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.start_paused = true;
  options.sink = out.sink();
  Daemon daemon(options);

  const std::string solve = std::string(R"({"op":"solve",)") + kQuickJobs + "}";
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(daemon.submit_line(solve));
  daemon.shutdown();
  daemon.drain();

  ASSERT_EQ(out.parsed().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const obs::Json j = out.find_index(i);
    EXPECT_EQ(field(j, "status"), "timeout");
    EXPECT_EQ(field(j, "failure_class"), "cancelled");
  }
  // After shutdown the daemon refuses new work with a structured record.
  EXPECT_FALSE(daemon.submit_line(solve));
  const obs::Json refused = out.find_index(3);
  EXPECT_EQ(field(refused, "status"), "rejected");
  EXPECT_EQ(field(refused, "failure_class"), "daemon:draining");
  EXPECT_TRUE(daemon.draining());
}

TEST(Daemon, ShutdownOpViaServe) {
  DaemonOptions options;
  options.threads = 1;
  Daemon daemon(options);
  std::istringstream in(R"({"op":"shutdown"})"
                        "\n"
                        R"({"op":"stats"})"
                        "\n");  // never reached
  std::ostringstream out;
  EXPECT_EQ(daemon.serve(in, out), 0);
  EXPECT_TRUE(daemon.draining());
  // Only the shutdown ack was emitted; the stats line was not consumed.
  std::istringstream records(out.str());
  std::string line;
  int count = 0;
  while (std::getline(records, line)) ++count;
  EXPECT_EQ(count, 1);
}

TEST(Daemon, TenantsGetIsolatedSessionNamespaces) {
  Collector out;
  DaemonOptions options;
  options.threads = 2;
  options.sink = out.sink();
  Daemon daemon(options);

  // Both tenants open a session named "s": no collision.
  for (const char* tenant : {"alpha", "beta"}) {
    EXPECT_TRUE(daemon.submit_line(
        std::string(R"({"op":"open","tenant":")") + tenant +
        R"(","session":"s",)" + kQuickJobs + "}"));
  }
  daemon.drain();
  EXPECT_TRUE(daemon.submit_line(
      std::string(R"({"op":"delta","tenant":"alpha","session":"s",)") +
      R"("kind":"add","job":[0,4,2]})"));
  daemon.drain();

  for (const obs::Json& j : out.parsed()) {
    EXPECT_EQ(field(j, "status"), "solved") << field(j, "error");
  }
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.tenants.at("alpha").open_sessions, 1);
  EXPECT_EQ(s.tenants.at("beta").open_sessions, 1);
}

TEST(Daemon, TenantOpConfiguresAndValidates) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.sink = out.sink();
  Daemon daemon(options);

  EXPECT_TRUE(daemon.submit_line(
      R"({"op":"tenant","tenant":"t","weight":4,"max_queue_depth":8})"));
  const obs::Json ok = out.find_index(0);
  EXPECT_EQ(field(ok, "status"), "ok");
  EXPECT_EQ(ok.find("weight")->as_double(), 4.0);
  EXPECT_EQ(ok.find("max_queue_depth")->as_int(), 8);
  EXPECT_EQ(ok.find("max_in_flight")->as_int(), 1);  // default kept

  EXPECT_TRUE(
      daemon.submit_line(R"({"op":"tenant","tenant":"t","weight":0})"));
  const obs::Json bad = out.find_index(1);
  EXPECT_EQ(field(bad, "status"), "error");
  EXPECT_EQ(field(bad, "failure_class"), "input:validate");
}

// Tenant caps arrive as JSON int64. Values outside the int range must be
// rejected, not truncated: 2^32 + 1 would become a cap of 1.
TEST(Daemon, TenantCapsOutsideIntRangeAreRejected) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.sink = out.sink();
  Daemon daemon(options);

  EXPECT_TRUE(daemon.submit_line(
      R"({"op":"tenant","tenant":"t","max_in_flight":4294967297,)"
      R"("max_queue_depth":4294967298})"));
  const obs::Json wide = out.find_index(0);
  EXPECT_EQ(field(wide, "status"), "error");
  EXPECT_EQ(field(wide, "failure_class"), "input:validate");

  EXPECT_TRUE(daemon.submit_line(
      R"({"op":"tenant","tenant":"t","max_queue_depth":-4294967295})"));
  EXPECT_EQ(field(out.find_index(1), "failure_class"), "input:validate");

  // The rejected ops left the tenant on its defaults.
  EXPECT_TRUE(
      daemon.submit_line(R"({"op":"tenant","tenant":"t","weight":2})"));
  const obs::Json ok = out.find_index(2);
  EXPECT_EQ(field(ok, "status"), "ok");
  EXPECT_EQ(ok.find("max_in_flight")->as_int(), 1);
}

TEST(Daemon, StatsRecordRoundTrips) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.sink = out.sink();
  Daemon daemon(options);
  EXPECT_TRUE(daemon.submit_line(std::string(R"({"op":"solve","tenant":"t",)") +
                                 kQuickJobs + "}"));
  daemon.drain();

  const obs::Json j = obs::Json::parse(daemon.stats_record().dump());
  EXPECT_EQ(field(j, "op"), "stats");
  EXPECT_EQ(j.find("submitted")->as_int(), 1);
  EXPECT_EQ(j.find("solved")->as_int(), 1);
  const obs::Json* tenants = j.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_TRUE(tenants->is_array());
  ASSERT_EQ(tenants->size(), 1u);
  EXPECT_EQ(field(tenants->at(0), "tenant"), "t");
  EXPECT_EQ(tenants->at(0).find("dispatched")->as_int(), 1);
  const obs::Json* pool = j.find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->find("workers")->as_int(), 1);
}

// Robust mode (docs/ROBUST.md) threads through DaemonOptions.batch:
// solve records gain the certified robust_lo/robust_hi sandwich, boxed
// 5-element job rows parse, and plain mode keeps the old record shape.
TEST(Daemon, RobustModeEmitsSandwichFields) {
  Collector out;
  DaemonOptions options;
  options.threads = 1;
  options.batch.robust = true;
  options.sink = out.sink();
  Daemon daemon(options);
  EXPECT_TRUE(daemon.submit_line(
      R"({"op":"solve","id":"boxed","g":2,)"
      R"("jobs":[[0,4,2,1,2],[0,4,2],[1,3,1]]})"));
  EXPECT_TRUE(daemon.submit_line(std::string(R"({"op":"solve","id":"pt",)") +
                                 kQuickJobs + "}"));
  daemon.drain();

  ASSERT_EQ(out.parsed().size(), 2u);
  const obs::Json boxed = out.find_index(0);
  EXPECT_EQ(field(boxed, "status"), "solved");
  const obs::Json* lo = boxed.find("robust_lo");
  const obs::Json* hi = boxed.find("robust_hi");
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  const std::int64_t alg = boxed.find("active_slots")->as_int();
  EXPECT_LE(lo->as_double(), static_cast<double>(alg) + 1e-9);
  EXPECT_GE(hi->as_int(), alg);

  // The point request rides the degenerate path: sandwich closed at
  // the nominal cost.
  const obs::Json pt = out.find_index(1);
  EXPECT_EQ(field(pt, "status"), "solved");
  ASSERT_NE(pt.find("robust_hi"), nullptr);
  EXPECT_EQ(pt.find("robust_hi")->as_int(),
            pt.find("active_slots")->as_int());

  // Control: without the flag the record shape is unchanged.
  Collector plain_out;
  DaemonOptions plain;
  plain.threads = 1;
  plain.sink = plain_out.sink();
  Daemon plain_daemon(plain);
  EXPECT_TRUE(plain_daemon.submit_line(
      std::string(R"({"op":"solve","id":"pt",)") + kQuickJobs + "}"));
  plain_daemon.drain();
  ASSERT_EQ(plain_out.parsed().size(), 1u);
  EXPECT_EQ(plain_out.find_index(0).find("robust_hi"), nullptr);
}

// Satellite regression: a benign signal (handler installed without
// SA_RESTART — what supervisors wire up for SIGHUP/SIGUSR1 stats
// dumps) must not truncate the record stream. serve() runs over
// FdStreambuf-backed iostreams on a socketpair while SIGUSR1 lands on
// the serving thread under load; every request must still produce
// exactly one well-formed record.
TEST(Daemon, ServeSurvivesBenignSignalsUnderLoad) {
  int request_fds[2];
  int record_fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, request_fds), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, record_fds), 0);
  int sndbuf = 2048;  // force short writes on the record stream
  ::setsockopt(record_fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
               sizeof(sndbuf));

  struct sigaction sa = {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  const int kRequests = 200;
  std::atomic<bool> serving{true};
  std::thread server([&] {
    util::FdStreambuf in_buf(request_fds[1]);
    util::FdStreambuf out_buf(record_fds[0]);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    DaemonOptions options;
    options.threads = 2;
    Daemon daemon(options);
    EXPECT_EQ(daemon.serve(in, out), 0);
    serving.store(false);
    ::shutdown(record_fds[0], SHUT_WR);
  });
  std::thread pinger([&, handle = server.native_handle()] {
    while (serving.load()) {
      ::pthread_kill(handle, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Feed requests from a third thread so the reader below can drain
  // records concurrently (the tiny send buffer would deadlock a
  // sequential write-then-read).
  std::thread feeder([&] {
    util::FdStreambuf req_buf(request_fds[0]);
    std::ostream req(&req_buf);
    for (int i = 0; i < kRequests; ++i) {
      req << R"({"op":"solve","id":"q)" << i << R"(",)" << kQuickJobs
          << "}\n";
    }
    req.flush();
    EXPECT_TRUE(req.good());
    ::shutdown(request_fds[0], SHUT_WR);
  });

  util::FdStreambuf rec_buf(record_fds[1]);
  std::istream records(&rec_buf);
  std::string line;
  int count = 0;
  int solved = 0;
  while (std::getline(records, line)) {
    const obs::Json j = obs::Json::parse(line);  // framing intact
    if (j.find("status") && j.find("status")->as_string() == "solved") {
      ++solved;
    }
    ++count;
  }
  feeder.join();
  pinger.join();
  server.join();
  EXPECT_EQ(count, kRequests);
  EXPECT_EQ(solved, kRequests);

  ::sigaction(SIGUSR1, &old, nullptr);
  ::close(request_fds[0]);
  ::close(request_fds[1]);
  ::close(record_fds[0]);
  ::close(record_fds[1]);
}

}  // namespace
}  // namespace nat::daemon
