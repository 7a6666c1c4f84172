// Fault isolation of the batch service layer: one poisoned cell must
// become one structured record while its neighbors solve normally —
// never a process abort, never a hang, never a leaked exception.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "instances/generators.hpp"
#include "io/serialize.hpp"
#include "obs/report.hpp"
#include "service/batch.hpp"
#include "service/sessions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::service {
namespace {

std::string healthy_cell() {
  // g=2, three jobs in nested windows; solves in microseconds.
  return R"({"g": 2, "jobs": [[0, 4, 2], [0, 4, 2], [1, 3, 1]]})";
}

/// Deep chain of nested windows with slack everywhere: the exact B&B
/// explores this for seconds (measured ~9 s unbounded), so a deadline
/// of a few hundred ms reliably fires mid-search even on much faster
/// hardware, while the healthy microsecond cells stay untouched.
std::string slow_cell(int levels = 200) {
  std::string jobs;
  for (int k = 1; k <= levels; ++k) {
    for (int i = 0; i < 3; ++i) {
      if (!jobs.empty()) jobs += ",";
      jobs += "[0," + std::to_string(5 * k) + ",2]";
    }
  }
  return "{\"g\": 3, \"jobs\": [" + jobs + "]}";
}

BatchItem json_item(std::string id, std::string text) {
  BatchItem item;
  item.id = std::move(id);
  item.text = std::move(text);
  item.format = BatchItem::Format::kJson;
  return item;
}

/// Distinct healthy cells in the native format: contended instances
/// (fractional LPs) for even ids, loose random laminar ones for odd.
BatchItem native_item(int id) {
  at::Instance instance;
  if (id % 2 == 0) {
    at::gen::ContendedParams params;
    params.g = 3;
    params.min_groups = 2;
    params.max_groups = 6;
    util::Rng knobs(5000 + id);
    params.unit_slack = knobs.uniform_int(0, 2);
    params.max_long_jobs = static_cast<int>(knobs.uniform_int(1, 3));
    util::Rng rng(300 + id);
    instance = at::gen::random_contended(params, rng);
  } else {
    at::gen::RandomLaminarParams params;
    params.g = 3;
    util::Rng rng(100 + id);
    instance = at::gen::random_laminar(params, rng);
  }
  BatchItem item;
  item.id = "native-" + std::to_string(id);
  item.text = io::to_string(instance);
  item.format = BatchItem::Format::kNative;
  return item;
}

TEST(Service, ParseJsonInstanceRoundTrip) {
  const at::Instance inst = parse_json_instance(healthy_cell());
  EXPECT_EQ(inst.g, 2);
  ASSERT_EQ(inst.num_jobs(), 3);
  EXPECT_EQ(inst.jobs[2].release, 1);
  EXPECT_EQ(inst.jobs[2].deadline, 3);
  EXPECT_EQ(inst.jobs[2].processing, 1);
}

TEST(Service, ParseJsonInstanceRejectsGarbage) {
  EXPECT_THROW(parse_json_instance("not json"), util::CheckError);
  EXPECT_THROW(parse_json_instance("[1, 2]"), util::CheckError);
  EXPECT_THROW(parse_json_instance(R"({"jobs": []})"), util::CheckError);
  EXPECT_THROW(parse_json_instance(R"({"g": 1})"), util::CheckError);
  EXPECT_THROW(parse_json_instance(R"({"g": 1, "jobs": [[0, 1]]})"),
               util::CheckError);
}

// A batch with one infeasible, one malformed, and one invalid cell
// completes with N-3 solved records and 3 structured error records — no
// terminate, no hang, exit normal. Fault isolation must not depend on
// scheduling either: pool widths 1, 2 and 4 give identical records.
TEST(Service, MixedBatchIsolatesEachFailure) {
  std::vector<BatchItem> items;
  const int kHealthy = 9;
  const int kNative = 4;
  for (int i = 0; i < kHealthy; ++i) {
    items.push_back(json_item("ok-" + std::to_string(i), healthy_cell()));
  }
  for (int id = 0; id < kNative; ++id) items.push_back(native_item(id));
  // g=1 and two unit jobs in a one-slot window: structurally valid but
  // infeasible.
  items.insert(items.begin() + 2,
               json_item("bad-infeasible",
                         R"({"g": 1, "jobs": [[0, 1, 1], [0, 1, 1]]})"));
  items.insert(items.begin() + 5, json_item("bad-parse", "{\"g\": 2,"));
  items.insert(items.begin() + 8,
               json_item("bad-validate", R"({"g": 1, "jobs": [[5, 2, 1]]})"));

  std::vector<std::string> first_records;
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    BatchOptions options;
    options.threads = threads;
    int callbacks = 0;
    const BatchReport report =
        solve_batch(items, options, [&](const CellResult&) { ++callbacks; });

    EXPECT_EQ(report.solved, kHealthy + kNative);
    EXPECT_EQ(report.errors, 3);
    EXPECT_EQ(report.timeouts, 0);
    EXPECT_EQ(report.skipped, 0);
    EXPECT_EQ(callbacks, static_cast<int>(items.size()));
    ASSERT_EQ(report.cells.size(), items.size());
    std::vector<std::string> records;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const CellResult& cell = report.cells[i];
      EXPECT_EQ(cell.index, static_cast<int>(i));  // batch order preserved
      EXPECT_EQ(cell.id, items[i].id);
      if (cell.id == "bad-infeasible") {
        EXPECT_EQ(cell.status, CellStatus::kError);
        EXPECT_EQ(cell.failure_class, "infeasible");
      } else if (cell.id == "bad-parse") {
        EXPECT_EQ(cell.status, CellStatus::kError);
        EXPECT_EQ(cell.failure_class, "input:parse");
        EXPECT_EQ(cell.jobs, -1);  // never parsed
      } else if (cell.id == "bad-validate") {
        EXPECT_EQ(cell.status, CellStatus::kError);
        EXPECT_EQ(cell.failure_class, "input:validate");
      } else {
        EXPECT_EQ(cell.status, CellStatus::kSolved);
        EXPECT_EQ(cell.failure_class, "");
        if (cell.id.rfind("ok-", 0) == 0) {
          EXPECT_EQ(cell.active_slots, 3);  // the ok- cells are identical
        }
      }
      EXPECT_GT(cell.wall_ns, 0);
      CellResult untimed = cell;
      untimed.wall_ns = 0;
      records.push_back(cell_to_json(untimed));
    }
    if (first_records.empty()) {
      first_records = records;
    } else {
      EXPECT_EQ(records, first_records);
    }
  }
}

// A deadline fired mid-B&B yields a timeout record; the rest of the
// batch is unaffected.
TEST(Service, DeadlineMidSearchYieldsTimeoutRecord) {
  std::vector<BatchItem> items;
  items.push_back(json_item("fast-0", healthy_cell()));
  items.push_back(json_item("slow", slow_cell()));
  items.push_back(json_item("fast-1", healthy_cell()));

  BatchOptions options;
  options.solver = "exact";
  options.timeout_ms = 300;
  options.threads = 2;
  const BatchReport report = solve_batch(items, options);

  EXPECT_EQ(report.solved, 2);
  EXPECT_EQ(report.timeouts, 1);
  EXPECT_EQ(report.errors, 0);
  const CellResult& slow = report.cells[1];
  EXPECT_EQ(slow.status, CellStatus::kTimeout);
  EXPECT_EQ(slow.failure_class, "timeout");
  EXPECT_NE(slow.error.find("deadline"), std::string::npos);
  // The deadline actually bounded the cell (unbounded solve is ~9 s;
  // generous slack for slow CI between poll points).
  EXPECT_LT(slow.wall_ns, 5'000'000'000LL);
  EXPECT_EQ(report.cells[0].status, CellStatus::kSolved);
  EXPECT_EQ(report.cells[2].status, CellStatus::kSolved);
}

TEST(Service, KeepGoingOffSkipsAfterFailure) {
  // One worker => cells run in order; the failure at index 1 must mark
  // every later cell skipped, with a record for each.
  std::vector<BatchItem> items;
  items.push_back(json_item("a", healthy_cell()));
  items.push_back(json_item("boom", "{"));
  items.push_back(json_item("b", healthy_cell()));
  items.push_back(json_item("c", healthy_cell()));

  BatchOptions options;
  options.threads = 1;
  options.keep_going = false;
  const BatchReport report = solve_batch(items, options);

  EXPECT_EQ(report.solved, 1);
  EXPECT_EQ(report.errors, 1);
  EXPECT_EQ(report.skipped, 2);
  EXPECT_EQ(report.cells[2].status, CellStatus::kSkipped);
  EXPECT_EQ(report.cells[2].failure_class, "skipped");
  EXPECT_EQ(report.cells[3].status, CellStatus::kSkipped);
}

TEST(Service, NativeFormatAndSolverDispatch) {
  BatchItem native;
  native.id = "native";
  native.format = BatchItem::Format::kNative;
  native.text = "activetime v1\ng 2\njobs 2\n0 4 2\n1 3 1\n";
  // Unreadable/empty native payloads fail as input:parse.
  BatchItem empty;
  empty.id = "empty";
  empty.format = BatchItem::Format::kNative;

  BatchOptions options;
  options.solver = "greedy";
  const BatchReport report = solve_batch({native, empty}, options);
  EXPECT_EQ(report.cells[0].status, CellStatus::kSolved);
  EXPECT_EQ(report.cells[0].solver, "greedy");
  EXPECT_GT(report.cells[0].active_slots, 0);
  EXPECT_EQ(report.cells[1].status, CellStatus::kError);
  EXPECT_EQ(report.cells[1].failure_class, "input:parse");

  BatchOptions bad;
  bad.solver = "frobnicate";
  EXPECT_THROW(solve_batch({native}, bad), util::CheckError);
}

std::string crossing_cell() {
  // g=2, windows [0,4) / [2,6) / [1,5): pairwise crossing, non-laminar.
  return R"({"g": 2, "jobs": [[0, 4, 2], [2, 6, 2], [1, 5, 1]]})";
}

// Regression for the stale input:* classification paths: auto used to
// reject non-laminar cells; they now dispatch to the general backend,
// and every record names the pipeline that produced its numbers.
TEST(Service, MixedLaminarityBatchDispatchesPerCell) {
  std::vector<BatchItem> items = {
      json_item("laminar-0", healthy_cell()),
      json_item("crossing-0", crossing_cell()),
      json_item("laminar-1", healthy_cell()),
      json_item("crossing-1", crossing_cell()),
  };
  const BatchReport report = solve_batch(items, {});
  EXPECT_EQ(report.solved, 4);
  EXPECT_EQ(report.errors, 0);
  for (const CellResult& cell : report.cells) {
    ASSERT_EQ(cell.status, CellStatus::kSolved) << cell.id << ": "
                                                << cell.error;
    const bool crossing = cell.id.rfind("crossing", 0) == 0;
    EXPECT_EQ(cell.backend, crossing ? "general" : "nested") << cell.id;
    EXPECT_EQ(cell.solver, cell.backend) << cell.id;  // auto echoes the path
    EXPECT_GT(cell.active_slots, 0) << cell.id;
    EXPECT_GE(static_cast<double>(cell.active_slots), cell.lp_value - 1e-6)
        << cell.id;
    // The JSONL record carries the tag.
    const obs::Json j = obs::Json::parse(cell_to_json(cell));
    ASSERT_NE(j.find("backend"), nullptr) << cell.id;
    EXPECT_EQ(j.find("backend")->as_string(), cell.backend) << cell.id;
  }
}

// The other side of the regression: forced nested/exact still reject
// crossing windows with the same stable class, and genuinely malformed
// windows keep their input:validate class on every solver.
TEST(Service, ForcedSolversKeepStableErrorClasses) {
  for (const std::string solver : {"nested", "exact"}) {
    BatchOptions options;
    options.solver = solver;
    const BatchReport report =
        solve_batch({json_item("x", crossing_cell())}, options);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].status, CellStatus::kError) << solver;
    EXPECT_EQ(report.cells[0].failure_class, "input:laminar") << solver;
  }
  for (const std::string solver : {"auto", "nested", "general", "greedy"}) {
    BatchOptions options;
    options.solver = solver;
    const BatchReport report = solve_batch(
        {json_item("bad", R"({"g": 2, "jobs": [[5, 2, 1]]})")}, options);
    EXPECT_EQ(report.cells[0].failure_class, "input:validate") << solver;
  }
}

// Windows whose int64 arithmetic overflows are invalid input, not a
// solver failure deep in tree construction.
TEST(Service, OverflowingWindowsAreInputValidate) {
  for (const char* payload :
       {R"({"g":1,"jobs":[[9223372036854775000,9223372036854775807,1000]]})",
        R"({"g":1,"jobs":[[-9000000000000000000,9000000000000000000,3]]})"}) {
    const CellResult cell =
        solve_cell(json_item("wide", payload), 0, BatchOptions{});
    EXPECT_EQ(cell.status, CellStatus::kError) << payload;
    EXPECT_EQ(cell.failure_class, "input:validate") << payload;
  }
}

// A huge g used to overflow g·open in the Lemma 4.1 network (a
// "negative capacity" check failure in the flow solver on the auto,
// nested and exact solvers), and g = INT64_MAX overflowed the exact
// solver's ceiling division. Every solver now gives the same count.
TEST(Service, HugeCapacitySolvesOnEverySolver) {
  const std::pair<const char*, std::int64_t> cases[] = {
      {R"({"g": 4611686018427387904, "jobs": [[0, 4, 1]]})", 1},
      {R"({"g": 4611686018427387904, "jobs": [[0, 4, 1], [5, 9, 2]]})", 3},
      {R"({"g": 9223372036854775807, "jobs": [[0, 4, 1], [5, 9, 2]]})", 3},
  };
  for (const auto& [payload, slots] : cases) {
    for (const std::string solver :
         {"auto", "nested", "exact", "general", "greedy"}) {
      BatchOptions options;
      options.solver = solver;
      const CellResult cell =
          solve_cell(json_item("huge-g", payload), 0, options);
      EXPECT_EQ(cell.status, CellStatus::kSolved)
          << solver << " " << payload << ": " << cell.error;
      EXPECT_EQ(cell.active_slots, slots) << solver << " " << payload;
    }
  }
}

// A total volume past int64 used to fail deep in each solver (a flow
// check, vector::reserve, or bad_alloc after 17 s of greedy); it is
// invalid input on every solver.
TEST(Service, OverflowingVolumeIsInputValidate) {
  const char* payload =
      R"({"g": 2, "jobs": [[0, 4611686018427387906, 4611686018427387905],)"
      R"( [0, 4611686018427387906, 4611686018427387905]]})";
  for (const std::string solver :
       {"auto", "nested", "exact", "general", "greedy"}) {
    BatchOptions options;
    options.solver = solver;
    const CellResult cell = solve_cell(json_item("volume", payload), 0, options);
    EXPECT_EQ(cell.status, CellStatus::kError) << solver;
    EXPECT_EQ(cell.failure_class, "input:validate") << solver;
  }
}

TEST(Service, ForcedGeneralSolverTagsRecords) {
  BatchOptions options;
  options.solver = "general";
  const BatchReport report = solve_batch(
      {json_item("a", healthy_cell()), json_item("b", crossing_cell())},
      options);
  EXPECT_EQ(report.solved, 2);
  for (const CellResult& cell : report.cells) {
    EXPECT_EQ(cell.solver, "general");
    EXPECT_EQ(cell.backend, "general");
  }
}

// --robust threading through the batch layer (docs/ROBUST.md): boxed
// cells carry the certified sandwich, point cells ride the degenerate
// path, and the JSONL record gains robust_lo/robust_hi only in robust
// mode.
TEST(Service, RobustBatchEmitsSandwichFields) {
  std::vector<BatchItem> items;
  items.push_back(json_item(
      "boxed",
      R"({"g": 2, "jobs": [[0, 4, 2, 1, 2], [0, 4, 2], [1, 3, 1, 1, 1]]})"));
  items.push_back(json_item("point", healthy_cell()));
  BatchOptions options;
  options.robust = true;
  const BatchReport report = solve_batch(items, options);
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.solved, 2);

  const CellResult& boxed = report.cells[0];
  EXPECT_EQ(boxed.status, CellStatus::kSolved);
  EXPECT_LE(boxed.robust_lo, static_cast<double>(boxed.active_slots) + 1e-9);
  EXPECT_GE(boxed.robust_hi, boxed.active_slots);

  // The point cell's degenerate path reproduces the plain solver and
  // closes the sandwich at the nominal cost.
  const CellResult& point = report.cells[1];
  EXPECT_EQ(point.status, CellStatus::kSolved);
  EXPECT_EQ(point.active_slots, 3);  // same cell as the non-robust suites
  EXPECT_EQ(point.robust_hi, point.active_slots);

  const obs::Json j = obs::Json::parse(cell_to_json(boxed));
  ASSERT_NE(j.find("robust_lo"), nullptr);
  ASSERT_NE(j.find("robust_hi"), nullptr);
  EXPECT_EQ(j.find("robust_hi")->as_int(), boxed.robust_hi);

  // Outside robust mode the record must not change shape.
  const BatchReport plain = solve_batch(
      std::vector<BatchItem>{json_item("p", healthy_cell())}, BatchOptions{});
  const obs::Json pj = obs::Json::parse(cell_to_json(plain.cells[0]));
  EXPECT_EQ(pj.find("robust_lo"), nullptr);
  EXPECT_EQ(pj.find("robust_hi"), nullptr);
}

// A crossing-window box whose nominal fits but whose p_hi corner does
// not: the corner solve's own all-open precheck (the slot-level one,
// since the windows cross) classifies the cell as infeasible.
TEST(Service, RobustCrossingBoxWithInfeasibleWorstCorner) {
  // g=1; at p_hi both jobs fill their 3-slot windows, which share slot 2.
  const std::string text =
      R"({"g": 1, "jobs": [[0, 3, 2, 2, 3], [2, 5, 2, 2, 3]]})";
  const CellResult nominal =
      solve_cell(json_item("c", text), 0, BatchOptions{});
  EXPECT_EQ(nominal.status, CellStatus::kSolved) << nominal.error;
  EXPECT_EQ(nominal.backend, "general");

  BatchOptions options;
  options.robust = true;
  const CellResult robust = solve_cell(json_item("c", text), 1, options);
  EXPECT_EQ(robust.status, CellStatus::kError);
  EXPECT_EQ(robust.failure_class, "infeasible") << robust.error;
  EXPECT_EQ(robust.solver, "general");
}

// Robust mode owns per-corner dispatch, so a forced solver is a
// structured input error, not a silent downgrade.
TEST(Service, RobustBatchRequiresAutoSolver) {
  std::vector<BatchItem> items{json_item("a", healthy_cell())};
  BatchOptions options;
  options.robust = true;
  options.solver = "exact";
  const BatchReport report = solve_batch(items, options);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].status, CellStatus::kError);
  EXPECT_EQ(report.cells[0].failure_class, "input:solver");
}

// A 5-element job row outside robust mode still parses (the intervals
// simply ride along), and a malformed interval is an input error.
TEST(Service, ParseJsonInstanceAcceptsIntervalRows) {
  const at::Instance inst = parse_json_instance(
      R"({"g": 2, "jobs": [[0, 4, 2, 1, 3], [1, 3, 1]]})");
  ASSERT_EQ(inst.num_jobs(), 2);
  EXPECT_EQ(inst.jobs[0].processing_lo, 1);
  EXPECT_EQ(inst.jobs[0].processing_hi, 3);
  EXPECT_FALSE(inst.jobs[1].has_processing_interval());
  EXPECT_THROW(parse_json_instance(R"({"g": 2, "jobs": [[0, 4, 2, 1]]})"),
               util::CheckError);
}

TEST(Service, CellToJsonIsParseableAndEscaped) {
  CellResult cell;
  cell.index = 7;
  cell.id = "weird \"id\"\nwith newline";
  cell.status = CellStatus::kError;
  cell.solver = "nested";
  cell.failure_class = "input:parse";
  cell.error = "quote \" backslash \\ done";
  cell.wall_ns = 1'500'000;
  const std::string line = cell_to_json(cell);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one JSONL line

  const obs::Json j = obs::Json::parse(line);
  EXPECT_EQ(j.find("index")->as_int(), 7);
  EXPECT_EQ(j.find("status")->as_string(), "error");
  EXPECT_EQ(j.find("id")->as_string(), cell.id);
  EXPECT_EQ(j.find("error")->as_string(), cell.error);
  EXPECT_EQ(j.find("jobs"), nullptr);  // unset fields are omitted
}

// ---------------------------------------------------------------------------
// Session protocol (service/sessions.hpp): stateful JSONL ops routed
// through persistent incremental SolverSessions, same per-line fault
// boundary as the batch cells.

TEST(Sessions, OpenDeltaCloseLifecycle) {
  SessionManager manager;
  SessionOpResult r = manager.process_line(
      R"({"op":"open","session":"s","g":1,"jobs":[[0,4,2],[1,4,1]]})", 0);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.op, "open");
  EXPECT_EQ(r.session, "s");
  EXPECT_EQ(r.jobs, 2);
  EXPECT_GT(r.active_slots, 0);
  EXPECT_EQ(manager.open_sessions(), 1);
  const std::int64_t slots_before = r.active_slots;

  r = manager.process_line(
      R"({"op":"delta","session":"s","kind":"add","job":[10,14,3]})", 1);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.jobs, 3);
  EXPECT_GT(r.active_slots, slots_before);
  // The new job lands in its own window group: one group re-solved, the
  // untouched group reused from cache.
  EXPECT_EQ(r.groups_resolved, 1);
  EXPECT_EQ(r.groups_reused, 1);

  r = manager.process_line(
      R"({"op":"delta","session":"s","kind":"remove","index":2})", 2);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.jobs, 2);
  EXPECT_EQ(r.active_slots, slots_before);

  r = manager.process_line(R"({"op":"close","session":"s"})", 3);
  EXPECT_EQ(r.status, CellStatus::kSolved);
  EXPECT_EQ(manager.open_sessions(), 0);
}

TEST(Sessions, FaultBoundaryKeepsSessionUsable) {
  SessionManager manager;
  ASSERT_EQ(manager
                .process_line(
                    R"({"op":"open","session":"s","g":1,"jobs":[[0,4,2]]})", 0)
                .status,
            CellStatus::kSolved);

  // Out-of-range delta: error record, session survives on the pre-delta
  // instance.
  SessionOpResult r = manager.process_line(
      R"({"op":"delta","session":"s","kind":"remove","index":9})", 1);
  EXPECT_EQ(r.status, CellStatus::kError);
  EXPECT_EQ(manager.open_sessions(), 1);

  // Malformed kinds and payloads are input errors, not crashes.
  EXPECT_EQ(manager.process_line(R"({"op":"delta","session":"s"})", 2)
                .failure_class,
            "input:parse");
  EXPECT_EQ(
      manager
          .process_line(
              R"({"op":"delta","session":"s","kind":"warp","index":0})", 3)
          .failure_class,
      "input:parse");
  EXPECT_EQ(manager.process_line("not json", 4).failure_class, "input:parse");

  // The session still accepts valid deltas afterwards.
  r = manager.process_line(
      R"({"op":"delta","session":"s","kind":"extend","index":0,"window":[0,5]})",
      5);
  EXPECT_EQ(r.status, CellStatus::kSolved) << r.error;
}

// Delta indices arrive as JSON int64. One that does not fit an int is
// an input error, not truncated: 2^32 would remove job 0.
TEST(Sessions, OutOfIntRangeIndexIsInputParse) {
  SessionManager manager;
  const SessionOpResult open = manager.process_line(
      R"({"op":"open","session":"s","g":1,"jobs":[[0,4,2],[4,8,1]]})", 0);
  ASSERT_EQ(open.status, CellStatus::kSolved) << open.error;
  for (const char* index : {"4294967296", "-4294967296", "2147483648",
                            "9223372036854775807"}) {
    const SessionOpResult r = manager.process_line(
        std::string(R"({"op":"delta","session":"s","kind":"remove","index":)") +
            index + "}",
        1);
    EXPECT_EQ(r.status, CellStatus::kError) << index;
    EXPECT_EQ(r.failure_class, "input:parse") << index;
  }
  // Nothing was removed: the next op still sees both jobs.
  const SessionOpResult r = manager.process_line(
      R"({"op":"delta","session":"s","kind":"remove","index":1})", 2);
  EXPECT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.jobs, 1);
}

TEST(Sessions, TaxonomyClassesForProtocolMisuse) {
  SessionManager manager;
  EXPECT_EQ(manager.process_line(R"({"op":"close","session":"x"})", 0)
                .failure_class,
            "session:unknown");
  EXPECT_EQ(
      manager
          .process_line(
              R"({"op":"delta","session":"x","kind":"remove","index":0})", 1)
          .failure_class,
      "session:unknown");
  ASSERT_EQ(manager
                .process_line(
                    R"({"op":"open","session":"x","g":1,"jobs":[[0,2,1]]})", 2)
                .status,
            CellStatus::kSolved);
  EXPECT_EQ(manager
                .process_line(
                    R"({"op":"open","session":"x","g":1,"jobs":[[0,2,1]]})", 3)
                .failure_class,
            "session:exists");
  EXPECT_EQ(manager.process_line(R"({"op":"ping","session":"x"})", 4)
                .failure_class,
            "input:op");
  // A job that cannot fit its own window fails validation.
  EXPECT_EQ(manager
                .process_line(
                    R"({"op":"open","session":"y","g":1,"jobs":[[0,2,9]]})", 5)
                .failure_class,
            "input:validate");
  // A valid but overcommitted instance (volume 4 into g*|window| = 2)
  // is classified like the batch cells; no session is left behind.
  const SessionOpResult r = manager.process_line(
      R"({"op":"open","session":"y","g":1,"jobs":[[0,2,2],[0,2,2]]})", 6);
  EXPECT_EQ(r.status, CellStatus::kError);
  EXPECT_EQ(r.failure_class, "infeasible");
  EXPECT_EQ(manager.open_sessions(), 1);
}

// Sessions used to reject non-laminar opens and crossing deltas
// outright; both now dispatch the affected window groups to the general
// 2-approx and tag the record with the most-degraded backend used.
TEST(Sessions, NonLaminarOpenAndDeltaDispatchToGeneral) {
  SessionManager manager;
  SessionOpResult r = manager.process_line(
      R"({"op":"open","session":"s","g":2,"jobs":[[0,4,2],[2,6,2]]})", 0);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.backend, "general");
  EXPECT_GT(r.active_slots, 0);

  // A laminar-only session reports the nested backend...
  r = manager.process_line(
      R"({"op":"open","session":"t","g":2,"jobs":[[0,4,2],[1,3,1]]})", 1);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.backend, "nested");

  // ...until a crossing delta merges its groups; removing it restores
  // the nested path.
  r = manager.process_line(
      R"({"op":"delta","session":"t","kind":"add","job":[2,6,1]})", 2);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.backend, "general");
  const obs::Json j = session_op_record(r);
  ASSERT_NE(j.find("backend"), nullptr);
  EXPECT_EQ(j.find("backend")->as_string(), "general");
  r = manager.process_line(
      R"({"op":"delta","session":"t","kind":"remove","index":2})", 3);
  ASSERT_EQ(r.status, CellStatus::kSolved) << r.error;
  EXPECT_EQ(r.backend, "nested");
}

TEST(Sessions, RecordJsonRoundTrips) {
  SessionManager manager;
  const SessionOpResult r = manager.process_line(
      R"({"op":"open","session":"s","g":2,"jobs":[[0,3,2],[0,3,2]]})", 11);
  const std::string line = session_op_to_json(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const obs::Json j = obs::Json::parse(line);
  EXPECT_EQ(j.find("index")->as_int(), 11);
  EXPECT_EQ(j.find("op")->as_string(), "open");
  EXPECT_EQ(j.find("session")->as_string(), "s");
  EXPECT_EQ(j.find("status")->as_string(), "solved");
  EXPECT_EQ(j.find("jobs")->as_int(), 2);
  EXPECT_NE(j.find("active_slots"), nullptr);
  EXPECT_NE(j.find("groups_resolved"), nullptr);
  EXPECT_NE(j.find("lp_warm_hits"), nullptr);
}

TEST(Sessions, ParseDeltaMatchesSessionTypes) {
  const obs::Json add = obs::Json::parse(
      R"({"kind":"add","job":[1,5,2]})");
  const at::Delta d1 = parse_delta(add);
  ASSERT_TRUE(std::holds_alternative<at::AddJob>(d1));
  EXPECT_EQ(std::get<at::AddJob>(d1).job.release, 1);
  EXPECT_EQ(std::get<at::AddJob>(d1).job.deadline, 5);
  EXPECT_EQ(std::get<at::AddJob>(d1).job.processing, 2);

  const at::Delta d2 = parse_delta(
      obs::Json::parse(R"({"kind":"shrink","index":3,"window":[2,4]})"));
  ASSERT_TRUE(std::holds_alternative<at::ShrinkWindow>(d2));
  EXPECT_EQ(std::get<at::ShrinkWindow>(d2).job, 3);
  EXPECT_EQ(std::get<at::ShrinkWindow>(d2).window.lo, 2);
  EXPECT_EQ(std::get<at::ShrinkWindow>(d2).window.hi, 4);

  EXPECT_THROW(parse_delta(obs::Json::parse(R"({"kind":"add"})")),
               util::CheckError);
  EXPECT_THROW(parse_delta(obs::Json::parse(R"({"kind":"extend","index":0})")),
               util::CheckError);
}

// Robust-mode deltas (docs/ROBUST.md): "add" takes 5-element rows with
// an uncertainty box, and "retime" rewrites (or clears) the box on an
// existing job.
TEST(Sessions, ParseDeltaHandlesIntervalsAndRetime) {
  const at::Delta add = parse_delta(
      obs::Json::parse(R"({"kind":"add","job":[1,5,2,1,3]})"));
  ASSERT_TRUE(std::holds_alternative<at::AddJob>(add));
  EXPECT_EQ(std::get<at::AddJob>(add).job.processing_lo, 1);
  EXPECT_EQ(std::get<at::AddJob>(add).job.processing_hi, 3);

  const at::Delta retime = parse_delta(
      obs::Json::parse(R"({"kind":"retime","index":2,"interval":[1,4]})"));
  ASSERT_TRUE(std::holds_alternative<at::Retime>(retime));
  EXPECT_EQ(std::get<at::Retime>(retime).job, 2);
  EXPECT_EQ(std::get<at::Retime>(retime).processing_lo, 1);
  EXPECT_EQ(std::get<at::Retime>(retime).processing_hi, 4);

  const at::Delta clear = parse_delta(
      obs::Json::parse(R"({"kind":"retime","index":0,"interval":[0,0]})"));
  ASSERT_TRUE(std::holds_alternative<at::Retime>(clear));
  EXPECT_EQ(std::get<at::Retime>(clear).processing_hi, 0);

  EXPECT_THROW(parse_delta(obs::Json::parse(R"({"kind":"retime","index":0})")),
               util::CheckError);
}

}  // namespace
}  // namespace nat::service
