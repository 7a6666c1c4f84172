// Observability subsystem: counter sharding under the thread pool,
// span nesting and bounding, the Json round trip, and the golden-key
// schema check of a real solver run report.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <fstream>
#include <locale>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "activetime/solver.hpp"
#include "io/serialize.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nat {
namespace {

TEST(Counters, SingleThreadAddAndReset) {
  obs::Counter& c = obs::counter("test.single");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Counters, SameNameSameCounter) {
  obs::Counter& a = obs::counter("test.alias");
  obs::Counter& b = obs::counter("test.alias");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(Counters, ShardingCorrectUnderThreadPool) {
  obs::Counter& c = obs::counter("test.sharded");
  c.reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::int64_t kPerTask = 10000;
  util::parallel_for(0, kTasks, [&](std::size_t) {
    for (std::int64_t k = 0; k < kPerTask; ++k) c.add();
  });
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kTasks) * kPerTask);
}

TEST(Counters, ConcurrentDistinctCountersDoNotCross) {
  obs::Counter& a = obs::counter("test.cross.a");
  obs::Counter& b = obs::counter("test.cross.b");
  a.reset();
  b.reset();
  util::parallel_for(0, 32, [&](std::size_t i) {
    (i % 2 ? a : b).add(static_cast<std::int64_t>(i));
  });
  std::int64_t odd = 0, even = 0;
  for (std::int64_t i = 0; i < 32; ++i) (i % 2 ? odd : even) += i;
  EXPECT_EQ(a.value(), odd);
  EXPECT_EQ(b.value(), even);
}

TEST(Counters, SnapshotIsNameSortedAndContainsRegistered) {
  obs::counter("test.snap.x").reset();
  auto snap = obs::counters_snapshot();
  ASSERT_FALSE(snap.empty());
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
  bool found = false;
  for (const auto& [name, value] : snap) found |= name == "test.snap.x";
  EXPECT_TRUE(found);
}

TEST(Gauges, SetAddValue) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(1.5);
  g.add(2.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Gauges, ConcurrentAddIsLossless) {
  obs::Gauge& g = obs::gauge("test.gauge.concurrent");
  g.reset();
  util::parallel_for(0, 64, [&](std::size_t) {
    for (int k = 0; k < 1000; ++k) g.add(0.5);
  });
  EXPECT_DOUBLE_EQ(g.value(), 64 * 1000 * 0.5);
}

TEST(Trace, NestingParentAndDepth) {
  obs::clear_spans();
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
      obs::Span sibling_after("innermost");
    }
  }
  auto spans = obs::spans_snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Recorded on close: children first.
  EXPECT_EQ(spans[0].name, "innermost");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[2].depth, 0);
  EXPECT_EQ(spans[1].parent, spans[2].id);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_GE(spans[2].dur_ns, spans[1].dur_ns);
  EXPECT_GE(spans[1].dur_ns, 0);
  EXPECT_GE(spans[1].start_ns, spans[2].start_ns);
}

TEST(Trace, BoundedBufferDropsAndClears) {
  obs::clear_spans();
  obs::set_span_capacity(2);
  for (int i = 0; i < 5; ++i) obs::Span s("overflow");
  EXPECT_EQ(obs::spans_snapshot().size(), 2u);
  EXPECT_EQ(obs::spans_dropped(), 3);
  obs::set_span_capacity(4096);
  obs::clear_spans();
  EXPECT_TRUE(obs::spans_snapshot().empty());
  EXPECT_EQ(obs::spans_dropped(), 0);
}

TEST(Json, DumpParseRoundTrip) {
  obs::Json j = obs::Json::object();
  j["int"] = std::int64_t{42};
  j["neg"] = std::int64_t{-7};
  j["pi"] = 3.25;
  j["flag"] = true;
  j["nul"] = obs::Json();
  j["text"] = "line\n\"quoted\"\\and\ttab";
  obs::Json arr = obs::Json::array();
  arr.push_back(std::int64_t{1});
  arr.push_back("two");
  j["arr"] = std::move(arr);

  for (int indent : {-1, 2}) {
    obs::Json back = obs::Json::parse(j.dump(indent));
    EXPECT_EQ(back.find("int")->as_int(), 42);
    EXPECT_EQ(back.find("neg")->as_int(), -7);
    EXPECT_DOUBLE_EQ(back.find("pi")->as_double(), 3.25);
    EXPECT_TRUE(back.find("flag")->as_bool());
    EXPECT_TRUE(back.find("nul")->is_null());
    EXPECT_EQ(back.find("text")->as_string(), "line\n\"quoted\"\\and\ttab");
    ASSERT_EQ(back.find("arr")->size(), 2u);
    EXPECT_EQ(back.find("arr")->at(0).as_int(), 1);
    EXPECT_EQ(back.find("arr")->at(1).as_string(), "two");
  }
}

TEST(Json, ObjectKeepsInsertionOrder) {
  obs::Json j = obs::Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  const std::string text = j.dump();
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  obs::Json j = obs::Json::object();
  j["nan"] = std::nan("");
  EXPECT_EQ(j.dump(), "{\"nan\":null}");
}

// Satellite regression: JSONL emitters went through ostream <<, which
// honours the global locale — under de_DE a double prints "2,5" and
// every downstream parser chokes. dump() now formats via to_chars, so
// the emitted bytes are identical whatever locale the host process
// (or an embedding application) has installed.
TEST(Json, DumpIsLocaleIndependent) {
  obs::Json j = obs::Json::object();
  j["lp_value"] = 1234.5625;
  j["ratio"] = 0.001;
  j["count"] = std::int64_t{1000000};
  const std::string reference = j.dump();

  // Prefer the real de_DE locale; fall back to a synthetic comma
  // numpunct when the host has no locale data installed (minimal
  // containers usually don't), so the regression is exercised either
  // way.
  struct CommaPunct : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  const std::locale saved = std::locale();
  const char* c_saved = std::setlocale(LC_ALL, nullptr);
  const std::string c_saved_name = c_saved ? c_saved : "C";
  const bool have_de = std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr ||
                       std::setlocale(LC_ALL, "de_DE.utf8") != nullptr;
  bool cxx_locale_set = false;
  if (have_de) {
    try {
      std::locale::global(std::locale("de_DE.UTF-8"));
      cxx_locale_set = true;
    } catch (const std::runtime_error&) {
    }
  }
  if (!cxx_locale_set) {
    std::locale::global(std::locale(std::locale::classic(), new CommaPunct));
  }

  const std::string under_locale = j.dump();
  const obs::Json parsed = obs::Json::parse(under_locale);
  const double lp = parsed.find("lp_value")->as_double();
  const double ratio = parsed.find("ratio")->as_double();
  const std::int64_t count = parsed.find("count")->as_int();

  std::locale::global(saved);
  std::setlocale(LC_ALL, c_saved_name.c_str());

  EXPECT_EQ(under_locale, reference);
  EXPECT_NE(under_locale.find("1234.5625"), std::string::npos);
  EXPECT_DOUBLE_EQ(lp, 1234.5625);
  EXPECT_DOUBLE_EQ(ratio, 0.001);
  EXPECT_EQ(count, 1000000);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_THROW(obs::Json::parse("{"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("[1,]"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("{} trailing"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("\"unterminated"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("nulL"), util::CheckError);
}

// The parser recurses once per level, so depth is capped: a line of
// 100,000 '[' used to overflow the stack instead of throwing.
TEST(Json, ParseCapsNestingDepth) {
  const auto nested = [](int depth) {
    std::string text;
    for (int d = 0; d < depth; ++d) text += d % 2 == 0 ? "[" : "{\"k\":";
    text += "0";
    for (int d = depth; d-- > 0;) text += d % 2 == 0 ? "]" : "}";
    return text;
  };
  const int cap = obs::Json::kMaxDepth;
  const obs::Json deepest = obs::Json::parse(nested(cap));
  int depth = 0;
  for (const obs::Json* cur = &deepest; !cur->is_number(); ++depth) {
    cur = cur->is_array() ? &cur->at(0) : cur->find("k");
  }
  EXPECT_EQ(depth, cap);
  EXPECT_THROW(obs::Json::parse(nested(cap + 1)), util::CheckError);
  EXPECT_THROW(obs::Json::parse(std::string(100000, '[')), util::CheckError);
}

/// Resolves "a/b" paths against the report; counters' own names
/// contain dots, so '/' separates levels.
const obs::Json* resolve(const obs::Json& root, const std::string& path) {
  const obs::Json* cur = &root;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string key = path.substr(
        pos, slash == std::string::npos ? std::string::npos : slash - pos);
    cur = cur->find(key);
    if (!cur || slash == std::string::npos) break;
    pos = slash + 1;
  }
  return cur;
}

TEST(Report, GoldenKeysOnCorpusInstance) {
  std::ifstream in(std::string(NAT_CORPUS_DIR) + "/binary_nest_d3.txt");
  ASSERT_TRUE(in) << "corpus instance missing";
  const at::Instance instance = io::read_instance(in);

  obs::reset_all();
  obs::clear_spans();
  const at::NestedSolveResult r = at::solve_nested(instance);

  obs::RunSummary summary;
  summary.solver = "nested";
  summary.jobs = instance.num_jobs();
  summary.g = instance.g;
  summary.horizon_lo = instance.horizon().lo;
  summary.horizon_hi = instance.horizon().hi;
  summary.volume = instance.total_volume();
  summary.volume_lower_bound = instance.volume_lower_bound();
  summary.laminar = instance.is_laminar();
  summary.active_slots = r.active_slots;
  summary.lp_objective = r.lp_value;
  summary.lp_iterations = r.lp_iterations;
  summary.repairs = r.repairs;

  // Serialize, reparse, and check the parsed document — the golden
  // file lists every key the schema promises.
  const obs::Json report =
      obs::Json::parse(obs::run_report(summary).dump(2));

  std::ifstream golden(std::string(NAT_GOLDEN_DIR) +
                       "/report_required_keys.txt");
  ASSERT_TRUE(golden) << "golden key list missing";
  std::string line;
  int checked = 0;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    const obs::Json* v = resolve(report, line);
    EXPECT_NE(v, nullptr) << "report is missing required key: " << line;
    ++checked;
  }
  EXPECT_GT(checked, 15) << "golden key list suspiciously short";

  // Headline numbers survived the round trip.
  EXPECT_EQ(resolve(report, "run/active_slots")->as_int(), r.active_slots);
  EXPECT_NEAR(resolve(report, "run/lp_objective")->as_double(), r.lp_value,
              1e-9);
  EXPECT_GT(resolve(report, "counters/lp.sparse.pivots")->as_int(), 0);
  EXPECT_GT(resolve(report, "counters/flow.dinic.aug_paths")->as_int(), 0);

  // Per-stage spans are present and the lp_solve span nests under the
  // end-to-end solve_nested span.
  const obs::Json* spans = resolve(report, "spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  std::int64_t total_id = -1, lp_parent = -2;
  std::set<std::string> names;
  for (std::size_t i = 0; i < spans->size(); ++i) {
    const obs::Json& s = spans->at(i);
    names.insert(s.find("name")->as_string());
    EXPECT_GE(s.find("dur_ns")->as_int(), 0);
    if (s.find("name")->as_string() == "solve_nested") {
      total_id = s.find("id")->as_int();
    }
    if (s.find("name")->as_string() == "solve_nested/lp_solve") {
      lp_parent = s.find("parent")->as_int();
    }
  }
  EXPECT_TRUE(names.count("solve_nested"));
  EXPECT_TRUE(names.count("solve_nested/lp_solve"));
  EXPECT_TRUE(names.count("solve_nested/rounding"));
  EXPECT_TRUE(names.count("solve_nested/extract"));
  EXPECT_EQ(lp_parent, total_id);
}

}  // namespace
}  // namespace nat
