// Golden JSONL records: every service surface — service::solve_cell,
// a scripted SessionManager stream, and a one-worker Daemon stream —
// on fixed inputs, compared line by line against
// tests/golden/records.jsonl. A change that must not alter behaviour
// (a refactor, a deletion, a faster LP) proves it here: the records
// are pinned byte for byte once timings and source line numbers are
// dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "instances/generators.hpp"
#include "io/serialize.hpp"
#include "obs/report.hpp"
#include "service/batch.hpp"
#include "service/sessions.hpp"
#include "util/rng.hpp"

namespace nat::service {
namespace {

/// Wall-clock fields: the only parts of a record that vary run to run.
constexpr const char* kTimingKeys[] = {"wall_ms", "queue_ms", "solve_ms",
                                       "deadline_left_ms"};

/// `<dir>/<file>.cpp:<line>` -> `<file>.cpp`. NAT_CHECK messages carry
/// __FILE__ (the build's absolute path) and a line number that moves
/// with any edit to the file. A location starts after a space or ':'.
std::string strip_source_locations(std::string text) {
  for (const char* ext : {".cpp:", ".hpp:"}) {
    std::size_t at = 0;
    while ((at = text.find(ext, at)) != std::string::npos) {
      const std::size_t colon = at + 4;
      std::size_t end = colon + 1;
      while (end < text.size() && std::isdigit(static_cast<unsigned char>(
                                      text[end])) != 0) {
        ++end;
      }
      if (end == colon + 1) {  // no line number: not a location
        at = colon;
        continue;
      }
      std::size_t start = at;
      while (start > 0 && text[start - 1] != ' ' && text[start - 1] != ':') {
        --start;
      }
      const std::size_t slash = text.rfind('/', at);
      const std::size_t name =
          slash != std::string::npos && slash >= start ? slash + 1 : start;
      text.replace(start, end - start, text.substr(name, colon - name));
      at = start + (colon - name);
    }
  }
  return text;
}

std::string normalize(const std::string& record) {
  const obs::Json parsed = obs::Json::parse(record);
  obs::Json out = obs::Json::object();
  for (const auto& [key, value] : parsed.members()) {
    if (std::find(std::begin(kTimingKeys), std::end(kTimingKeys), key) !=
        std::end(kTimingKeys)) {
      continue;
    }
    out[key] = key == "failure_class" || key == "error"
                   ? obs::Json(strip_source_locations(value.as_string()))
                   : value;
  }
  return out.dump();
}

std::string json_payload(const at::Instance& instance) {
  obs::Json jobs = obs::Json::array();
  for (const at::Job& job : instance.jobs) {
    obs::Json row = obs::Json::array();
    row.push_back(job.release);
    row.push_back(job.deadline);
    row.push_back(job.processing);
    if (job.has_processing_interval()) {
      row.push_back(job.processing_lo);
      row.push_back(job.processing_hi);
    }
    jobs.push_back(std::move(row));
  }
  obs::Json j = obs::Json::object();
  j["g"] = instance.g;
  j["jobs"] = std::move(jobs);
  return j.dump();
}

struct Input {
  std::string name;
  BatchItem::Format format = BatchItem::Format::kJson;
  std::string text;
  int jobs = 0;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Every corpus instance, then fixed-seed draws from each generator
/// family the solvers dispatch on.
std::vector<Input> inputs() {
  std::vector<Input> out;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(NAT_CORPUS_DIR)) {
    const std::filesystem::path& p = entry.path();
    if (p.extension() == ".txt" && p.filename() != "MANIFEST.txt") {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    Input in;
    in.name = "corpus:" + path.stem().string();
    in.format = BatchItem::Format::kNative;
    in.text = read_file(path);
    in.jobs = io::instance_from_string(in.text).num_jobs();
    out.push_back(std::move(in));
  }

  const auto add = [&](std::string name, const at::Instance& instance) {
    out.push_back({std::move(name), BatchItem::Format::kJson,
                   json_payload(instance), instance.num_jobs()});
  };
  for (int seed = 0; seed < 4; ++seed) {
    const std::string tag = std::to_string(seed);
    at::gen::RandomLaminarParams laminar;
    laminar.g = 1 + seed % 3;
    laminar.max_depth = 2 + seed % 2;
    util::Rng laminar_rng(7100 + seed);
    add("laminar:" + tag, at::gen::random_laminar(laminar, laminar_rng));

    at::gen::ContendedParams contended;
    contended.g = 2 + seed;
    util::Rng contended_rng(7200 + seed);
    add("contended:" + tag,
        at::gen::random_contended(contended, contended_rng));

    at::gen::RandomGeneralParams general;
    general.g = 2 + seed % 2;
    general.jobs = 6 + 3 * seed;
    util::Rng general_rng(7300 + seed);
    add("random_general:" + tag,
        at::gen::random_general(general, general_rng));

    at::gen::RandomIntervalParams interval;
    interval.laminar = seed % 2 == 0;
    util::Rng interval_rng(7400 + seed);
    add("random_interval:" + tag,
        at::gen::random_interval(interval, interval_rng));
  }
  add("hard_crossing:g2k3", at::gen::hard_crossing(2, 3));
  add("hard_crossing:g3k4", at::gen::hard_crossing(3, 4));
  return out;
}

struct Mode {
  const char* name;
  const char* solver;
  bool robust;
};

constexpr Mode kModes[] = {
    {"auto", "auto", false},       {"robust", "auto", true},
    {"nested", "nested", false},   {"general", "general", false},
    {"greedy", "greedy", false},
};

/// The exact B&B is exponential; it runs only on inputs this small.
constexpr int kExactMaxJobs = 10;

constexpr const char* kHealthy = R"({"g":2,"jobs":[[0,4,2],[0,4,2],[1,3,1]]})";

void cell_records(std::vector<std::string>& out) {
  int index = 0;
  const auto run = [&](const std::string& id, const std::string& text,
                       BatchItem::Format format, const std::string& solver,
                       bool robust) {
    BatchItem item;
    item.id = id;
    item.text = text;
    item.format = format;
    BatchOptions options;
    options.solver = solver;
    options.robust = robust;
    out.push_back(normalize(cell_to_json(solve_cell(item, index++, options))));
  };

  for (const Input& in : inputs()) {
    for (const Mode& mode : kModes) {
      run(in.name + "/" + mode.name, in.text, in.format, mode.solver,
          mode.robust);
    }
    if (in.jobs <= kExactMaxJobs) {
      run(in.name + "/exact", in.text, in.format, "exact", false);
    }
  }

  const auto json = BatchItem::Format::kJson;
  run("poison:malformed_json", R"({"g":2,"jobs":[[0,4,)", json, "auto",
      false);
  run("poison:invalid_window", R"({"g":2,"jobs":[[5,3,1]]})", json, "auto",
      false);
  run("poison:infeasible", R"({"g":1,"jobs":[[0,1,1],[0,1,1]]})", json,
      "auto", false);
  run("poison:crossing_nested", R"({"g":2,"jobs":[[0,4,1],[2,6,1]]})", json,
      "nested", false);
  run("poison:robust_general", kHealthy, json, "general", true);
  run("poison:unknown_solver", kHealthy, json, "simplex", false);
}

void session_records(std::vector<std::string>& out) {
  const std::vector<std::string> lines = {
      R"({"op":"open","session":"s","g":2,"jobs":[[0,8,2],[0,8,1],[2,5,1],[9,12,2]]})",
      R"({"op":"delta","session":"s","kind":"add","job":[1,4,1]})",
      R"({"op":"delta","session":"s","kind":"extend","index":2,"window":[1,6]})",
      R"({"op":"delta","session":"s","kind":"shrink","index":0,"window":[0,7]})",
      R"({"op":"delta","session":"s","kind":"retime","index":3,"interval":[1,3]})",
      R"({"op":"delta","session":"s","kind":"remove","index":1})",
      R"({"op":"delta","session":"s","kind":"shrink","index":0,"window":[0,9]})",
      R"({"op":"delta","session":"nope","kind":"remove","index":0})",
      R"({"op":"close","session":"s"})",
  };
  SessionManager manager;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.push_back(normalize(session_op_to_json(
        manager.process_line(lines[i], static_cast<int>(i)))));
  }
}

void daemon_records(std::vector<std::string>& out) {
  std::mutex mu;
  std::vector<std::string> records;
  daemon::DaemonOptions options;
  options.threads = 1;
  options.sink = [&](const std::string& record) {
    std::lock_guard<std::mutex> lk(mu);
    records.push_back(record);
  };
  {
    daemon::Daemon d(options);
    const std::vector<std::string> lines = {
        R"({"op":"tenant","tenant":"t","weight":2})",
        R"({"op":"solve","tenant":"t","id":"d1","g":2,"jobs":[[0,4,1],[2,6,1],[0,6,3]]})",
        R"({"op":"open","tenant":"t","session":"s","g":2,"jobs":[[0,4,2],[0,4,2],[1,3,1]]})",
        R"({"op":"delta","tenant":"t","session":"s","kind":"add","job":[0,4,1]})",
        R"({"op":"close","tenant":"t","session":"s"})",
        R"({"op":"frobnicate","tenant":"t"})",
    };
    for (const std::string& line : lines) EXPECT_TRUE(d.submit_line(line));
    d.drain();
  }
  std::vector<obs::Json> parsed;
  for (const std::string& r : records) parsed.push_back(obs::Json::parse(r));
  std::sort(parsed.begin(), parsed.end(),
            [](const obs::Json& a, const obs::Json& b) {
              return a.find("index")->as_int() < b.find("index")->as_int();
            });
  for (const obs::Json& j : parsed) out.push_back(normalize(j.dump()));
}

std::vector<std::string> all_records() {
  std::vector<std::string> out;
  cell_records(out);
  session_records(out);
  daemon_records(out);
  return out;
}

TEST(GoldenRecords, ServiceSurfacesMatchTheRecordedJsonl) {
  const std::string path = std::string(NAT_GOLDEN_DIR) + "/records.jsonl";
  std::vector<std::string> expected;
  {
    std::ifstream in(path);
    ASSERT_TRUE(static_cast<bool>(in)) << "missing " << path;
    std::string line;
    while (std::getline(in, line)) expected.push_back(line);
  }
  const std::vector<std::string> actual = all_records();
  EXPECT_GT(actual.size(), 200u);

  const std::size_t common = std::min(expected.size(), actual.size());
  std::size_t first = common;
  for (std::size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      first = i;
      break;
    }
  }
  if (first == common && expected.size() == actual.size()) return;
  ADD_FAILURE() << "records differ from " << path << " at line " << first + 1
                << " (expected " << expected.size() << " lines, got "
                << actual.size() << ")\n  expected: "
                << (first < expected.size() ? expected[first] : "<none>")
                << "\n  actual:   "
                << (first < actual.size() ? actual[first] : "<none>");
  std::cout << "--- actual records ---\n";
  for (const std::string& line : actual) std::cout << line << '\n';
  std::cout << "--- end of actual records ---\n";
}

}  // namespace
}  // namespace nat::service
