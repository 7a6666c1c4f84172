// JSON run reports for solver pipelines.
//
// Two pieces, both zero-dependency:
//
//  * Json — a minimal ordered JSON value with a serializer (dump) and a
//    strict recursive-descent parser (parse). Object keys keep
//    insertion order so reports diff cleanly. Non-finite doubles
//    serialize as null (JSON has no NaN/Inf).
//
//  * run_report — packages one solver run as a single JSON object:
//    instance stats, the run's headline numbers (LP objective, rounded
//    cost, approximation ratio vs the LP lower bound), every registered
//    counter and gauge (counters.hpp), and all recorded trace spans
//    (trace.hpp). Callers reset_all() + clear_spans() before the run so
//    the report is scoped to it. The schema is documented in
//    docs/OBSERVABILITY.md and guarded by tests/test_obs.cpp.
//
// RunSummary is plain numbers on purpose: obs/ sits below activetime/
// in the dependency order, so solver front-ends (examples, bench)
// translate their result structs into a RunSummary rather than obs
// linking against them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nat::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(bool v) : type_(Type::kBool), bool_(v) {}
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(std::int64_t v) : type_(Type::kInt), int_(v) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* v) : type_(Type::kString), string_(v) {}
  Json(std::string v) : type_(Type::kString), string_(std::move(v)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }

  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;       // ints widen
  const std::string& as_string() const;

  /// Object access. operator[] inserts a null member when absent
  /// (making `j["a"]["b"] = 1` work); find returns nullptr when absent.
  Json& operator[](std::string_view key);
  const Json* find(std::string_view key) const;

  /// Array access.
  void push_back(Json v);
  std::size_t size() const;       // elements (array) or members (object)
  const Json& at(std::size_t i) const;  // array element
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serializes; indent < 0 is compact, otherwise pretty with that
  /// many spaces per level.
  std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document. Throws util::CheckError
  /// on malformed input, trailing garbage, or arrays and objects nested
  /// deeper than kMaxDepth (the parser recurses once per level).
  static Json parse(std::string_view text);
  static constexpr int kMaxDepth = 256;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Headline numbers of one solver run; fill what applies and leave the
/// rest at their defaults (negative / NaN sentinels serialize as null).
struct RunSummary {
  std::string solver;  // "nested", "greedy", "exact", ...

  // Instance stats.
  std::int64_t jobs = 0;
  std::int64_t g = 0;
  std::int64_t horizon_lo = 0;
  std::int64_t horizon_hi = 0;
  std::int64_t volume = 0;
  std::int64_t volume_lower_bound = 0;
  bool laminar = false;

  // Outcome.
  std::int64_t active_slots = -1;   // rounded cost; -1 when not solved
  double lp_objective = -1.0;       // LP lower bound; < 0 when unused
  std::int64_t lp_iterations = -1;
  std::int64_t repairs = -1;

  // Robust interval-time certificate (docs/ROBUST.md); robust_hi = -1
  // means the run was not robust and neither field serializes.
  double robust_lo = -1.0;
  std::int64_t robust_hi = -1;
};

/// Builds the full report object: {"schema", "instance", "run",
/// "counters", "gauges", "spans"}. Reads the current counter/gauge
/// registries and the span buffer.
Json run_report(const RunSummary& summary);

/// run_report + pretty-print to `os` with a trailing newline.
void write_report(std::ostream& os, const RunSummary& summary);

}  // namespace nat::obs
