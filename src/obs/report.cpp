#include "obs/report.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <system_error>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nat::obs {

// --- Json accessors --------------------------------------------------------

bool Json::as_bool() const {
  NAT_CHECK_MSG(type_ == Type::kBool, "json: not a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  NAT_CHECK_MSG(type_ == Type::kInt, "json: not an integer");
  return int_;
}

double Json::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  NAT_CHECK_MSG(type_ == Type::kDouble, "json: not a number");
  return double_;
}

const std::string& Json::as_string() const {
  NAT_CHECK_MSG(type_ == Type::kString, "json: not a string");
  return string_;
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  NAT_CHECK_MSG(type_ == Type::kObject, "json: not an object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  NAT_CHECK_MSG(type_ == Type::kArray, "json: not an array");
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  NAT_CHECK_MSG(type_ == Type::kArray, "json: not an array");
  NAT_CHECK_MSG(i < array_.size(), "json: index " << i << " out of range");
  return array_[i];
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  NAT_CHECK_MSG(type_ == Type::kObject, "json: not an object");
  return object_;
}

// --- serialization ---------------------------------------------------------

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  // std::to_chars, not snprintf("%g"): printf obeys LC_NUMERIC, so a
  // host locale like de_DE.UTF-8 would emit "0,5" and corrupt every
  // JSONL record. to_chars is locale-independent and shortest
  // round-trip by construction.
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  NAT_CHECK_MSG(r.ec == std::errc(), "json: to_chars failed");
  out.append(buf, r.ptr);
}

}  // namespace

namespace {

void dump_to(const Json& j, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void dump_to(const Json& j, std::string& out, int indent, int depth) {
  switch (j.type()) {
    case Json::Type::kNull:
      out += "null";
      break;
    case Json::Type::kBool:
      out += j.as_bool() ? "true" : "false";
      break;
    case Json::Type::kInt:
      out += std::to_string(j.as_int());
      break;
    case Json::Type::kDouble:
      number_to(out, j.as_double());
      break;
    case Json::Type::kString:
      escape_to(out, j.as_string());
      break;
    case Json::Type::kArray: {
      if (j.size() == 0) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < j.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        dump_to(j.at(i), out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      if (j.size() == 0) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : j.members()) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_to(out, k);
        out += indent < 0 ? ":" : ": ";
        dump_to(v, out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  return out;
}

// --- parsing ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    NAT_CHECK_MSG(pos_ == text_.size(),
                  "json: trailing characters at offset " << pos_);
    return v;
  }

 private:
  char peek() {
    NAT_CHECK_MSG(pos_ < text_.size(), "json: unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    NAT_CHECK_MSG(take() == c, "json: expected '" << c << "' at offset "
                                                  << (pos_ - 1));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      ++depth_;
      NAT_CHECK_MSG(depth_ <= Json::kMaxDepth,
                    "json: nesting deeper than " << Json::kMaxDepth
                                                 << " at offset " << pos_);
      Json out = c == '{' ? parse_object() : parse_array();
      --depth_;
      return out;
    }
    if (c == '"') return Json(parse_string());
    if (consume_literal("null")) return Json();
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                NAT_CHECK_MSG(false, "json: bad \\u escape");
            }
            // Reports only ever emit \u00xx for control characters;
            // decode the Latin-1 range and reject the rest.
            NAT_CHECK_MSG(code < 0x80, "json: unsupported \\u escape");
            out += static_cast<char>(code);
            break;
          }
          default:
            NAT_CHECK_MSG(false, "json: bad escape '\\" << e << "'");
        }
      } else {
        NAT_CHECK_MSG(static_cast<unsigned char>(c) >= 0x20,
                      "json: raw control character in string");
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    NAT_CHECK_MSG(pos_ > start, "json: expected a value at offset " << pos_);
    // std::from_chars, not stoll/stod: the sto* family routes through
    // strtod and honors LC_NUMERIC, so records written with '.' would
    // fail to parse back under a comma-decimal locale. from_chars is
    // locale-independent and round-trips what number_to emits exactly.
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t iv = 0;
      const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      NAT_CHECK_MSG(r.ec == std::errc() && r.ptr == tok.data() + tok.size(),
                    "json: bad number '" << std::string(tok) << "'");
      return Json(iv);
    }
    double dv = 0.0;
    const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    NAT_CHECK_MSG(r.ec == std::errc() && r.ptr == tok.data() + tok.size(),
                  "json: bad number '" << std::string(tok) << "'");
    return Json(dv);
  }

  Json parse_array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return out;
      NAT_CHECK_MSG(c == ',', "json: expected ',' or ']' in array");
    }
  }

  Json parse_object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[key] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') return out;
      NAT_CHECK_MSG(c == ',', "json: expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

// --- run report ------------------------------------------------------------

Json run_report(const RunSummary& summary) {
  Json report = Json::object();
  report["schema"] = "nat-report-v1";

  Json& instance = report["instance"];
  instance["jobs"] = summary.jobs;
  instance["g"] = summary.g;
  instance["horizon_lo"] = summary.horizon_lo;
  instance["horizon_hi"] = summary.horizon_hi;
  instance["volume"] = summary.volume;
  instance["volume_lower_bound"] = summary.volume_lower_bound;
  instance["laminar"] = summary.laminar;

  Json& run = report["run"];
  run["solver"] = summary.solver;
  run["active_slots"] =
      summary.active_slots >= 0 ? Json(summary.active_slots) : Json();
  run["lp_objective"] =
      summary.lp_objective >= 0.0 ? Json(summary.lp_objective) : Json();
  if (summary.active_slots >= 0 && summary.lp_objective > 0.0) {
    run["ratio_vs_lp"] =
        static_cast<double>(summary.active_slots) / summary.lp_objective;
  } else {
    run["ratio_vs_lp"] = Json();
  }
  run["lp_iterations"] =
      summary.lp_iterations >= 0 ? Json(summary.lp_iterations) : Json();
  run["repairs"] = summary.repairs >= 0 ? Json(summary.repairs) : Json();
  if (summary.robust_hi >= 0) {
    run["robust_lo"] = summary.robust_lo;
    run["robust_hi"] = summary.robust_hi;
  }

  Json& counters = report["counters"];
  counters = Json::object();  // present even when empty
  for (const auto& [name, value] : counters_snapshot()) {
    counters[name] = value;
  }
  Json& gauges = report["gauges"];
  gauges = Json::object();
  for (const auto& [name, value] : gauges_snapshot()) {
    gauges[name] = value;
  }

  Json& spans = report["spans"];
  spans = Json::array();
  for (const SpanRecord& rec : spans_snapshot()) {
    Json s = Json::object();
    s["name"] = rec.name;
    s["id"] = rec.id;
    s["parent"] = rec.parent;
    s["depth"] = rec.depth;
    s["start_ns"] = rec.start_ns;
    s["dur_ns"] = rec.dur_ns;
    spans.push_back(std::move(s));
  }
  report["spans_dropped"] = spans_dropped();
  return report;
}

void write_report(std::ostream& os, const RunSummary& summary) {
  os << run_report(summary).dump(2) << '\n';
}

}  // namespace nat::obs
