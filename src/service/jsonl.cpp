#include "service/jsonl.hpp"

#include <istream>
#include <limits>
#include <ostream>

#include "util/check.hpp"
#include "verify/verify.hpp"

namespace nat::service {

bool is_jsonl_record(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string::npos && line[first] != '#';
}

bool read_jsonl_record(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    if (!is_jsonl_record(*line)) continue;
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return true;
  }
  return false;
}

void write_jsonl_record(std::ostream& out, const obs::Json& record) {
  write_jsonl_record(out, record.dump());
}

void write_jsonl_record(std::ostream& out, const std::string& dumped) {
  out << dumped << '\n' << std::flush;
}

int narrow_int(std::int64_t value, const char* field) {
  NAT_CHECK_MSG(value >= std::numeric_limits<int>::min() &&
                    value <= std::numeric_limits<int>::max(),
                field << " " << value << " is outside the int range");
  return static_cast<int>(value);
}

std::string classify_solver_failure(const std::string& what) {
  return what.find("instance is infeasible") != std::string::npos
             ? "infeasible"
             : verify::classify_failure(what);
}

std::string classify_cancelled(const std::string& what) {
  return what.find("deadline") != std::string::npos ? "timeout" : "cancelled";
}

}  // namespace nat::service
