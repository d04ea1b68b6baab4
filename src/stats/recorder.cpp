#include "stats/recorder.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xpass::stats {

namespace {

// Shortest-round-trip double formatting (%.17g is exact but noisy; try
// increasing precision until the value parses back identically). NaN/inf
// are not valid JSON numbers — emit null.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_array(std::string& out, const std::vector<double>& xs) {
  out += '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    append_double(out, xs[i]);
  }
  out += ']';
}

}  // namespace

std::string Recorder::to_json(const std::string& scenario_name) const {
  std::string out = "{\n  \"schema\": \"";
  out += kSchema;
  out += "\",\n  \"scenario\": ";
  append_quoted(out, scenario_name);
  if (!abort_reason_.empty()) {
    out += ",\n  \"aborted\": true,\n  \"abort_reason\": ";
    append_quoted(out, abort_reason_);
  }
  out += ",\n  \"scalars\": {";
  bool first = true;
  for (const auto& [name, v] : scalars_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_quoted(out, name);
    out += ": ";
    append_double(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"series\": {";
  first = true;
  for (const auto& [name, s] : series_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_quoted(out, name);
    out += ": {\"t_sec\": ";
    append_array(out, s.t_sec);
    out += ", \"v\": ";
    append_array(out, s.v);
    out += '}';
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace xpass::stats
