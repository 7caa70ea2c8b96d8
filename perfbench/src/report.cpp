#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
  metrics.push_back({name, value, unit});
}

void Report::add_timing(const std::string& name, const std::vector<double>& samples,
                        const std::string& unit) {
  add(name, median(samples), unit);
  timing_detail(name, samples, unit);
}

void Report::timing_detail(const std::string& name, const std::vector<double>& samples,
                           const std::string& unit) {
  std::ostringstream d;
  d << "{\"median\": " << json_number(median(samples)) << ", \"count\": " << samples.size();
  if (auto tail = highest_tail_percentile(samples)) {
    d << ", \"tail_percentile\": " << json_number(tail->percentile)
      << ", \"tail_value\": " << json_number(tail->value)
      << ", \"beyond\": " << tail->beyond;
  }
  d << ", \"unit\": " << json_string(unit) << "}";
  detail(name, d.str());
}

std::string Report::result_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": "
        << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string Report::details_json() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < details.size(); ++i) out << (i ? ", " : "") << details[i];
  out << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(failures[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace perfbench
