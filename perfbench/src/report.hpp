#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// One named result value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A result set: the metrics, the output-check tally, and a free-form detail
/// object (JSON text) that travels beside it.
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> details;  ///< "\"key\": value" JSON members

  /// Throws std::invalid_argument for a name outside [A-Za-z0-9_.-].
  void add(const std::string& name, double value, const std::string& unit);
  /// Median of `samples` as the metric, with its tail percentile and sample
  /// count recorded in the details.
  void add_timing(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);
  /// The details entry of add_timing alone, for a timing that is no metric.
  void timing_detail(const std::string& name, const std::vector<double>& samples,
                     const std::string& unit);
  void detail(const std::string& key, const std::string& json_value) {
    details.push_back("\"" + key + "\": " + json_value);
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] std::string details_json() const;
};

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
