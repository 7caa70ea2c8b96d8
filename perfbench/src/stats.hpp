#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for even counts).
/// Returns 0 for an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// A tail percentile together with the evidence behind it.
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99
  double value = 0.0;
  std::size_t count = 0;    ///< samples in the set
  std::size_t beyond = 0;   ///< samples strictly after the percentile's rank
};

/// The highest percentile of the ladder 99.9, 99, 95, 90, 75, 50 whose
/// nearest rank leaves at least `min_beyond` samples beyond it; empty when
/// even the median does not qualify.
[[nodiscard]] std::optional<TailPercentile> highest_tail_percentile(
    std::vector<double> samples, std::size_t min_beyond = 10);

/// Nearest-rank percentile `p` (the value at 1-based rank ceil(p/100 * n))
/// of `samples`, but only when at least `min_beyond` samples lie beyond that
/// rank (a p99 needs >= 1000 samples).
[[nodiscard]] std::optional<TailPercentile> supported_percentile(
    std::vector<double> samples, double p, std::size_t min_beyond = 10);

/// Metric names are 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

}  // namespace perfbench
