#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t rank_of(std::size_t n, double p) {
  const auto k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(k, 1, n);
}

}  // namespace

std::optional<TailPercentile> supported_percentile(std::vector<double> samples,
                                                   double p,
                                                   std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t k = rank_of(n, p);
  if (n - k < min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return TailPercentile{p, samples[k - 1], n, n - k};
}

std::optional<TailPercentile> highest_tail_percentile(
    std::vector<double> samples, std::size_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (auto t = supported_percentile(samples, p, min_beyond)) return t;
  }
  return std::nullopt;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
