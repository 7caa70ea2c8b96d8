#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// What a result set was measured on. Two result sets are comparable only
/// when their fingerprints' keys are equal; anything else is "no baseline".
struct HostFingerprint {
  std::string cpu_model;
  int cores = 0;           ///< logical cpus
  int physical_cores = 0;
  std::string simd_isa;    ///< from simd::width_isa_name
  std::size_t simd_width = 0;  ///< doubles per vector (simd::preferred_width)
  int numa_nodes = 0;      ///< arch::host_topology
  std::size_t llc_bytes = 0;   ///< sum of the distinct last-level caches

  /// Stable comparison key over every field.
  [[nodiscard]] std::string key() const;
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] HostFingerprint host_fingerprint();

/// Peak resident set of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// CPU time of all threads of this process, in ms. With paravirtual steal
/// accounting the kernel leaves out time the hypervisor took, and a thread
/// blocked in a wait adds nothing.
[[nodiscard]] double process_cpu_ms();

/// Cumulative steal and total time of all cpus, in ticks (/proc/stat);
/// zeros where the file is unreadable.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of the host's cpu time the hypervisor took between two readings;
/// 0 where no time passed or steal is not accounted.
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// A measurement window is busy when the hypervisor took more than this
/// share of the host's cpu time in it. On the 4-vCPU reference VM step times
/// grew 1.3-2x and job latencies 1.5-3x in stretches of 5-15% steal.
inline constexpr double kBusyStealShare = 0.03;

/// Splits a measurement into consecutive windows and tells which ones
/// the hypervisor disturbed, so their time can be measured again. Hosts
/// without steal accounting never read busy.
class StealWindows {
 public:
  /// Close the current window and start the next; true when it was busy.
  bool close();
  /// Start a new window without judging the time since the last one.
  void restart() { start_ = cpu_ticks(); }
  /// {"windows": N, "busy": M} for the details line.
  [[nodiscard]] std::string to_json() const;

 private:
  CpuTicks start_ = cpu_ticks();
  std::size_t busy_ = 0;
  std::size_t total_ = 0;
};

/// Samples [first, first + count) of a series, measured in one window.
struct SampleWindow {
  double steal_share = 0.0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The samples of `series` from calm windows (steal share at most
/// kBusyStealShare) or, when fewer than a quarter of the windows were calm,
/// from the calmest quarter. A run inside a steal episode that outlasts it
/// still reports from its least disturbed windows: on the 4-vCPU reference
/// VM whole runs at 8-16% steal read hybrid PARATEC steps up to 2.8x slower.
[[nodiscard]] std::vector<double> calm_samples(const std::vector<double>& series,
                                               std::vector<SampleWindow> windows);

}  // namespace perfbench
