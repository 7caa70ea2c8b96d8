#pragma once

#include <string>
#include <vector>

namespace vpar::arch {

/// One logical CPU of the host processor topology. `cpu` is the kernel's
/// logical cpu id; `core` is a dense physical-core index (SMT siblings share
/// it); `node` is the NUMA node owning the cpu's local memory.
struct CpuInfo {
  int cpu = 0;
  int core = 0;
  int node = 0;
};

/// Host processor topology: logical cpus with their physical core and NUMA
/// node, as read from the Linux sysfs tree — the cpu/core/node counts of a
/// benchmark's host fingerprint. On hosts without a readable sysfs
/// (non-Linux, restricted containers) the portable fallback reports
/// hardware_concurrency() cpus as distinct cores on a single node with
/// `probed == false`.
struct HostTopology {
  std::vector<CpuInfo> cpus;
  int num_nodes = 1;
  bool probed = false;

  [[nodiscard]] int num_cpus() const { return static_cast<int>(cpus.size()); }

  /// Distinct physical cores (<= num_cpus when SMT is present).
  [[nodiscard]] int num_cores() const;
};

/// Probe the topology under `sysfs_root` (normally "/sys"; tests point it at
/// a synthetic tree or a nonexistent path to exercise the fallback). Never
/// throws: any unreadable file degrades to the portable fallback values for
/// that field.
[[nodiscard]] HostTopology probe_topology(const std::string& sysfs_root);

/// The real host's topology, probed once per process from "/sys".
[[nodiscard]] const HostTopology& host_topology();

}  // namespace vpar::arch
