#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Run one workload and fill `report`: end-to-end metrics when untraced,
/// per-layer metrics when traced. Throws std::invalid_argument for an
/// unknown workload.
void run_workload(const RunOptions& options, Report& report);

/// Print the app workloads' check-point diagnostics as the body of
/// reference.hpp.
void print_reference();

}  // namespace perfbench
