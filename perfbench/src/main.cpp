// Repo benchmark: runs one workload and prints a details line and
// then the result line (the last line of stdout).
//
//   perfbench --workload <strong_p4|hybrid_p1> --seed N
//             --seconds S --trace <0|1> [--out-dir DIR]
//   perfbench --print-reference
//
// Exit status: 0 when every output check passed, 1 when any failed (the
// result line is still printed), 2 on bad usage or a crash (no result).

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--print-reference") {
        perfbench::print_reference();
        return 0;
      }
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  perfbench::Report report;
  try {
    report.detail("host", perfbench::host_fingerprint().to_json());
    perfbench::run_workload(options, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 2;
  }
  for (const auto& f : report.failures) std::cerr << "perfbench: check failed: " << f << "\n";
  std::cout << report.details_json() << "\n" << report.result_json() << std::endl;
  return report.failed == 0 ? 0 : 1;
}
