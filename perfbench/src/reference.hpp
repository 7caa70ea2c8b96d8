#pragma once

// Stored reference diagnostics of the app workloads after kWarmupSteps +
// kCheckSteps steps of each app (printed by `perfbench --print-reference`).
// Hex-float literals keep every bit.

#include <string>
#include <vector>

namespace perfbench {

struct ReferenceDiagnostics {
  std::string workload;
  std::string app;
  std::vector<double> values;
};

inline const std::vector<ReferenceDiagnostics>& reference_diagnostics() {
  static const std::vector<ReferenceDiagnostics> refs = {
      {"strong_p4", "lbmhd", {0x1.0000000000001p+18, 0x1.f8p-36, -0x1.1p-36, -0x1.1p-36, 0x1.efbp-46, 0x1.479ce5ba605c6p+8, 0x1.477dc1349dc38p+8}},
      {"strong_p4", "cactus", {0x1.8a6ecf7c6eb91p-19, 0x1.f9cc93b0ee35bp-15}},
      {"strong_p4", "gtc", {0x1.4p+17, 0x0p+0, 0x1.3cp-42, 0x1.7b58044ea9768p+15}},
      {"strong_p4", "paratec", {-0x1.3b4f2bd1c2f99p-1, -0x1.3c06cdab04647p-3, -0x1.09c84a2316f55p-3, -0x1.8c1c42c5bd1a3p-6, 0x1p+3}},
      {"strong_p4", "qcd", {0x1.000000000000dp+0, 0x1.1a5237400cf63p-7}},
      {"hybrid_p1", "lbmhd", {0x1.fffffffffff13p+17, 0x1.d0394aap-37, 0x1.fe683bp-37, -0x1.559e5ap-41, 0x1.7d2bp-45, 0x1.479ce5ba605aep+8, 0x1.477dc1349dc02p+8}},
      {"hybrid_p1", "cactus", {0x1.8a6ecf7c6e878p-19, 0x1.f9cc93b0ee279p-15}},
      {"hybrid_p1", "gtc", {0x1.4p+17, 0x0p+0, -0x1.36p-44, 0x1.55539550cf34cp+15}},
      {"hybrid_p1", "paratec", {-0x1.3b4f2bd1c2f9ap-1, -0x1.3c06cdab0463dp-3, -0x1.09c84a2316f55p-3, -0x1.8c1c42c5bd19ap-6, 0x1.ffffffffffffep+2}},
      {"hybrid_p1", "qcd", {0x1.fffffffffff6dp-1, 0x1.1a5237400b73fp-7}},
  };
  return refs;
}

}  // namespace perfbench
