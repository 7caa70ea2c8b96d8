#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cactus/evolve.hpp"
#include "gtc/simulation.hpp"
#include "lbmhd/simulation.hpp"
#include "paratec/scf.hpp"
#include "qcd/simulation.hpp"
#include "simrt/communicator.hpp"
#include "spans.hpp"

namespace perfbench {

inline constexpr std::size_t kNumApps = 5;
inline constexpr std::array<const char*, kNumApps> kAppNames = {
    "lbmhd", "cactus", "gtc", "paratec", "qcd"};

/// Global problem sizes. `Tiny` is the service jobs' shape, `Full` the
/// strong_p4 / hybrid_p1 problem (identical at every rank count, so the two
/// workloads must produce the same physics).
enum class ProblemSize { Tiny, Full };

/// PARATEC's pieces: the Hamiltonian keeps pointers to the basis and layout,
/// so all four live and die together.
struct ParatecApp {
  ParatecApp(vpar::simrt::Communicator& comm, ProblemSize size);
  vpar::paratec::Basis basis;
  vpar::paratec::Layout layout;
  vpar::paratec::Hamiltonian hamiltonian;
  vpar::paratec::Scf scf;
};

/// One rank's instances of the five applications on a shared communicator.
/// Apps are built one at a time (build) so a tiny service job can hold just
/// the one it runs.
struct AppSet {
  AppSet(vpar::simrt::Communicator& comm, ProblemSize size)
      : comm(&comm), size(size) {}

  /// Construct and initialize app `a` (collective).
  void build(std::size_t a);

  /// One step of app `a` (PARATEC: one Scf::iterate).
  void step(std::size_t a);
  /// The app's public diagnostics (collective).
  [[nodiscard]] std::vector<double> diagnostics(std::size_t a);

  vpar::simrt::Communicator* comm;
  ProblemSize size;
  std::unique_ptr<vpar::lbmhd::Simulation> lbmhd;
  std::unique_ptr<vpar::cactus::Evolution> cactus;
  std::unique_ptr<vpar::gtc::Simulation> gtc;
  std::unique_ptr<ParatecApp> paratec;
  std::unique_ptr<vpar::qcd::Simulation> qcd;
};

/// Names of the diagnostics vector entries of app `a`.
[[nodiscard]] std::vector<std::string> diagnostic_names(std::size_t a);

/// Why `diag` (after the fixed check steps) differs from the stored
/// reference of `workload`, or from the other app workload's reference
/// beyond the stated tolerance; empty when it passes.
[[nodiscard]] std::string check_against_reference(const std::string& workload,
                                                  std::size_t a,
                                                  const std::vector<double>& diag);

/// Why the end-of-run diagnostics break an invariant of app `a` relative to
/// the check-point diagnostics; empty when they hold.
[[nodiscard]] std::string check_invariants(std::size_t a,
                                           const std::vector<double>& at_check,
                                           const std::vector<double>& at_end);

struct AppPhaseConfig {
  std::string workload;  ///< strong_p4 or hybrid_p1 (selects the reference)
  int ranks = 4;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  int setup_repeats = 5;
  /// Traced run: rounds alternate between spanned and unspanned steps, and
  /// `ladder` runs on every rank after the timed rounds.
  SpanLog* spans = nullptr;
  std::function<void(vpar::simrt::Communicator&, AppSet&)> ladder;
};

/// Timings of calm windows only (calm_samples).
struct AppPhaseResult {
  std::vector<double> setup_s;      ///< wall
  std::vector<double> setup_cpu_s;  ///< CPU time of all threads
  std::array<std::vector<double>, kNumApps> step_ms;  ///< unspanned, rank 0 wall
  /// CPU time of all threads per step, one sample per unspanned batch.
  std::array<std::vector<double>, kNumApps> step_cpu_ms;
  std::array<std::vector<double>, kNumApps> traced_step_ms;  ///< spanned, rank 0 wall
  std::array<std::vector<double>, kNumApps> check_diag;
  std::string windows;  ///< StealWindows::to_json of the timed rounds
  std::size_t checks = 0;
  std::vector<std::string> failures;
};

/// Steps of each app before the reference diagnostics are taken (after
/// the setup warm-up steps).
inline constexpr int kWarmupSteps = 2;
inline constexpr int kCheckSteps = 4;

[[nodiscard]] AppPhaseResult run_app_phase(const AppPhaseConfig& config);

}  // namespace perfbench
