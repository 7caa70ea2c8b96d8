#pragma once

#include <map>
#include <string>
#include <vector>

#include "apps.hpp"
#include "jobs.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// Raw per-layer measurements of the traced run, filled on rank 0 by the
/// ladder and by the probes outside the app job.
struct LadderResult {
  std::map<std::string, double> values;  ///< final metric values by name
  std::array<double, kNumApps> covered_ms{};   ///< kernel time per app step
  std::array<double, kNumApps> exchange_ms{};  ///< halo exchange time per step
  std::size_t paratec_grid_n = 0;  ///< FFT grid of the ladder's PARATEC
};

/// Drive each layer through its public entry points at the shapes of `set`
/// (the workload's per-rank tiles), with spans around every call. Runs on
/// every rank of the app job; collective where the layer is.
void run_app_ladder(vpar::simrt::Communicator& comm, AppSet& set,
                    SpanLog* spans, LadderResult& out);

/// Probes that need their own jobs, run after the ladder: executor launch
/// at `ranks`, collectives at P=2 and P=4, and the sustainable-bandwidth
/// triad.
void run_outside_probes(int ranks, SpanLog* spans, LadderResult& out);

/// Every per-layer metric, in BENCHMARK.json order.
struct LayerMetricSpec {
  std::string name;
  std::string unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layer_metric_specs();

/// Turn the phase results and the ladder into the per-layer metrics.
void add_layer_metrics(const AppPhaseResult& apps, const JobPhaseResult& jobs,
                       const LadderResult& ladder, Report& report);

}  // namespace perfbench
