#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "apps.hpp"
#include "host.hpp"
#include "jobs.hpp"
#include "layers.hpp"
#include "simrt/runtime.hpp"

namespace perfbench {

namespace {

namespace simrt = vpar::simrt;

/// Ranks plus pool workers never exceed this (the 4-core reference host's
/// nproc): strong_p4 runs 4 ranks, hybrid_p1 one rank with 3 helpers, and
/// the service phase after them 2 lanes of 2-rank jobs.
constexpr int kMaxThreads = 4;

int app_ranks(const std::string& workload) {
  if (workload == "strong_p4") return 4;
  if (workload == "hybrid_p1") return 1;
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::string samples_summary(const std::vector<double>& v) {
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream d;
  d << "{\"count\": " << v.size() << ", \"median\": " << json_number(median(v))
    << ", \"max\": " << json_number(sorted.empty() ? 0.0 : sorted.back()) << "}";
  return d.str();
}

}  // namespace

void run_workload(const RunOptions& options, Report& report) {
  AppPhaseConfig config;
  config.workload = options.workload;
  config.ranks = app_ranks(options.workload);
  // Grow the shared pool to kMaxThreads workers up front: a 1-rank job then
  // has three idle helpers for parallel_for, a 4-rank job none.
  simrt::run(kMaxThreads, [](simrt::Communicator&) {});

  const CpuTicks ticks0 = cpu_ticks();
  SpanLog spans;
  SpanLog* span_log = options.trace ? &spans : nullptr;
  LadderResult ladder;

  // The app steps first, then the service phase.
  config.seconds = std::max(1.0, options.seconds - kJobPhaseSeconds);
  config.seed = options.seed;
  config.spans = span_log;
  if (options.trace) {
    config.ladder = [&](simrt::Communicator& comm, AppSet& set) {
      run_app_ladder(comm, set, span_log, ladder);
    };
  }
  const AppPhaseResult apps = run_app_phase(config);
  report.attempted += apps.checks;
  report.failed += apps.failures.size();
  report.failures.insert(report.failures.end(), apps.failures.begin(), apps.failures.end());

  const JobPhaseResult jobs = run_job_phase(options.seed, span_log);
  report.attempted += jobs.attempted;
  report.failed += jobs.failed;
  report.failures.insert(report.failures.end(), jobs.failures.begin(), jobs.failures.end());
  report.detail("generator_lateness_ms", samples_summary(jobs.lateness_ms));
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total) {
    // Share of the host's cpu time the hypervisor took while this run went.
    report.detail("host_steal_share",
                  json_number(static_cast<double>(ticks1.steal - ticks0.steal) /
                              static_cast<double>(ticks1.total - ticks0.total)));
  }
  // App rounds, and how many were busy and measured again.
  report.detail("steal_windows", "{\"app_rounds\": " + apps.windows + "}");
  for (std::size_t k = 0; k < kNumJobKinds; ++k) {
    report.detail(std::string("job_run_ms.") + kJobKindNames[k],
                  samples_summary(jobs.run_ms_by_kind[k]));
  }

  if (!options.trace) {
    // Set-up and step times are CPU time of all threads: wall time on a
    // shared host moves with the other tenants' steal (perfbench/METRICS.md),
    // and goes to the details.
    report.add("setup_s", median(apps.setup_cpu_s) + median(jobs.setup_cpu_s), "s");
    report.detail("setup_wall_s", json_number(median(apps.setup_s) + median(jobs.setup_s)));
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    for (std::size_t a = 0; a < kNumApps; ++a) {
      report.add_timing(std::string(kAppNames[a]) + "_step_cpu_ms", apps.step_cpu_ms[a], "ms");
      report.timing_detail(std::string(kAppNames[a]) + "_step_ms", apps.step_ms[a], "ms");
    }
    // The service phase's latency (median and highest supported tail) and
    // throughput go to the details only: between runs on a shared host they
    // spread past 25% of their median (perfbench/METRICS.md).
    report.timing_detail("job_ms", jobs.latency_ms, "ms");
    report.detail("jobs_per_s", json_number(jobs.jobs_per_s));
    return;
  }

  run_outside_probes(config.ranks, span_log, ladder);
  add_layer_metrics(apps, jobs, ladder, report);
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  if (!spans.write_jsonl(path)) throw std::runtime_error("cannot write " + path);
  report.detail("spans_file", json_string(path));
  std::ostringstream by_name;
  by_name << "{";
  bool first = true;
  for (const auto& [name, t] : spans.totals()) {
    by_name << (first ? "" : ", ") << json_string(name) << ": {\"count\": " << t.count
            << ", \"total_ms\": " << json_number(t.total_ms)
            << ", \"self_ms\": " << json_number(t.self_ms) << "}";
    first = false;
  }
  by_name << "}";
  report.detail("spans", by_name.str());
}

void print_reference() {
  for (const char* workload : {"strong_p4", "hybrid_p1"}) {
    simrt::run(kMaxThreads, [](simrt::Communicator&) {});
    AppPhaseConfig config;
    config.workload = workload;
    config.ranks = app_ranks(workload);
    config.seconds = 0.0;
    config.setup_repeats = 1;
    const auto result = run_app_phase(config);
    for (std::size_t a = 0; a < kNumApps; ++a) {
      std::printf("      {\"%s\", \"%s\", {", workload, kAppNames[a]);
      for (std::size_t i = 0; i < result.check_diag[a].size(); ++i) {
        std::printf("%s%a", i ? ", " : "", result.check_diag[a][i]);
      }
      std::printf("}},\n");
    }
  }
}

}  // namespace perfbench
