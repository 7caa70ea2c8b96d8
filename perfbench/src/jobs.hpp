#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "spans.hpp"

namespace perfbench {

/// Kinds of short verified jobs: a ring exchange with an allreduce, a few
/// steps of tiny LBMHD, or one step of tiny QCD.
enum class JobKind : int { Ring = 0, Lbmhd, Qcd };
inline constexpr std::size_t kNumJobKinds = 3;
inline constexpr std::array<const char*, kNumJobKinds> kJobKindNames = {"ring", "lbmhd",
                                                                        "qcd"};

/// Relative frequency of each job kind.
using JobMix = std::array<double, kNumJobKinds>;

/// The service phase: 2 lanes of 2-rank jobs (4 ranks in flight, the host's
/// core count), the three kinds equally often.
inline constexpr int kJobLanes = 2;
inline constexpr int kJobRanks = 2;
inline constexpr JobMix kJobMix = {1, 1, 1};
/// Open loop: Poisson arrivals at a thirtieth of the closed-loop throughput
/// of the 4-vCPU reference host (~4500 jobs/s), so the lanes are busy ~5% of
/// the time and latency is mostly wake-up plus service time. Nearer
/// saturation one scheduler hiccup delays many queued jobs.
inline constexpr double kOpenRate = 150.0;
/// Open-loop jobs sent.
inline constexpr std::size_t kOpenJobs = 1000;
/// Closed loop: jobs kept in flight, and seconds measured.
inline constexpr int kClosedOutstanding = 4;
inline constexpr double kClosedSeconds = 6.0;
/// Length of the phase.
inline constexpr double kJobPhaseSeconds =
    static_cast<double>(kOpenJobs) / kOpenRate + kClosedSeconds;

struct ScheduledJob {
  double due_ms = 0.0;  ///< send time relative to the start of the phase
  JobKind kind = JobKind::Ring;
};

/// Poisson arrivals at `rate_per_s` with kinds drawn from `mix`; the same
/// seed always yields the same schedule.
[[nodiscard]] std::vector<ScheduledJob> make_schedule(std::uint64_t seed,
                                                      std::size_t count,
                                                      double rate_per_s,
                                                      const JobMix& mix);

struct JobPhaseResult {
  std::vector<double> setup_s;     ///< server start plus warm-up jobs, wall
  std::vector<double> setup_cpu_s; ///< the same, CPU time of all threads
  std::vector<double> latency_ms;  ///< open loop: due time -> completion
  std::vector<double> lateness_ms; ///< open loop: due time -> submit
  double jobs_per_s = 0.0;         ///< closed loop
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< failed, rejected or failed verification
  std::size_t rejected = 0;
  std::vector<double> queue_ms, run_ms, submit_us;
  std::array<std::vector<double>, kNumJobKinds> run_ms_by_kind;
  std::vector<std::string> failures;  ///< first few failure reasons
};

/// The service request for one job: a verified body that throws when its
/// own payload or its app's invariants are wrong.
[[nodiscard]] vpar::service::JobSpec make_job_spec(JobKind kind);

/// Start a JobServer, then run the open-loop schedule drawn from `seed`
/// and the closed loop. In a traced run every submit is in a span.
[[nodiscard]] JobPhaseResult run_job_phase(std::uint64_t seed, SpanLog* spans);

}  // namespace perfbench
