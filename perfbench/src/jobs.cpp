#include "jobs.hpp"

#include <chrono>
#include <deque>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>

#include "apps.hpp"
#include "host.hpp"
#include "service/job_server.hpp"

namespace perfbench {

namespace {

namespace simrt = vpar::simrt;
namespace service = vpar::service;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Verified ring exchange plus allreduce; throws on any corrupted value.
void ring_body(simrt::Communicator& comm) {
  const int p = comm.size();
  const int next = (comm.rank() + 1) % p;
  const int prev = (comm.rank() + p - 1) % p;
  for (int round = 0; round < 4; ++round) {
    const int sent = comm.rank() * 1000 + round;
    int got = -1;
    comm.send<int>(next, std::span<const int>(&sent, 1), round);
    comm.recv<int>(prev, std::span<int>(&got, 1), round);
    if (got != prev * 1000 + round) throw std::runtime_error("ring payload corrupted");
  }
  if (comm.allreduce<int>(1, simrt::ReduceOp::Sum) != p) {
    throw std::runtime_error("ring allreduce corrupted");
  }
}

/// `steps` steps of app `a` on its tiny problem, checked like a full run.
void app_body(simrt::Communicator& comm, std::size_t a, int steps) {
  AppSet apps(comm, ProblemSize::Tiny);
  apps.build(a);
  const auto before = apps.diagnostics(a);
  for (int s = 0; s < steps; ++s) apps.step(a);
  const auto after = apps.diagnostics(a);
  if (auto why = check_invariants(a, before, after); !why.empty()) {
    throw std::runtime_error(why);
  }
}

}  // namespace

std::vector<ScheduledJob> make_schedule(std::uint64_t seed, std::size_t count,
                                        double rate_per_s, const JobMix& mix) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s / 1e3);  // per ms
  std::discrete_distribution<int> kind(mix.begin(), mix.end());
  std::vector<ScheduledJob> out;
  out.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    out.push_back({t, static_cast<JobKind>(kind(rng))});
  }
  return out;
}

service::JobSpec make_job_spec(JobKind kind) {
  service::JobSpec spec;
  spec.app = kJobKindNames[static_cast<std::size_t>(kind)];
  spec.tenant = "bench";
  spec.size = kJobRanks;
  spec.retry.max_retries = 0;  // a failed job counts as failed, never retried
  switch (kind) {
    case JobKind::Ring: spec.body = ring_body; break;
    case JobKind::Lbmhd: spec.body = [](simrt::Communicator& c) { app_body(c, 0, 3); }; break;
    case JobKind::Qcd: spec.body = [](simrt::Communicator& c) { app_body(c, 4, 1); }; break;
  }
  return spec;
}

JobPhaseResult run_job_phase(std::uint64_t seed, SpanLog* spans) {
  JobPhaseResult out;
  auto note = [&](const service::JobResult& r) {
    ++out.attempted;
    if (r.completed()) return true;
    ++out.failed;
    if (r.outcome == service::Outcome::Rejected) ++out.rejected;
    if (out.failures.size() < 5) {
      out.failures.push_back(r.app + ": " + service::to_string(r.outcome) + " " + r.error);
    }
    return false;
  };

  service::ServerConfig server_config;
  server_config.lanes = kJobLanes;
  server_config.queue_capacity = 1 << 16;
  server_config.max_ranks = kJobRanks;

  constexpr int kSetupRepeats = 5;
  std::unique_ptr<service::JobServer> server;
  std::vector<SampleWindow> setup_windows;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const CpuTicks ticks0 = cpu_ticks();
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    server = std::make_unique<service::JobServer>(server_config);
    for (std::size_t k = 0; k < kNumJobKinds; ++k) {
      // Two warm-up jobs per kind so both lanes' executors have started.
      auto first = server->submit(make_job_spec(static_cast<JobKind>(k)));
      auto second = server->submit(make_job_spec(static_cast<JobKind>(k)));
      note(first.ticket.wait());
      note(second.ticket.wait());
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    out.setup_cpu_s.push_back((process_cpu_ms() - cpu0) / 1e3);
    setup_windows.push_back({steal_share(ticks0, cpu_ticks()), out.setup_s.size() - 1, 1});
  }
  out.setup_s = calm_samples(out.setup_s, setup_windows);
  out.setup_cpu_s = calm_samples(out.setup_cpu_s, setup_windows);

  // Open loop: the generator sends each job at its scheduled time, whatever
  // the state of earlier jobs; the program sees only the generated specs.
  const auto schedule = make_schedule(seed, kOpenJobs, kOpenRate, kJobMix);
  struct Sent {
    service::Admission admission;
    double lateness_ms = 0.0;
  };
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    auto spec = make_job_spec(schedule[i].kind);
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     schedule[i].due_ms));
    std::this_thread::sleep_until(due);
    ScopedSpan span(spans, "service.submit", static_cast<std::int64_t>(i));
    const auto t_sub = Clock::now();
    Sent s;
    s.lateness_ms = ms_between(due, t_sub);
    s.admission = server->submit(std::move(spec));
    out.submit_us.push_back(ms_between(t_sub, Clock::now()) * 1e3);
    sent.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto result = sent[i].admission.ticket.wait();
    if (!note(result)) continue;
    out.lateness_ms.push_back(sent[i].lateness_ms);
    out.latency_ms.push_back(sent[i].lateness_ms + result.latency_ms);
    out.queue_ms.push_back(result.queue_ms);
    out.run_ms.push_back(result.run_ms);
    out.run_ms_by_kind[static_cast<std::size_t>(schedule[i].kind)].push_back(result.run_ms);
  }

  // Closed loop: a fixed number of jobs in flight; each completion sends the
  // next job until kClosedSeconds have passed.
  std::mt19937_64 rng(seed ^ 0x5eedc105edull);
  std::discrete_distribution<int> kind(kJobMix.begin(), kJobMix.end());
  auto next_spec = [&] { return make_job_spec(static_cast<JobKind>(kind(rng))); };
  std::deque<service::JobTicket> in_flight;
  const auto t0 = Clock::now();
  const auto stop_sending = t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(kClosedSeconds));
  std::size_t completed = 0;
  for (int i = 0; i < kClosedOutstanding; ++i) {
    in_flight.push_back(server->submit(next_spec()).ticket);
  }
  while (!in_flight.empty()) {
    const auto result = in_flight.front().wait();
    in_flight.pop_front();
    if (note(result)) ++completed;
    if (Clock::now() < stop_sending) in_flight.push_back(server->submit(next_spec()).ticket);
  }
  out.jobs_per_s = static_cast<double>(completed) / (ms_between(t0, Clock::now()) / 1e3);
  server->stop();
  return out;
}

}  // namespace perfbench
