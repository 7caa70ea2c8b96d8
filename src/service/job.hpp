#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "simrt/fault.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

namespace vpar::service {

/// How a job's life ended. Every submitted job lands in exactly one bucket —
/// the accounting invariant the storm bench asserts: completed +
/// retried_then_completed + failed + rejected == submitted.
enum class Outcome : int {
  Completed = 0,         // first attempt succeeded
  RetriedThenCompleted,  // succeeded after one or more retries
  Failed,                // cleanly failed: retries exhausted, deadline, queue
                         // expiry, or server stopped before the job ran
  Rejected,              // never admitted (see RejectReason)
};

[[nodiscard]] const char* to_string(Outcome outcome);

/// Why admission declined a job (Outcome::Rejected only).
enum class RejectReason : int {
  None = 0,
  BadRequest,    // unrunnable spec: no body, or size out of [1, max_ranks]
  ShuttingDown,  // the server has stopped accepting work
  QueueFull,     // bounded queue at capacity — backpressure, resubmit later
  BreakerOpen,   // recent failure rate tripped the circuit breaker
};

[[nodiscard]] const char* to_string(RejectReason reason);

/// One simulation request: which app body to run, at what size, under which
/// robustness envelope. `platform` is an advisory label (the platform-to-model
/// name the caller wants results attributed to); the service does not
/// interpret it. `deadline` is the job's *total* latency budget measured from
/// admission — queue wait, every retry attempt, and every backoff pause all
/// spend it (0 disarms). `seed` keys the fault plan and the retry jitter
/// stream, so a chaos storm replays exactly.
struct JobSpec {
  std::string app = "anonymous";
  std::string tenant = "default";
  std::string platform;
  int size = 4;
  std::uint64_t seed = 0;
  simrt::FaultPlan fault{};
  bool checksums = false;
  std::chrono::milliseconds deadline{0};
  std::chrono::milliseconds watchdog{0};  // 0 = server default
  simrt::RetryPolicy retry{};
  std::function<void(simrt::Communicator&)> body;
};

/// Everything the service knows about one finished job, counted from the
/// job's *own* ranks only — never from process-wide counters — so a neighbor
/// tenant's traffic cannot contaminate it no matter what ran concurrently.
/// `attempts`, `faults_injected` and `checksum_failures` are counted by the
/// server's wrapper around every rank of every attempt, so failed and
/// retried attempts are included. `total_messages`, `total_bytes` and the
/// `metrics` histograms come from the final attempt's RunResult and stay
/// zero/empty when no attempt completed.
struct JobResult {
  std::uint64_t id = 0;
  std::string app;
  std::string tenant;
  Outcome outcome = Outcome::Rejected;
  RejectReason reject = RejectReason::None;
  /// run() attempts actually started (1 == first try succeeded). Counted by
  /// the job's own rank-0 entry hook, so it is exact even when a failure is
  /// rethrown through the retry loop.
  int attempts = 0;
  std::string error;       // what() of the final failure (empty on success)
  std::string error_type;  // "RankError", "WatchdogTimeout", ...
  int failed_rank = -1;    // from RankError, else -1
  double queue_ms = 0.0;   // admission -> dequeue
  double run_ms = 0.0;     // dequeue -> final attempt done (incl. backoffs)
  double latency_ms = 0.0; // admission -> completion
  double total_messages = 0.0;
  double total_bytes = 0.0;
  double faults_injected = 0.0;    // over all attempts, every rank
  double checksum_failures = 0.0;  // ChecksumErrors that left a rank's body
  trace::MetricsSnapshot metrics;  // rank.messages / rank.bytes histograms

  [[nodiscard]] bool completed() const {
    return outcome == Outcome::Completed ||
           outcome == Outcome::RetriedThenCompleted;
  }
};

/// Caller's handle to a submitted job: wait() blocks until the lane (or the
/// admission path, for rejects) publishes the JobResult. Copyable — copies
/// share the same underlying state.
class JobTicket {
 public:
  JobTicket() : state_(std::make_shared<State>()) {}

  [[nodiscard]] bool done() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->done;
  }

  /// Block until the job finishes; returns a copy of the result. By value,
  /// deliberately: `server.submit(spec).ticket.wait()` must stay safe even
  /// though the temporary Admission (and with it the last ticket reference)
  /// dies at the end of the expression.
  JobResult wait() const {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
    return state_->result;
  }

 private:
  friend class JobServer;

  struct State {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    bool done = false;
    JobResult result;
  };

  void complete(JobResult result) const {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->result = std::move(result);
      state_->done = true;
    }
    state_->cv.notify_all();
  }

  std::shared_ptr<State> state_;
};

/// What submit() returns. The ticket is always valid: for rejected jobs it is
/// pre-completed with Outcome::Rejected and the reject reason, so callers can
/// treat every submission uniformly (submit, then wait).
struct Admission {
  bool accepted = false;
  RejectReason reject = RejectReason::None;
  std::string reason;  // human-readable reject explanation, empty on accept
  JobTicket ticket;
};

}  // namespace vpar::service
