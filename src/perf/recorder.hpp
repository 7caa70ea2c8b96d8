#pragma once

#include <string_view>

#include "perf/comm_profile.hpp"
#include "perf/kernel_profile.hpp"

namespace vpar::perf {

/// Per-rank instrumentation sink: one kernel profile plus one communication
/// profile. The simulated runtime installs a Recorder per rank thread;
/// application kernels report through the free functions below, which no-op
/// when no recorder is installed so uninstrumented runs pay nothing.
class Recorder {
 public:
  KernelProfile& kernels() { return kernels_; }
  CommProfile& comm() { return comm_; }
  [[nodiscard]] const KernelProfile& kernels() const { return kernels_; }
  [[nodiscard]] const CommProfile& comm() const { return comm_; }

  void merge(const Recorder& other) {
    kernels_.merge(other.kernels_);
    comm_.merge(other.comm_);
  }

  void clear() {
    kernels_.clear();
    comm_.clear();
  }

 private:
  KernelProfile kernels_;
  CommProfile comm_;
};

/// Currently installed recorder for this thread, or nullptr.
[[nodiscard]] Recorder* current_recorder();

/// RAII installation of a recorder on the current thread. Nesting restores
/// the previous recorder on destruction.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder& recorder);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* previous_;
};

/// Report an executed loop nest (no-op without an installed recorder).
void record_loop(std::string_view region, const LoopRecord& rec);

/// Report `n` loop chunks executed on behalf of other ranks by idle pool
/// workers: bumps the process-wide simrt.helper_chunks metric.
void record_helper_chunks(double n);

/// How a message payload buffer was obtained: `Alloc` = fresh heap
/// allocation (arena miss), `Recycle` = arena free-list hit, `Inline` =
/// stored inside the message object with no buffer at all. A warmed-up run
/// should show recycles and inlines dominating allocs.
enum class PayloadEvent { Alloc, Recycle, Inline };

/// Report a payload storage event: bumps arena.payload_{allocs,recycles,
/// inlines}. Deliberately *not* silenced by CommRecordSuppressor:
/// collective-internal fragments still acquire real buffers, and the counters
/// exist to observe exactly that allocator traffic.
void record_payload(PayloadEvent event);

/// Robustness events from the fault-injection layer: bump
/// simrt.faults_injected, simrt.checksum_failures and simrt.aborts_observed.
/// Like payload events, these are *not* silenced by CommRecordSuppressor:
/// faults injected into collective-internal fragments are exactly what chaos
/// audits need to see.
void record_fault_injected();
void record_checksum_failure();
void record_abort_observed();

/// Report a communication event (no-op without an installed recorder).
/// Inside an OverlapScope, overlappable kinds (PointToPoint, OneSided,
/// AllToAll) are recorded into the overlapped subset of the profile;
/// synchronizing kinds (reductions, broadcasts, gathers, barriers) always
/// count as serialized.
void record_comm(CommKind kind, double messages, double bytes);

/// Marks the current thread as being inside a communication overlap window:
/// nonblocking transfers posted here proceed while the rank packs, unpacks or
/// computes, so the network model may hide part of their cost behind
/// computation. Opening a scope records one overlap window on the comm
/// profile. Scopes nest; only the outermost records a window.
class OverlapScope {
 public:
  OverlapScope();
  ~OverlapScope();
  OverlapScope(const OverlapScope&) = delete;
  OverlapScope& operator=(const OverlapScope&) = delete;
};

/// True when the current thread is inside an OverlapScope.
[[nodiscard]] bool in_overlap_scope();

/// RAII suppression of record_comm on the current thread. The collectives
/// use this around their internal point-to-point traffic so a collective is
/// recorded once, as a collective, instead of as its constituent messages.
class CommRecordSuppressor {
 public:
  CommRecordSuppressor();
  ~CommRecordSuppressor();
  CommRecordSuppressor(const CommRecordSuppressor&) = delete;
  CommRecordSuppressor& operator=(const CommRecordSuppressor&) = delete;
};

}  // namespace vpar::perf
