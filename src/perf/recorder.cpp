#include "perf/recorder.hpp"

#include "trace/metrics.hpp"

namespace vpar::perf {

namespace {
thread_local Recorder* t_recorder = nullptr;
thread_local int t_overlap_depth = 0;
thread_local int t_suppress_depth = 0;

bool overlappable(CommKind kind) {
  return kind == CommKind::PointToPoint || kind == CommKind::OneSided ||
         kind == CommKind::AllToAll;
}

/// Process-wide metric handles, resolved once. The per-rank CommProfile
/// keeps the model's inputs; these registry counters are the always-on
/// observability view (alive even with no recorder installed) and the only
/// home of the operational counters.
struct Meters {
  trace::Counter& faults = trace::Metrics::instance().counter("simrt.faults_injected");
  trace::Counter& checksums = trace::Metrics::instance().counter("simrt.checksum_failures");
  trace::Counter& aborts = trace::Metrics::instance().counter("simrt.aborts_observed");
  trace::Counter& helper_chunks = trace::Metrics::instance().counter("simrt.helper_chunks");
  trace::Counter& payload_allocs = trace::Metrics::instance().counter("arena.payload_allocs");
  trace::Counter& payload_recycles = trace::Metrics::instance().counter("arena.payload_recycles");
  trace::Counter& payload_inlines = trace::Metrics::instance().counter("arena.payload_inlines");
  trace::Counter& comm_messages = trace::Metrics::instance().counter("comm.messages");
  trace::Counter& comm_bytes = trace::Metrics::instance().counter("comm.bytes");
  trace::Histogram& comm_bytes_per_op = trace::Metrics::instance().histogram("comm.bytes_per_op");
};

Meters& meters() {
  static Meters* m = new Meters();  // leaked with the registry it points into
  return *m;
}
}  // namespace

Recorder* current_recorder() { return t_recorder; }

ScopedRecorder::ScopedRecorder(Recorder& recorder) : previous_(t_recorder) {
  t_recorder = &recorder;
}

ScopedRecorder::~ScopedRecorder() { t_recorder = previous_; }

OverlapScope::OverlapScope() {
  if (++t_overlap_depth == 1 && t_recorder != nullptr && t_suppress_depth == 0) {
    t_recorder->comm().record_overlap_window();
  }
}

OverlapScope::~OverlapScope() { --t_overlap_depth; }

bool in_overlap_scope() { return t_overlap_depth > 0; }

CommRecordSuppressor::CommRecordSuppressor() { ++t_suppress_depth; }

CommRecordSuppressor::~CommRecordSuppressor() { --t_suppress_depth; }

void record_loop(std::string_view region, const LoopRecord& rec) {
  if (t_recorder != nullptr) t_recorder->kernels().record(region, rec);
}

void record_helper_chunks(double n) {
  if (n > 0.0) meters().helper_chunks.add(static_cast<std::uint64_t>(n));
}

void record_payload(PayloadEvent event) {
  switch (event) {
    case PayloadEvent::Alloc: meters().payload_allocs.add(1); break;
    case PayloadEvent::Recycle: meters().payload_recycles.add(1); break;
    case PayloadEvent::Inline: meters().payload_inlines.add(1); break;
  }
}

void record_fault_injected() { meters().faults.add(1); }

void record_checksum_failure() { meters().checksums.add(1); }

void record_abort_observed() { meters().aborts.add(1); }

void record_comm(CommKind kind, double messages, double bytes) {
  if (t_suppress_depth > 0) return;
  meters().comm_messages.add(static_cast<std::uint64_t>(messages));
  meters().comm_bytes.add(static_cast<std::uint64_t>(bytes));
  meters().comm_bytes_per_op.record(static_cast<std::uint64_t>(bytes));
  if (t_recorder == nullptr) return;
  if (t_overlap_depth > 0 && overlappable(kind)) {
    t_recorder->comm().record_overlapped(kind, messages, bytes);
  } else {
    t_recorder->comm().record(kind, messages, bytes);
  }
}

}  // namespace vpar::perf
