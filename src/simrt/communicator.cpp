#include "simrt/communicator.hpp"

#include "trace/trace.hpp"

namespace vpar::simrt {

void Communicator::raw_send(int dest, Payload payload, int tag) {
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  // Checksum the payload *before* fault injection: an injected in-transit
  // bit-flip must be detectable against the sender's intended bytes.
  if (state_->control.checksums()) {
    msg.checksum = fnv1a64(payload.bytes());
    msg.checksummed = true;
  }
  if (injector_.enabled()) {
    injector_.apply_send_faults(payload.mutable_bytes(), tag, msg.reorder);
    if (injector_.should_drop(tag)) return;  // lost in transit, never delivered
  }
  if (trace::enabled()) {
    msg.trace_id = trace::next_flow_id();
    trace::emit_flow_begin("msg", msg.trace_id);
  }
  msg.payload = std::move(payload);
  state_->transport->send(dest, std::move(msg));
}

Message Communicator::raw_receive(int source, int tag, const char* what) {
  return state_->mailboxes[static_cast<std::size_t>(rank_)].receive(source, tag,
                                                                    what);
}

void Communicator::send_bytes(int dest, std::span<const std::byte> data, int tag) {
  check_dest_tag(dest, tag);
  trace::TraceSpan span("comm.send", dest, static_cast<std::int64_t>(data.size()));
  begin_op("send");
  raw_send(dest, Payload::copy_of(data), tag);
  perf::record_comm(perf::CommKind::PointToPoint, 1.0, static_cast<double>(data.size()));
}

Request Communicator::isend_bytes(int dest, std::span<const std::byte> data, int tag) {
  // Buffered semantics: the payload is captured on post, so the operation is
  // already complete and the returned handle is a satisfied request.
  send_bytes(dest, data, tag);
  return Request();
}

Request Communicator::irecv_bytes(int source, std::span<std::byte> data, int tag) {
  if (tag < kAnyTag) throw std::runtime_error("recv: bad tag");
  trace::TraceSpan span("comm.irecv", source, static_cast<std::int64_t>(data.size()));
  begin_op("irecv");
  return Request(
      state_->mailboxes[static_cast<std::size_t>(rank_)].post_recv(source, tag, data));
}

void Communicator::recv_bytes(int source, std::span<std::byte> data, int tag) {
  irecv_bytes(source, data, tag).wait();
}

Message Communicator::recv_message(int source, int tag) {
  if (tag < kAnyTag) throw std::runtime_error("recv: bad tag");
  trace::TraceSpan span("comm.recv", source, tag);
  begin_op("recv");
  return raw_receive(source, tag);
}

void Communicator::barrier() {
  const int P = size();
  trace::TraceSpan span("comm.barrier", P);
  begin_op("barrier");
  if (!state_->multiprocess()) {
    // In-process teams: the centralized rendezvous is one shared counter and
    // a single futex sleep/wake per rank. bench/wallclock barrier_storm at
    // P=8 ran ~5x faster on it than on the message rounds below (4-core
    // Xeon; docs/performance.md "Barrier").
    state_->rendezvous.arrive_and_wait(rank_);
  } else {
    // Rank processes share no memory: dissemination barrier, ceil(log2 P)
    // rounds. In round k every rank signals (rank + 2^k) mod P and waits on
    // (rank - 2^k) mod P, so each rank has transitively heard from all P
    // ranks when the last round completes. Consecutive barriers cannot
    // cross-match: each (sender, receiver) pair occurs in at most one round
    // per barrier (distinct powers of two below P are distinct mod P), and
    // the mailbox preserves FIFO order per (sender, tag).
    for (int step = 1; step < P; step <<= 1) {
      raw_send((rank_ + step) % P, Payload{}, kTagBarrier);
      (void)raw_receive((rank_ - step + P) % P, kTagBarrier, "barrier");
    }
  }
  perf::record_comm(perf::CommKind::Barrier, 1.0, 0.0);
}

}  // namespace vpar::simrt
