#pragma once

#include <array>
#include <cstddef>

namespace vpar::perf {

/// Communication categories with distinct cost models on the studied
/// interconnects. AllToAll is the bisection-limited global transpose pattern
/// (PARATEC's 3D FFT); PointToPoint is nearest-neighbour halo exchange;
/// OneSided is the CAF co-array path (no matching, no intermediate copies);
/// Gather is the rooted log-depth collection tree (diagnostic I/O funnels).
enum class CommKind : std::size_t {
  PointToPoint = 0,
  AllToAll,
  Reduction,
  Broadcast,
  Gather,
  Barrier,
  OneSided,
  kCount,
};

/// Aggregate message counts and byte volumes per communication kind for one
/// rank: the inputs the network models convert into time for a given
/// platform. Operational counters (payload storage, injected faults,
/// checksum failures, aborts) live in trace::Metrics, not here.
///
/// Each bucket distinguishes *serialized* traffic (the rank blocked until the
/// transfer finished: blocking send/recv, synchronizing collectives) from
/// *overlapped* traffic (posted inside an overlap window — nonblocking
/// operations whose transfer proceeds while the rank packs, unpacks or
/// computes). messages()/bytes() return the totals so volume accounting is
/// unchanged; the overlapped bytes let the network model credit
/// communication/computation overlap the way the paper's per-platform
/// bandwidth analysis does.
class CommProfile {
 public:
  void record(CommKind kind, double messages, double bytes) {
    auto& b = buckets_[static_cast<std::size_t>(kind)];
    b.messages += messages;
    b.bytes += bytes;
  }

  /// Record traffic posted inside an overlap window: counted in the totals
  /// *and* in the overlapped bytes.
  void record_overlapped(CommKind kind, double messages, double bytes) {
    record(kind, messages, bytes);
    buckets_[static_cast<std::size_t>(kind)].overlapped_bytes += bytes;
  }

  /// Count one overlap window (an isend/irecv...wait region during which the
  /// rank did other work). Purely diagnostic: window counts do not change
  /// predicted time, only show how much of the run was structured for overlap.
  void record_overlap_window(double windows = 1.0) { overlap_windows_ += windows; }

  [[nodiscard]] double messages(CommKind kind) const {
    return buckets_[static_cast<std::size_t>(kind)].messages;
  }
  [[nodiscard]] double bytes(CommKind kind) const {
    return buckets_[static_cast<std::size_t>(kind)].bytes;
  }
  [[nodiscard]] double overlapped_bytes(CommKind kind) const {
    return buckets_[static_cast<std::size_t>(kind)].overlapped_bytes;
  }
  [[nodiscard]] double serialized_bytes(CommKind kind) const {
    const auto& b = buckets_[static_cast<std::size_t>(kind)];
    return b.bytes - b.overlapped_bytes;
  }
  [[nodiscard]] double overlap_windows() const { return overlap_windows_; }

  [[nodiscard]] double total_bytes() const {
    double sum = 0.0;
    for (const auto& b : buckets_) sum += b.bytes;
    return sum;
  }
  [[nodiscard]] double total_messages() const {
    double sum = 0.0;
    for (const auto& b : buckets_) sum += b.messages;
    return sum;
  }

  void merge(const CommProfile& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i].messages += other.buckets_[i].messages;
      buckets_[i].bytes += other.buckets_[i].bytes;
      buckets_[i].overlapped_bytes += other.buckets_[i].overlapped_bytes;
    }
    overlap_windows_ += other.overlap_windows_;
  }

  /// Profile with all extensive quantities multiplied by `factor`.
  [[nodiscard]] CommProfile scaled(double factor) const {
    CommProfile out = *this;
    for (auto& b : out.buckets_) {
      b.messages *= factor;
      b.bytes *= factor;
      b.overlapped_bytes *= factor;
    }
    out.overlap_windows_ *= factor;
    return out;
  }

  void clear() {
    buckets_ = {};
    overlap_windows_ = 0.0;
  }

 private:
  struct Bucket {
    double messages = 0.0;
    double bytes = 0.0;
    double overlapped_bytes = 0.0;
  };
  std::array<Bucket, static_cast<std::size_t>(CommKind::kCount)> buckets_{};
  double overlap_windows_ = 0.0;
};

}  // namespace vpar::perf
