#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval around a call into a layer.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 at top level
  std::int64_t id = 0;    ///< step or job id the span belongs to
};

[[nodiscard]] std::uint64_t now_ns();

/// In-memory span recorder for one thread. Spans nest by program order: a
/// span opened while another is open becomes its child. Written out once,
/// at exit, so recording never touches the file system.
class SpanLog {
 public:
  [[nodiscard]] int open(std::string name, std::int64_t id);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration and summed self time (duration minus
  /// the part its direct children cover), in ms.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Write every span as JSON lines to `path`; false when the file cannot
  /// be written.
  bool write_jsonl(const std::string& path) const;

 private:
  /// Self time of every span, by index.
  [[nodiscard]] std::vector<std::uint64_t> self_times() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing and never reads the clock, which
/// is how the untraced run stays free of tracing cost.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t id = 0)
      : log_(log), index_(log != nullptr ? log->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
