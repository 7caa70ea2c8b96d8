#include "spans.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanLog::open(std::string name, std::int64_t id) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  // ScopedSpan closes innermost first, so `index` is the top of the stack.
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::uint64_t> SpanLog::self_times() const {
  // Children close before their parent and never overlap one another (one
  // thread, program order), so their durations add up without overlap.
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  const auto self = self_times();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& t = out[s.name];
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(self[i]) / 1e6;
    ++t.count;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto self = self_times();
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns - t0
        << ", \"end_ns\": " << s.end_ns - t0 << ", \"self_ns\": " << self[i]
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
