#include "host.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "arch/topology.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value *= 1024;
  if (i < text.size() && text[i] == 'M') value *= 1024 * 1024;
  return value;
}

/// Sum of the highest-level caches, each counted once per distinct
/// shared_cpu_list (sysfs), falling back to sysconf.
std::size_t last_level_cache_bytes(int cpus) {
  int top_level = 0;
  std::set<std::string> seen;
  std::size_t total = 0;
  for (int cpu = 0; cpu < cpus; ++cpu) {
    for (int index = 0; index < 16; ++index) {
      const std::string dir = "/sys/devices/system/cpu/cpu" +
                              std::to_string(cpu) + "/cache/index" +
                              std::to_string(index) + "/";
      const std::string level_text = read_line(dir + "level");
      if (level_text.empty()) break;
      if (read_line(dir + "type") == "Instruction") continue;
      const int level = std::stoi(level_text);
      const std::string shared = read_line(dir + "shared_cpu_list");
      const std::size_t size = parse_cache_size(read_line(dir + "size"));
      if (level > top_level) {
        top_level = level;
        seen.clear();
        total = 0;
      }
      if (level == top_level && seen.insert(shared).second) total += size;
    }
  }
  if (total == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) total = static_cast<std::size_t>(l3);
  }
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

HostFingerprint host_fingerprint() {
  const auto& topo = vpar::arch::host_topology();
  HostFingerprint f;
  f.cpu_model = cpu_model();
  f.cores = topo.num_cpus();
  f.physical_cores = topo.num_cores();
  f.simd_width = vpar::simd::preferred_width();
  f.simd_isa = vpar::simd::width_isa_name(f.simd_width);
  f.numa_nodes = topo.num_nodes;
  f.llc_bytes = last_level_cache_bytes(f.cores);
  return f;
}

std::string HostFingerprint::key() const {
  std::ostringstream out;
  out << cpu_model << "|" << cores << "c/" << physical_cores << "p|" << simd_isa
      << "x" << simd_width << "|numa" << numa_nodes << "|llc" << llc_bytes;
  return out.str();
}

std::string HostFingerprint::to_json() const {
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << json_escape(cpu_model) << "\", \"cores\": "
      << cores << ", \"physical_cores\": " << physical_cores
      << ", \"simd_isa\": \"" << simd_isa << "\", \"simd_width\": "
      << simd_width << ", \"numa_nodes\": " << numa_nodes
      << ", \"llc_bytes\": " << llc_bytes << ", \"key\": \""
      << json_escape(key()) << "\"}";
  return out.str();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  unsigned long long v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) / static_cast<double>(to.total - from.total);
}

std::vector<double> calm_samples(const std::vector<double>& series,
                                 std::vector<SampleWindow> windows) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const SampleWindow& a, const SampleWindow& b) {
                     return a.steal_share < b.steal_share;
                   });
  const auto calm = static_cast<std::size_t>(
      std::count_if(windows.begin(), windows.end(),
                    [](const SampleWindow& w) { return w.steal_share <= kBusyStealShare; }));
  const std::size_t keep = std::min(windows.size(), std::max(calm, (windows.size() + 3) / 4));
  std::vector<double> out;
  for (std::size_t i = 0; i < keep; ++i) {
    const auto begin = series.begin() + static_cast<std::ptrdiff_t>(windows[i].first);
    out.insert(out.end(), begin, begin + static_cast<std::ptrdiff_t>(windows[i].count));
  }
  return out;
}

bool StealWindows::close() {
  const CpuTicks now = cpu_ticks();
  const bool busy = steal_share(start_, now) > kBusyStealShare;
  start_ = now;
  ++total_;
  if (busy) ++busy_;
  return busy;
}

std::string StealWindows::to_json() const {
  return "{\"windows\": " + std::to_string(total_) + ", \"busy\": " + std::to_string(busy_) +
         "}";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
