#include "arch/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

namespace vpar::arch {

namespace {

/// Parse a sysfs cpu-list string ("0-3,5,8-9") into sorted cpu ids. Returns
/// an empty vector on malformed input — callers treat that as "unknown".
std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // Trim whitespace (the files end with '\n').
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.back()))) {
      item.pop_back();
    }
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.front()))) {
      item.erase(item.begin());
    }
    if (item.empty()) continue;
    const auto dash = item.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(item));
      } else {
        const int lo = std::stoi(item.substr(0, dash));
        const int hi = std::stoi(item.substr(dash + 1));
        if (hi < lo || hi - lo > 4096) return {};
        for (int c = lo; c <= hi; ++c) cpus.push_back(c);
      }
    } catch (...) {
      return {};
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

/// First line of a file, or empty when unreadable.
std::string read_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  return line;
}

/// Integer file content, or `fallback` when unreadable/malformed.
int read_int(const std::string& path, int fallback) {
  const std::string line = read_line(path);
  if (line.empty()) return fallback;
  try {
    return std::stoi(line);
  } catch (...) {
    return fallback;
  }
}

HostTopology fallback_topology() {
  HostTopology t;
  const unsigned hc = std::thread::hardware_concurrency();
  const int n = hc > 0 ? static_cast<int>(hc) : 1;
  t.cpus.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) t.cpus.push_back({c, c, 0});
  t.num_nodes = 1;
  t.probed = false;
  return t;
}

}  // namespace

int HostTopology::num_cores() const {
  std::set<int> cores;
  for (const CpuInfo& c : cpus) cores.insert(c.core);
  return static_cast<int>(cores.size());
}

HostTopology probe_topology(const std::string& sysfs_root) {
  const std::string cpu_root = sysfs_root + "/devices/system/cpu";
  const std::vector<int> online = parse_cpu_list(read_line(cpu_root + "/online"));
  if (online.empty()) return fallback_topology();

  HostTopology t;
  t.probed = true;

  // NUMA membership: node directories are sparse ("node0", "node2", ...);
  // scan a bounded id range instead of requiring directory iteration.
  std::map<int, std::vector<int>> node_cpus;
  const std::string node_root = sysfs_root + "/devices/system/node";
  for (int node = 0; node < 256; ++node) {
    const std::string list =
        read_line(node_root + "/node" + std::to_string(node) + "/cpulist");
    if (list.empty()) continue;
    std::vector<int> members = parse_cpu_list(list);
    if (!members.empty()) node_cpus[node] = std::move(members);
  }
  std::map<int, int> cpu_node;
  for (const auto& [node, members] : node_cpus) {
    for (int c : members) cpu_node[c] = node;
  }
  t.num_nodes = std::max<int>(1, static_cast<int>(node_cpus.size()));

  // Physical cores: (package, core_id) pairs remapped to dense indices, since
  // core_id values repeat across packages and can be sparse within one.
  std::map<std::pair<int, int>, int> core_index;
  for (int cpu : online) {
    const std::string topo = cpu_root + "/cpu" + std::to_string(cpu) + "/topology";
    CpuInfo info;
    info.cpu = cpu;
    const int package = read_int(topo + "/physical_package_id", 0);
    const int core_id = read_int(topo + "/core_id", cpu);
    const auto key = std::make_pair(package, core_id);
    info.core =
        core_index.emplace(key, static_cast<int>(core_index.size())).first->second;
    auto node_it = cpu_node.find(cpu);
    info.node = node_it != cpu_node.end() ? node_it->second : 0;
    t.cpus.push_back(info);
  }
  return t;
}

const HostTopology& host_topology() {
  static const HostTopology topology = probe_topology("/sys");
  return topology;
}

}  // namespace vpar::arch
