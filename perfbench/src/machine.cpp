#include <unistd.h>

#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "subsidy/numerics/simd.hpp"
#include "subsidy/runtime/topology.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// sysfs cache size text ("8192K", "300M") in bytes.
double parse_cache_size(const std::string& text) {
  if (text.empty()) return 0.0;
  double value = 0.0;
  try {
    value = std::stod(text);
  } catch (const std::exception&) {
    return 0.0;
  }
  switch (text.back()) {
    case 'K': return value * 1024.0;
    case 'M': return value * 1024.0 * 1024.0;
    case 'G': return value * 1024.0 * 1024.0 * 1024.0;
    default: return value;
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

CacheSizes cache_sizes() {
  CacheSizes sizes;
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(dir + "/level");
    const double bytes = parse_cache_size(read_first_line(dir + "/size"));
    if (level == "2") sizes.l2_bytes = bytes;
    if (level == "3") sizes.l3_bytes = bytes;
  }
  return sizes;
}

void print_machine_context(const RunConfig& config) {
  namespace simd = subsidy::num::simd;
  namespace rt = subsidy::runtime;
  const CacheSizes caches = cache_sizes();
  print_properties(
      "machine",
      {{"cpu_model", cpu_model()},
       {"simd_backend", simd::backend()},
       {"build_type", PERFBENCH_BUILD_TYPE},
       {"commit", config.commit},
       {"clock", "steady_clock wall time"}},
      {{"nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))},
       {"affinity_cpus", static_cast<double>(rt::available_cpu_count())},
       {"l2_bytes", caches.l2_bytes},
       {"l3_bytes", caches.l3_bytes},
       {"simd_width_cap", static_cast<double>(simd::width_cap())},
       {"topology_domains", static_cast<double>(rt::discover_topology().num_domains())},
       {"jobs", static_cast<double>(config.jobs)}});
}

}  // namespace perfbench
