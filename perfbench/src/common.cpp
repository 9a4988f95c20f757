#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

CpuRotation::CpuRotation() : original_(sizeof(cpu_set_t)) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;  // pin() stays a no-op
  std::memcpy(original_.data(), &mask, sizeof(mask));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  std::memcpy(&mask, original_.data(), sizeof(mask));
  (void)sched_setaffinity(0, sizeof(mask), &mask);
}

void CpuRotation::pin(std::size_t slot) const {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[slot % cpus_.size()], &mask);
  (void)sched_setaffinity(0, sizeof(mask), &mask);
}

double mean_of_slot_medians(const std::vector<std::vector<double>>& per_slot) {
  double sum = 0.0;
  std::size_t slots = 0;
  for (const std::vector<double>& samples : per_slot) {
    if (samples.empty()) continue;
    sum += median(samples);
    ++slots;
  }
  return slots == 0 ? 0.0 : sum / static_cast<double>(slots);
}

void add_end_to_end(Outcome& out, double setup_s, double throughput_per_s, double p50_ms,
                    double p90_ms) {
  out.metric("setup_s", setup_s, "s");
  out.metric("throughput_per_s", throughput_per_s, "1/s");
  out.metric("latency_p50_ms", p50_ms, "ms");
  out.metric("latency_p90_ms", p90_ms, "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void print_properties(const std::string& key,
                      const std::vector<std::pair<std::string, std::string>>& text,
                      const std::vector<std::pair<std::string, double>>& numbers) {
  std::string line = "{\"" + key + "\":{";
  bool first = true;
  for (const auto& [name, value] : text) {
    line += (first ? "\"" : ",\"") + json_escape(name) + "\":\"" + json_escape(value) + "\"";
    first = false;
  }
  for (const auto& [name, value] : numbers) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    line += (first ? "\"" : ",\"") + json_escape(name) + "\":" + buf;
    first = false;
  }
  std::cout << line << "}}\n";
}

}  // namespace perfbench
