// Shared plumbing of the perfbench driver: the seeded input stream, wall
// clocks, sample statistics, and the result a workload hands back to main.
//
// Timing is steady_clock wall time only. Process CPU time would hide the
// fan-out layers: a threaded pass reports its main thread's CPU time, which
// can be a small fraction of the wall time a caller waits.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "subsidy/numerics/counter_rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Deterministic stream of draws keyed by (seed, stream): draw k is
/// crng::uniform01(seed, stream, k), so a generator is a pure function of
/// the seed no matter how other streams are consumed.
class SeededStream {
 public:
  SeededStream(std::uint64_t seed, std::uint64_t stream) : seed_(seed), stream_(stream) {}

  double uniform() { return subsidy::num::crng::uniform01(seed_, stream_, counter_++); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    const auto k = static_cast<std::size_t>(uniform() * static_cast<double>(n));
    return k < n ? k : n - 1;
  }
  /// Fisher-Yates shuffle driven by this stream.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[index(i)]);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::uint64_t counter_ = 0;
};

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// getrusage max resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The CPUs this process may run on, taken in turn by the serial workloads.
/// The vCPUs of a shared host can differ in speed for minutes at a time (a
/// busy sibling hyperthread costs a serial loop up to 30%), and a serial loop
/// stays on whichever CPU the scheduler gave it, so its figure would hinge on
/// that placement. Pinning each unit of work in turn to every allowed CPU
/// makes every run measure the same mix of them. Threads created while
/// pinned inherit the pin, so only serial loops use it. The destructor
/// restores the calling thread's original mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Number of CPU slots, at least 1.
  [[nodiscard]] std::size_t size() const { return cpus_.empty() ? 1 : cpus_.size(); }
  /// Pins the calling thread to the CPU of slot `slot % size()`.
  void pin(std::size_t slot) const;

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> original_;  ///< The cpu_set_t found at construction.
};

/// Mean over CPU slots of the median of each slot's samples, so that every
/// CPU counts alike however its speed compares with the others'. Empty
/// slots are skipped.
[[nodiscard]] double mean_of_slot_medians(const std::vector<std::vector<double>>& per_slot);

/// Options main parses from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 2;  ///< Fan-out width of figure_grid and agent_sim.
  std::string trace_dir = ".bench_build/traces";  ///< Span files of traced runs.
  std::string commit = "unknown";  ///< Source identity, recorded with the result.
};

/// Per-core L2 and shared L3 sizes in bytes (0 when unknown).
struct CacheSizes {
  double l2_bytes = 0.0;
  double l3_bytes = 0.0;
};
[[nodiscard]] CacheSizes cache_sizes();

/// Prints the machine context line recorded with every result: CPU counts,
/// model, caches, SIMD dispatch, memory domains, build type and commit.
void print_machine_context(const RunConfig& config);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `attempted`/`failed` count units of work
/// and output checks; any failure makes the run incorrect.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Human-readable check failures.

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      notes.push_back(what);
    }
  }
};

/// The end-to-end metrics every workload reports (see BENCHMARK.json), plus
/// this process's peak RSS.
void add_end_to_end(Outcome& out, double setup_s, double throughput_per_s, double p50_ms,
                    double p90_ms);

/// Minimal JSON string escaping for labels and notes.
[[nodiscard]] std::string json_escape(const std::string& text);

/// Prints one `{"<key>": {...}}` line of string/number properties.
void print_properties(const std::string& key,
                      const std::vector<std::pair<std::string, std::string>>& text,
                      const std::vector<std::pair<std::string, double>>& numbers);

}  // namespace perfbench
