// The four workloads. Each runs its end-to-end measurement (config.trace
// false) or its traced per-layer run (config.trace true) and returns the
// metrics with the counts of attempted and failed units and checks.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "subsidy/core/nash.hpp"
#include "subsidy/econ/market.hpp"
#include "subsidy/core/nash_batch.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] Outcome run_figure_grid(const RunConfig& config);
[[nodiscard]] Outcome run_policy_study(const RunConfig& config);
[[nodiscard]] Outcome run_serve_replay(const RunConfig& config);
[[nodiscard]] Outcome run_agent_sim(const RunConfig& config);

/// Folds one replayed Nash call (its batch stats, lane results and wall
/// time) into the core.nash counters.
void record_nash(LayerMetrics& layers, const subsidy::core::NashBatchStats& stats,
                 std::span<const subsidy::core::NashResult> results, double seconds);

/// Folds one replayed utilization plane (nodes, failed nodes, providers per
/// node, wall time) into the core.util counters.
void record_util(LayerMetrics& layers, std::size_t nodes, std::size_t failed,
                 std::size_t providers, double seconds);

/// Fills the derived per-layer ratios (per-candidate, per-node, per-call
/// times, candidates per pass) from the accumulated totals.
void finish_layers(LayerMetrics& layers);

/// Largest absolute difference between two solved equilibria: subsidies,
/// utilization, throughput, revenue and welfare.
[[nodiscard]] double result_deviation(const subsidy::core::NashResult& a,
                                      const subsidy::core::NashResult& b);

/// Providers per demand family and per throughput family over `markets`,
/// as workload properties named "providers.<family>".
[[nodiscard]] std::vector<std::pair<std::string, double>> family_counts(
    std::span<const subsidy::econ::Market> markets);

/// Where the traced run writes its spans (inside the build directory).
[[nodiscard]] std::string trace_path(const RunConfig& config);

/// Runs `setup` repeatedly — at least 5 times, and on while the repeats
/// stay within half a second, up to 101 — and returns the median wall time
/// of one set-up, the reported setup_s. The last set-up's state is kept.
template <typename Fn>
double median_setup_s(Fn&& setup) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 5 || (total < 0.5 && times.size() < 101)) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
    total += times.back();
  }
  return median(std::move(times));
}

/// median_setup_s for set-ups that start no threads, repeated on every CPU
/// in turn — on each at least 5 times, and on while its repeats stay within
/// its share of half a second, up to 25 — and setup_s is the mean over CPUs
/// of each one's median set-up time. One more, untimed set-up after the
/// original CPU mask is back builds the state that is kept, so threads the
/// workload starts later may run on any CPU.
template <typename Fn>
double rotated_setup_s(Fn&& setup) {
  std::vector<std::vector<double>> times;
  {
    const CpuRotation cpus;
    times.resize(cpus.size());
    const double share_s = 0.5 / static_cast<double>(cpus.size());
    for (std::size_t slot = 0; slot < cpus.size(); ++slot) {
      cpus.pin(slot);
      double total = 0.0;
      while (times[slot].size() < 5 || (total < share_s && times[slot].size() < 25)) {
        const Clock::time_point start = Clock::now();
        setup();
        times[slot].push_back(seconds_since(start));
        total += times[slot].back();
      }
    }
  }
  setup();
  return mean_of_slot_medians(times);
}

}  // namespace perfbench
