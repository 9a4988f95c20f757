// Counter plumbing shared by the traced runs of every workload.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>

#include "workloads.hpp"

namespace perfbench {

void record_nash(LayerMetrics& layers, const subsidy::core::NashBatchStats& stats,
                 std::span<const subsidy::core::NashResult> results, double seconds) {
  layers.add("core.nash.solve_s", seconds);
  layers.add("core.nash.lanes", static_cast<double>(results.size()));
  layers.add("core.nash.passes", static_cast<double>(stats.passes));
  layers.add("core.nash.candidates", static_cast<double>(stats.candidates));
  layers.add("core.nash.fallbacks", static_cast<double>(stats.fallbacks));
  layers.add("core.nash.rescued_damped", static_cast<double>(stats.rescued_damped));
  layers.add("core.nash.rescued_extragradient", static_cast<double>(stats.rescued_extragradient));
  layers.add("core.nash.unresolved", static_cast<double>(stats.unresolved));
  double iterations = 0.0;
  for (const subsidy::core::NashResult& r : results) iterations += r.iterations;
  layers.add("core.nash.iterations", iterations);
  if (results.size() == 1) layers.add("core.nash.single_lane_s", seconds);
}

void record_util(LayerMetrics& layers, std::size_t nodes, std::size_t failed,
                 std::size_t providers, double seconds) {
  layers.add("core.util.solve_s", seconds);
  layers.add("core.util.nodes", static_cast<double>(nodes));
  layers.add("core.util.failed_nodes", static_cast<double>(failed));
  // Computed, not measured: the populations plane the call reads.
  layers.add("core.util.plane_bytes", static_cast<double>(nodes * providers * sizeof(double)));
}

void finish_layers(LayerMetrics& layers) {
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  layers.set("core.nash.candidates_per_pass",
             ratio(layers.get("core.nash.candidates"), layers.get("core.nash.passes")));
  layers.set("core.nash.ns_per_candidate",
             1e9 * ratio(layers.get("core.nash.solve_s"), layers.get("core.nash.candidates")));
  layers.set("core.util.ns_per_node",
             1e9 * ratio(layers.get("core.util.solve_s"), layers.get("core.util.nodes")));
  layers.set("core.optimizer.ms_per_call",
             1e3 * ratio(layers.get("core.optimizer.optimize_s"),
                         layers.get("core.optimizer.calls")));
  layers.set("sim.ns_per_decision",
             1e9 * ratio(layers.get("sim.step_s"), layers.get("sim.decisions")));
}

double result_deviation(const subsidy::core::NashResult& a,
                        const subsidy::core::NashResult& b) {
  if (a.subsidies.size() != b.subsidies.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  const auto take = [&worst](double x, double y) { worst = std::max(worst, std::abs(x - y)); };
  for (std::size_t i = 0; i < a.subsidies.size(); ++i) take(a.subsidies[i], b.subsidies[i]);
  take(a.state.utilization, b.state.utilization);
  take(a.state.aggregate_throughput, b.state.aggregate_throughput);
  take(a.state.revenue, b.state.revenue);
  take(a.state.welfare, b.state.welfare);
  return worst;
}

std::vector<std::pair<std::string, double>> family_counts(
    std::span<const subsidy::econ::Market> markets) {
  // Curve names read "<family>(<parameters>)".
  std::map<std::string, double> counts;
  for (const subsidy::econ::Market& market : markets) {
    for (std::size_t i = 0; i < market.num_providers(); ++i) {
      const subsidy::econ::ContentProviderSpec& cp = market.provider(i);
      for (const std::string& name : {cp.demand->name(), cp.throughput->name()}) {
        counts["providers." + name.substr(0, name.find('('))] += 1.0;
      }
    }
  }
  return {counts.begin(), counts.end()};
}

std::string trace_path(const RunConfig& config) {
  std::filesystem::create_directories(config.trace_dir);
  return config.trace_dir + "/" + config.workload + "-seed" + std::to_string(config.seed) +
         "-jobs" + std::to_string(config.jobs) + ".jsonl";
}

}  // namespace perfbench
