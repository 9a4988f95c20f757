// Seeded input generators, one per workload. Each is a pure function of its
// seed: the same seed always gives byte-identical inputs, and the measured
// code receives only the generated text (scenario file, market specs, serve
// log) or settings, never the seed itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// figure_grid: a mixed-family market rendered as a `[figure]` scenario.
struct FigureInput {
  std::string scenario_text;
  std::size_t providers = 0;
  std::size_t caps = 0;
  std::size_t prices = 0;
  std::size_t chain = 0;
};
[[nodiscard]] FigureInput generate_figure_grid(std::uint64_t seed, std::size_t jobs);

/// policy_study: market specs in the `--market exp:` grammar plus the caps
/// every market is asked about.
struct PolicyInput {
  std::vector<std::string> market_specs;
  std::vector<double> caps;
};
[[nodiscard]] PolicyInput generate_policy_study(std::uint64_t seed);

/// serve_replay: a request log in the `subsidy_cli serve` wire format, one
/// request per line, batches separated by blank lines.
struct ServeInput {
  std::string log;
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t singleton_batches = 0;
  std::size_t exact_repeats = 0;  ///< Requests repeating an earlier one byte for byte.
  std::map<std::string, std::size_t> ops;  ///< Op -> requests.
};
[[nodiscard]] ServeInput generate_serve_replay(std::uint64_t seed);

/// The market specs serve_replay draws from (section5, section3, a mixed
/// exp: spec).
[[nodiscard]] const std::vector<std::string>& serve_markets();

/// agent_sim: engine settings on the section5 market.
struct AgentInput {
  std::string market_spec = "section5";
  std::size_t agents_per_provider = 1000000;
  std::size_t wakeup = 4;
  double noise = 0.02;
  double price = 0.8;
  double cap = 1.0;
  std::size_t ticks = 100;      ///< Ticks per pass (one run()).
  std::uint64_t sim_seed = 1;   ///< Base seed of the agents' decision streams.
};
[[nodiscard]] AgentInput generate_agent_sim(std::uint64_t seed);

}  // namespace perfbench
