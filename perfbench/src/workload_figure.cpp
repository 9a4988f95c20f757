// figure_grid: a generated [figure] scenario (32 mixed-family providers,
// 7 caps x 201 prices, chain 8) run through ScenarioRunner::run. One unit is
// one grid equilibrium; one latency sample is one whole pass.
#include <memory>
#include <optional>

#include "generators.hpp"
#include "subsidy/core/evaluator.hpp"
#include "subsidy/core/game.hpp"
#include "subsidy/core/kkt.hpp"
#include "subsidy/runtime/chain_partition.hpp"
#include "subsidy/runtime/parallel_sweep.hpp"
#include "subsidy/scenario/runner.hpp"
#include "subsidy/scenario/scenario_file.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = subsidy::core;
namespace rt = subsidy::runtime;
namespace sc = subsidy::scenario;

namespace {

constexpr std::size_t kKktSamples = 32;

rt::SweepOptions sweep_options(const sc::ExperimentSpec& spec, std::size_t jobs) {
  rt::SweepOptions options;
  options.jobs = jobs;
  options.chain_length = spec.chain_length;
  return options;
}

/// The chain decomposition of the [figure] block, replayed serially through
/// the lower layers' public entries: per warm-start chain, the unsubsidized
/// hint plane (UtilizationSolver) and one lockstep solve_nash_many batch —
/// or, at cap 0, one unsubsidized plane. Returns the rows in grid order.
std::vector<core::NashResult> replay_grid(Tracer& tracer, LayerMetrics& layers,
                                          const core::ModelEvaluator& ev,
                                          const sc::ExperimentSpec& spec) {
  const std::vector<double>& caps = spec.caps;
  const std::vector<double>& prices = spec.prices;
  const std::size_t n = ev.num_providers();
  const std::vector<double> zeros(n, 0.0);
  const std::vector<rt::Chain> chains =
      rt::partition_chains(caps.size(), prices.size(), spec.chain_length);
  layers.add("runtime.chains", static_cast<double>(chains.size()));
  std::vector<core::NashResult> rows(caps.size() * prices.size());

  for (std::size_t c = 0; c < chains.size(); ++c) {
    const rt::Chain& chain = chains[c];
    const Tracer::Scope chain_span = tracer.span("runtime.chain", static_cast<std::int64_t>(c));
    const double cap = caps[chain.group];
    const std::size_t count = chain.end - chain.begin;
    const std::vector<double> chain_prices(prices.begin() + static_cast<std::ptrdiff_t>(chain.begin),
                                           prices.begin() + static_cast<std::ptrdiff_t>(chain.end));
    std::vector<core::SolveStatus> statuses(count);
    std::size_t failed = 0;

    if (cap <= 0.0) {
      std::vector<core::SystemState> states;
      const double dt = timed_call(tracer, "core.util", static_cast<std::int64_t>(c), [&] {
        states = ev.try_evaluate_unsubsidized_many(chain_prices, statuses);
      });
      for (std::size_t k = 0; k < count; ++k) {
        if (core::failed(statuses[k])) {
          ++failed;
          continue;
        }
        rows[chain.group * prices.size() + chain.begin + k] =
            core::degenerate_nash_result(n, std::move(states[k]));
      }
      record_util(layers, count, failed, n, dt);
      continue;
    }

    std::vector<double> plane(count * n);
    std::vector<double> phis(count);
    for (std::size_t k = 0; k < count; ++k) {
      ev.kernel().populations(chain_prices[k], zeros, std::span<double>(plane).subspan(k * n, n));
    }
    const double util_s = timed_call(tracer, "core.util", static_cast<std::int64_t>(c), [&] {
      (void)ev.solver().try_solve_many(plane, {}, phis, statuses);
    });
    std::vector<core::NashBatchNode> nodes(count);
    for (std::size_t k = 0; k < count; ++k) {
      if (core::failed(statuses[k])) ++failed;
      nodes[k].price = chain_prices[k];
      nodes[k].policy_cap = cap;
      nodes[k].phi_hint = core::failed(statuses[k]) ? -1.0 : phis[k];
    }
    record_util(layers, count, failed, n, util_s);

    core::NashBatchStats stats;
    std::vector<core::NashResult> results;
    const double nash_s = timed_call(tracer, "core.nash", static_cast<std::int64_t>(c), [&] {
      results = core::solve_nash_many(ev, nodes, {}, {}, &stats);
    });
    record_nash(layers, stats, results, nash_s);
    for (std::size_t k = 0; k < count; ++k) {
      rows[chain.group * prices.size() + chain.begin + k] = std::move(results[k]);
    }
  }
  return rows;
}

Outcome traced_run(const RunConfig& config, const FigureInput& in) {
  Outcome out;
  LayerMetrics layers;
  Tracer tracer(true);

  std::optional<sc::Scenario> parsed;
  layers.set("scenario.parse_s", timed_call(tracer, "scenario.parse", -1, [&] {
               parsed = sc::parse_scenario_text(in.scenario_text, "figure_grid.scn");
             }));
  std::unique_ptr<sc::ScenarioRunner> runner;
  layers.set("scenario.compile_s", timed_call(tracer, "scenario.compile", -1, [&] {
               runner = std::make_unique<sc::ScenarioRunner>(*parsed);
             }));
  const sc::Scenario& scenario = runner->scenario();
  const sc::ExperimentSpec& spec = scenario.experiments.front();

  // The production rows, from the runtime layer's own fan-out at `jobs`
  // (one warm-up pass first, as in the untimed run).
  const rt::ParallelSweepRunner sweep(scenario.market, sweep_options(spec, config.jobs));
  (void)sweep.run(spec.caps, spec.prices);
  std::vector<rt::SweepRow> production;
  layers.set("runtime.sweep_s", timed_call(tracer, "runtime.sweep", -1, [&] {
               production = sweep.run(spec.caps, spec.prices);
             }));

  // The serial replay, once untraced (the jobs-1 decomposition time and the
  // overhead baseline), then traced for the counters and spans.
  const core::ModelEvaluator ev(scenario.market);
  Tracer quiet(false);
  LayerMetrics discard;
  const Clock::time_point q0 = Clock::now();
  (void)replay_grid(quiet, discard, ev, spec);
  const double untraced_s = seconds_since(q0);
  const Clock::time_point t0 = Clock::now();
  const std::vector<core::NashResult> replayed = replay_grid(tracer, layers, ev, spec);
  const double traced_s = seconds_since(t0);

  layers.set("runtime.fanout_efficiency",
             untraced_s / (static_cast<double>(config.jobs) * layers.get("runtime.sweep_s")));
  layers.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
  double deviation = 0.0;
  for (std::size_t k = 0; k < production.size(); ++k) {
    out.check(production[k].result.converged, "production row " + std::to_string(k) + " converged");
    out.check(replayed[k].converged, "replayed row " + std::to_string(k) + " converged");
    deviation = std::max(deviation, result_deviation(production[k].result, replayed[k]));
  }
  layers.set("trace.replay_deviation", deviation);
  out.check(deviation <= 1e-9, "replay within 1e-9 of the production rows");
  finish_layers(layers);
  tracer.write(trace_path(config));
  layers.emit(out);
  return out;
}

}  // namespace

Outcome run_figure_grid(const RunConfig& config) {
  const FigureInput in = generate_figure_grid(config.seed, config.jobs);
  const double equilibria = static_cast<double>(in.caps * in.prices);
  std::vector<std::pair<std::string, double>> properties = {
      {"providers", static_cast<double>(in.providers)},
      {"caps", static_cast<double>(in.caps)},
      {"prices", static_cast<double>(in.prices)},
      {"chain", static_cast<double>(in.chain)},
      {"jobs", static_cast<double>(config.jobs)},
      {"equilibria_per_pass", equilibria}};
  const subsidy::econ::Market market =
      sc::parse_scenario_text(in.scenario_text, "figure_grid.scn").market;
  for (auto& family : family_counts(std::span(&market, 1))) properties.push_back(family);
  print_properties("workload",
                   {{"name", "figure_grid"},
                    {"why", "paper-reproduction grid at 4x paper scale: wide lockstep Nash "
                            "planes, utilization planes and chain fan-out"}},
                   properties);
  if (config.trace) return traced_run(config, in);

  Outcome out;
  std::unique_ptr<sc::ScenarioRunner> runner;
  const double setup_s = rotated_setup_s([&] {
    runner = std::make_unique<sc::ScenarioRunner>(
        sc::parse_scenario_text(in.scenario_text, "figure_grid.scn"));
  });

  sc::ScenarioReport report = runner->run();  // warm-up pass, untimed
  std::vector<double> pass_ms;
  double timed_s = 0.0;
  double units = 0.0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < config.seconds) {
    const Clock::time_point t0 = Clock::now();
    report = runner->run();
    const double dt = seconds_since(t0);
    timed_s += dt;
    pass_ms.push_back(dt * 1e3);
    units += equilibria;
    out.attempted += static_cast<std::uint64_t>(equilibria);
    out.failed += report.num_failures();
  }
  if (out.failed > 0) out.correct = false;

  // Output checks, untimed: the last pass's table against the runtime
  // layer's rows, then KKT at a seeded sample of subsidized equilibria.
  const sc::ExperimentSpec& spec = runner->scenario().experiments.front();
  const std::vector<rt::SweepRow> rows =
      rt::ParallelSweepRunner(runner->scenario().market, sweep_options(spec, config.jobs))
          .run(spec.caps, spec.prices);
  const subsidy::io::SweepTable& table = report.experiments.front().table;
  out.check(report.all_converged() && table.num_rows() == rows.size(),
            "every grid equilibrium converged");
  bool same = table.num_rows() == rows.size();
  for (std::size_t k = 0; same && k < rows.size(); ++k) {
    const core::SystemState& s = rows[k].result.state;
    const std::vector<double>& row = table.row(k);
    same = row[0] == rows[k].policy_cap && row[1] == rows[k].price && row[2] == s.utilization &&
           row[3] == s.aggregate_throughput && row[4] == s.revenue && row[5] == s.welfare;
  }
  out.check(same, "scenario table equals the sweep rows bit for bit");
  // At q = 0 the only feasible profile is zero and the KKT test does not
  // apply, so the sample draws from the subsidized rows.
  std::vector<std::size_t> checkable;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].policy_cap > 0.0) checkable.push_back(k);
  }
  SeededStream pick(config.seed, 101);
  for (std::size_t k = 0; k < kKktSamples && !checkable.empty(); ++k) {
    const rt::SweepRow& row = rows[checkable[pick.index(checkable.size())]];
    const core::SubsidizationGame game(runner->scenario().market, row.price, row.policy_cap);
    const core::KktReport kkt = core::verify_kkt(game, row.result.subsidies);
    out.check(kkt.satisfied, "KKT at q=" + std::to_string(row.policy_cap) +
                                 " p=" + std::to_string(row.price) +
                                 " residual=" + std::to_string(kkt.max_residual));
  }

  add_end_to_end(out, setup_s, units / timed_s, percentile(pass_ms, 0.5),
                 percentile(pass_ms, 0.9));
  return out;
}

}  // namespace perfbench
