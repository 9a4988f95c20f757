// agent_sim: AgentMarketEngine on the section5 market, 10^6 agents per
// provider, wakeup 4, noise 0.02, at price 0.8 and cap 1.0. A pass is one
// reset plus `ticks` steps. One unit is one agent decision; one latency
// sample is one step().
#include <cmath>
#include <memory>

#include "generators.hpp"
#include "subsidy/cli/market_spec.hpp"
#include "subsidy/core/evaluator.hpp"
#include "subsidy/core/reference_point.hpp"
#include "subsidy/sim/agent_engine.hpp"
#include "subsidy/sim/cross_validation.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = subsidy::core;
namespace sim = subsidy::sim;

namespace {

constexpr double kValidationTolerance = 0.05;

struct Setup {
  core::EquilibriumReference reference;
  std::unique_ptr<sim::AgentMarketEngine> engine;
};

/// Analytic anchor (the only Nash solve of this workload) plus the engine.
/// Returns the Nash time through `nash_s`.
Setup set_up(const subsidy::econ::Market& market, const AgentInput& in, std::size_t jobs,
             double& nash_s) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.reference = core::compute_equilibrium_reference(market, in.price, in.cap);
  nash_s = seconds_since(t0);
  sim::SimConfig config;
  config.price = in.price;
  config.subsidies = s.reference.subsidies;
  config.ticks = in.ticks;
  config.snapshot_every = 0;  // final tick only
  config.jobs = jobs;
  s.engine = std::make_unique<sim::AgentMarketEngine>(
      market,
      sim::AgentMarketEngine::uniform_groups(market, in.agents_per_provider, in.sim_seed,
                                             in.wakeup, in.noise),
      config);
  return s;
}

/// One full run() against the analytic reference.
void check_run(Outcome& out, Setup& s, std::uint64_t& decisions) {
  const sim::SimResult result = s.engine->run();
  decisions = result.decisions;
  out.check(!result.failed, "simulation run completed: " + result.failure_detail);
  for (const core::SolveStatus status : result.statuses) {
    out.check(!core::failed(status), "final lane solve ok");
  }
  out.check(sim::validate_against_reference(result, s.reference, kValidationTolerance).pass,
            "cross-validation against the analytic equilibrium at 0.05");
}

Outcome traced_run(const RunConfig& config, const subsidy::econ::Market& market,
                   const AgentInput& in) {
  Outcome out;
  LayerMetrics layers;
  Tracer tracer(true);
  double nash_s = 0.0;
  Setup s = set_up(market, in, config.jobs, nash_s);
  layers.set("core.nash.solve_s", nash_s);
  layers.set("core.nash.lanes", 1.0);
  layers.set("core.nash.single_lane_s", nash_s);

  // Each tick: the engine's step(), then its lane populations re-solved
  // through UtilizationSolver::try_solve_many with the same warm start.
  const core::ModelEvaluator ev(market);
  const auto replay = [&](Tracer& t, LayerMetrics& m) {
    double deviation = 0.0;
    s.engine->reset();
    double hint = s.engine->phi(0);
    for (std::size_t tick = 0; tick < in.ticks; ++tick) {
      const auto item = static_cast<std::int64_t>(tick);
      m.add("sim.step_s", timed_call(t, "sim.step", item, [&] { s.engine->step(); }));
      m.add("sim.ticks", 1.0);
      const std::vector<double> plane = s.engine->populations(0);
      const std::vector<double> hints = {hint};
      std::vector<double> phis(1);
      std::vector<core::SolveStatus> statuses(1);
      const double dt = timed_call(t, "sim.plane_solve", item, [&] {
        (void)ev.solver().try_solve_many(plane, hints, phis, statuses);
      });
      m.add("sim.plane_solve_s", dt);
      record_util(m, 1, core::failed(statuses[0]) ? 1 : 0, ev.num_providers(), dt);
      deviation = std::max(deviation, std::abs(phis[0] - s.engine->phi(0)));
      hint = s.engine->phi(0);
    }
    return deviation;
  };
  Tracer quiet(false);
  LayerMetrics discard;
  const Clock::time_point q0 = Clock::now();
  (void)replay(quiet, discard);
  const double untraced_s = seconds_since(q0);
  const Clock::time_point t0 = Clock::now();
  const double deviation = replay(tracer, layers);
  const double traced_s = seconds_since(t0);

  std::uint64_t decisions = 0;
  check_run(out, s, decisions);  // same ticks as the replay
  layers.set("sim.decisions", static_cast<double>(decisions));
  layers.set("trace.replay_deviation", deviation);
  layers.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
  out.check(deviation == 0.0, "replayed tick planes equal the engine's utilization");
  finish_layers(layers);
  tracer.write(trace_path(config));
  layers.emit(out);
  return out;
}

}  // namespace

Outcome run_agent_sim(const RunConfig& config) {
  const AgentInput in = generate_agent_sim(config.seed);
  const subsidy::econ::Market market = subsidy::cli::parse_market_spec(in.market_spec);
  const double agents = static_cast<double>(in.agents_per_provider * market.num_providers());
  const CacheSizes caches = cache_sizes();
  std::vector<std::pair<std::string, double>> properties = {
      {"agents", agents},
      {"agents_per_provider", static_cast<double>(in.agents_per_provider)},
      {"wakeup", static_cast<double>(in.wakeup)},
      {"noise", in.noise},
      {"price", in.price},
      {"cap", in.cap},
      {"ticks_per_pass", static_cast<double>(in.ticks)},
      {"jobs", static_cast<double>(config.jobs)},
      // One threshold double plus one subscription byte per agent; a tick
      // touches 1/wakeup of it.
      {"working_set_bytes", agents * (sizeof(double) + 1)},
      {"tick_working_set_bytes", agents * (sizeof(double) + 1) / static_cast<double>(in.wakeup)},
      {"l2_bytes", caches.l2_bytes},
      {"l3_bytes", caches.l3_bytes}};
  for (auto& family : family_counts(std::span(&market, 1))) properties.push_back(family);
  print_properties("workload",
                   {{"name", "agent_sim"},
                    {"why", "the agent decision loop does almost all the work; Nash runs only "
                            "in set-up"}},
                   properties);
  if (config.trace) return traced_run(config, market, in);

  Outcome out;
  Setup s;
  const double setup_s = median_setup_s([&] {
    s = Setup{};  // free the previous engine before building the next
    double nash_s = 0.0;
    s = set_up(market, in, config.jobs, nash_s);
  });

  std::uint64_t decisions_per_pass = 0;
  check_run(out, s, decisions_per_pass);  // also the warm-up, untimed
  const double decisions_per_tick =
      static_cast<double>(decisions_per_pass) / static_cast<double>(in.ticks);

  std::vector<double> tick_ms;
  double timed_s = 0.0;
  const Clock::time_point start = Clock::now();
  s.engine->reset();
  while (seconds_since(start) < config.seconds) {
    if (s.engine->current_tick() == in.ticks) s.engine->reset();
    const Clock::time_point t0 = Clock::now();
    s.engine->step();
    const double dt = seconds_since(t0);
    timed_s += dt;
    tick_ms.push_back(dt * 1e3);
    ++out.attempted;
    if (!std::isfinite(s.engine->phi(0))) {
      ++out.failed;
      out.correct = false;
    }
  }

  add_end_to_end(out, setup_s, decisions_per_tick * static_cast<double>(tick_ms.size()) / timed_s,
                 percentile(tick_ms, 0.5), percentile(tick_ms, 0.9));
  return out;
}

}  // namespace perfbench
