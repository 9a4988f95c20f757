// policy_study: 8 generated markets (8-16 providers) x 16 caps, each cap one
// PolicyAnalyzer::evaluate under the monopoly price response, serial. One
// unit and one latency sample is one answered cap.
#include <algorithm>
#include <cmath>

#include "generators.hpp"
#include "subsidy/cli/market_spec.hpp"
#include "subsidy/core/evaluator.hpp"
#include "subsidy/core/game.hpp"
#include "subsidy/core/kkt.hpp"
#include "subsidy/core/policy.hpp"
#include "subsidy/core/price_optimizer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = subsidy::core;
namespace econ = subsidy::econ;

namespace {

constexpr std::size_t kKktSamples = 16;

struct Question {
  std::size_t market = 0;
  double cap = 0.0;
};

/// One pass: every (market, cap) pair once, in a seeded order, so that any
/// prefix of a pass samples every market and cap alike.
std::vector<Question> pass_order(const PolicyInput& in, std::uint64_t seed) {
  std::vector<Question> order;
  for (std::size_t m = 0; m < in.market_specs.size(); ++m) {
    for (const double cap : in.caps) order.push_back({m, cap});
  }
  SeededStream(seed, 201).shuffle(order);
  return order;
}

std::vector<econ::Market> parse_markets(const PolicyInput& in) {
  std::vector<econ::Market> markets;
  for (const std::string& spec : in.market_specs) {
    markets.push_back(subsidy::cli::parse_market_spec(spec));
  }
  return markets;
}

Outcome traced_run(const RunConfig& config, const PolicyInput& in) {
  Outcome out;
  LayerMetrics layers;
  Tracer tracer(true);
  const std::vector<econ::Market> markets = parse_markets(in);
  const std::vector<Question> order = pass_order(in, config.seed);

  std::vector<core::PolicyPoint> production;
  for (const Question& q : order) {
    const core::PolicyAnalyzer analyzer(markets[q.market], core::PriceResponse::monopoly());
    production.push_back(analyzer.evaluate(q.cap));
  }

  // Replay of each evaluate(): the monopoly price search, then the Nash
  // solve at the chosen price as one single-lane batch.
  std::vector<core::IspPriceOptimizer> optimizers;
  std::vector<core::ModelEvaluator> evaluators;
  for (const econ::Market& market : markets) {
    optimizers.emplace_back(market, core::PriceSearchOptions{});
    evaluators.emplace_back(market);
  }
  const auto replay = [&](Tracer& t, LayerMetrics& m) {
    std::vector<core::PolicyPoint> points;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Question& q = order[k];
      const Tracer::Scope answer = t.span("policy.answer", static_cast<std::int64_t>(k));
      core::OptimalPrice best;
      const double opt_s = timed_call(t, "core.optimizer", static_cast<std::int64_t>(k),
                                      [&] { best = optimizers[q.market].optimize(q.cap); });
      m.add("core.optimizer.optimize_s", opt_s);
      m.add("core.optimizer.calls", 1.0);
      const core::NashBatchNode node{best.price, q.cap, {}, -1.0};
      core::NashBatchStats stats;
      std::vector<core::NashResult> lane;
      const double nash_s = timed_call(t, "core.nash", static_cast<std::int64_t>(k), [&] {
        lane = core::solve_nash_many(evaluators[q.market], std::span(&node, 1), {}, {}, &stats);
      });
      record_nash(m, stats, lane, nash_s);
      points.push_back({q.cap, best.price, lane.front().state, lane.front().subsidies});
    }
    return points;
  };
  Tracer quiet(false);
  LayerMetrics discard;
  const Clock::time_point q0 = Clock::now();
  (void)replay(quiet, discard);
  const double untraced_s = seconds_since(q0);
  const Clock::time_point t0 = Clock::now();
  const std::vector<core::PolicyPoint> replayed = replay(tracer, layers);
  const double traced_s = seconds_since(t0);

  double deviation = 0.0;
  for (std::size_t k = 0; k < production.size(); ++k) {
    core::NashResult a;
    core::NashResult b;
    a.subsidies = production[k].subsidies;
    a.state = production[k].state;
    b.subsidies = replayed[k].subsidies;
    b.state = replayed[k].state;
    deviation = std::max({deviation, std::abs(production[k].price - replayed[k].price),
                          result_deviation(a, b)});
  }
  layers.set("trace.replay_deviation", deviation);
  layers.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
  out.check(deviation <= 1e-9, "replay within 1e-9 of the production answers");
  out.check(layers.get("core.nash.unresolved") == 0.0, "every replayed Nash lane resolved");
  finish_layers(layers);
  tracer.write(trace_path(config));
  layers.emit(out);
  return out;
}

}  // namespace

Outcome run_policy_study(const RunConfig& config) {
  const PolicyInput in = generate_policy_study(config.seed);
  const std::vector<econ::Market> parsed = parse_markets(in);
  std::vector<double> sizes;
  for (const econ::Market& market : parsed) {
    sizes.push_back(static_cast<double>(market.num_providers()));
  }
  std::vector<std::pair<std::string, double>> properties = {
      {"markets", static_cast<double>(in.market_specs.size())},
      {"providers_min", *std::min_element(sizes.begin(), sizes.end())},
      {"providers_max", *std::max_element(sizes.begin(), sizes.end())},
      {"caps", static_cast<double>(in.caps.size())},
      {"answers_per_pass", static_cast<double>(in.market_specs.size() * in.caps.size())}};
  for (auto& family : family_counts(parsed)) properties.push_back(family);
  print_properties("workload",
                   {{"name", "policy_study"},
                    {"why", "the regulator's closed loop of single cap queries: monopoly "
                            "price search and width-1 Nash passes"}},
                   properties);
  if (config.trace) return traced_run(config, in);

  Outcome out;
  std::vector<econ::Market> markets;
  std::vector<core::PolicyAnalyzer> analyzers;
  const double setup_s = rotated_setup_s([&] {
    markets = parse_markets(in);
    analyzers.clear();
    for (const econ::Market& market : markets) {
      analyzers.emplace_back(market, core::PriceResponse::monopoly());
    }
  });

  const std::vector<Question> order = pass_order(in, config.seed);
  (void)analyzers[order.front().market].evaluate(order.front().cap);  // warm-up
  const CpuRotation cpus;
  std::vector<core::PolicyPoint> first_pass;
  std::vector<double> answer_ms;
  double timed_s = 0.0;
  std::size_t mismatched = 0;
  const Clock::time_point start = Clock::now();
  // Whole passes only, so every run asks each question equally often.
  for (std::size_t k = 0; seconds_since(start) < config.seconds || k % order.size() != 0; ++k) {
    const Question& q = order[k % order.size()];
    // Answer k runs on CPU slot k + (pass of k): each pass shifts the slots
    // by one, so across passes every question meets every CPU.
    cpus.pin(k + k / order.size());
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    core::PolicyPoint point;
    try {
      point = analyzers[q.market].evaluate(q.cap);
    } catch (const std::exception& e) {
      ++out.failed;
      out.correct = false;
      out.notes.push_back(std::string("policy evaluate threw: ") + e.what());
      continue;
    }
    const double dt = seconds_since(t0);
    timed_s += dt;
    answer_ms.push_back(dt * 1e3);
    if (k < order.size()) {
      first_pass.push_back(std::move(point));
    } else {
      const core::PolicyPoint& again = first_pass[k % order.size()];
      if (again.price != point.price || again.state.welfare != point.state.welfare) ++mismatched;
    }
  }

  // Output checks, untimed.
  out.check(mismatched == 0, "repeated answers are bit-identical");
  // At q = 0 the only feasible profile is zero and the KKT test does not
  // apply, so the sample draws from the subsidized answers.
  std::vector<std::size_t> subsidized;
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    if (first_pass[i].policy_cap > 0.0) subsidized.push_back(i);
  }
  SeededStream pick(config.seed, 202);
  for (std::size_t k = 0; k < kKktSamples && !subsidized.empty(); ++k) {
    const std::size_t i = subsidized[pick.index(subsidized.size())];
    const core::PolicyPoint& point = first_pass[i];
    const core::SubsidizationGame game(markets[order[i].market], point.price, point.policy_cap);
    const core::KktReport kkt = core::verify_kkt(game, point.subsidies);
    out.check(kkt.satisfied, "KKT of policy answer " + std::to_string(i) +
                                 " residual=" + std::to_string(kkt.max_residual));
  }

  add_end_to_end(out, setup_s, static_cast<double>(answer_ms.size()) / timed_s,
                 percentile(answer_ms, 0.5), percentile(answer_ms, 0.9));
  return out;
}

}  // namespace perfbench
