// serve_replay: a generated request log in the `subsidy_cli serve` wire
// format, replayed closed-loop by one client with one batch in flight:
// parse_request -> ServerEngine::serve (cache 256) -> serialize_response. A
// fresh engine serves every pass. One unit and one latency sample is one
// request, timed from its batch's hand-off to its response line.
#include <map>
#include <memory>
#include <sstream>

#include "generators.hpp"
#include "subsidy/cli/market_spec.hpp"
#include "subsidy/core/evaluator.hpp"
#include "subsidy/io/csv.hpp"
#include "subsidy/numerics/grid.hpp"
#include "subsidy/runtime/chain_partition.hpp"
#include "subsidy/runtime/parallel_sweep.hpp"
#include "subsidy/server/engine.hpp"
#include "subsidy/server/protocol.hpp"
#include "subsidy/server/render.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = subsidy::core;
namespace server = subsidy::server;

namespace {

constexpr std::size_t kRenderSamples = 24;

using Batches = std::vector<std::vector<std::string>>;

/// The CLI's batching rule: one request per line, a blank line flushes.
Batches split_batches(const std::string& log) {
  Batches batches(1);
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      if (!batches.back().empty()) batches.emplace_back();
      continue;
    }
    batches.back().push_back(line);
  }
  if (batches.back().empty()) batches.pop_back();
  return batches;
}

server::ServerConfig serve_config() {
  server::ServerConfig config;
  config.market_resolver = [](const std::string& spec) {
    return subsidy::cli::parse_market_spec(spec);
  };
  config.cache_capacity = 256;
  return config;
}

struct Pass {
  std::vector<std::uint64_t> line_hashes;  ///< FNV-1a of each response line, in log order.
  std::vector<double> latency_ms;
  std::size_t failed = 0;  ///< Responses not ok or with a non-zero exit code.
  double seconds = 0.0;
  // Kept only on request (the checks and the replay read them); a timed
  // pass drops each line once written, as the CLI does.
  std::vector<server::Request> requests;    ///< Parsed, in log order.
  std::vector<server::Response> responses;  ///< In log order.
  std::vector<std::size_t> batch_of;        ///< Batch index per request.
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

/// One closed-loop replay of the whole log against `engine`.
Pass serve_pass(server::ServerEngine& engine, const Batches& batches, Tracer& tracer,
                bool keep) {
  Pass pass;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto item = static_cast<std::int64_t>(b);
    const Clock::time_point handoff = Clock::now();
    std::vector<server::Request> requests;
    std::vector<server::Response> responses(batches[b].size());
    std::vector<std::size_t> slots;
    {
      const Tracer::Scope span = tracer.span("server.parse", item);
      for (std::size_t k = 0; k < batches[b].size(); ++k) {
        try {
          requests.push_back(server::parse_request(batches[b][k]));
          slots.push_back(k);
        } catch (const std::exception& e) {
          responses[k].error = e.what();
          responses[k].exit_code = 2;
        }
      }
    }
    std::vector<server::Response> served;
    {
      const Tracer::Scope span = tracer.span("server.serve", item);
      served = engine.serve(requests);
    }
    for (std::size_t k = 0; k < slots.size(); ++k) responses[slots[k]] = served[k];
    {
      const Tracer::Scope span = tracer.span("server.serialize", item);
      for (const server::Response& response : responses) {
        pass.line_hashes.push_back(fnv1a(server::serialize_response(response)));
        pass.latency_ms.push_back(seconds_since(handoff) * 1e3);
      }
    }
    pass.seconds += seconds_since(handoff);
    for (const server::Response& response : responses) {
      if (!response.ok || response.exit_code != 0) ++pass.failed;
    }
    if (!keep) continue;
    // Requests that failed to parse keep an empty slot; the checks count
    // their error responses.
    std::size_t next = 0;
    for (std::size_t k = 0; k < responses.size(); ++k) {
      if (next < slots.size() && slots[next] == k) {
        pass.requests.push_back(requests[next++]);
      } else {
        pass.requests.emplace_back();
      }
      pass.responses.push_back(responses[k]);
      pass.batch_of.push_back(b);
    }
  }
  return pass;
}

/// Replays the solver work of one production pass through the lower
/// layers' public entries, batch by batch: the uncached `equilibrium` lanes
/// of a market as one solve_nash_many batch, its uncached `one_sided` grids
/// as one unsubsidized plane, each `sweep` through the runtime layer.
/// Returns 1 when any replayed response text differs from production, else 0.
double replay_pass(const Pass& pass, Tracer& tracer, LayerMetrics& layers) {
  std::map<std::string, std::unique_ptr<core::ModelEvaluator>> evaluators;
  const auto evaluator = [&](const std::string& spec) -> const core::ModelEvaluator& {
    auto& slot = evaluators[spec];
    if (!slot) slot = std::make_unique<core::ModelEvaluator>(subsidy::cli::parse_market_spec(spec));
    return *slot;
  };
  double deviation = 0.0;
  const auto compare = [&](std::size_t k, const std::string& text) {
    if (text != pass.responses[k].text) deviation = 1.0;
  };
  std::size_t begin = 0;
  while (begin < pass.requests.size()) {
    std::size_t end = begin;
    while (end < pass.requests.size() && pass.batch_of[end] == pass.batch_of[begin]) ++end;
    const auto item = static_cast<std::int64_t>(pass.batch_of[begin]);
    std::map<std::string, std::vector<std::size_t>> equilibria;
    std::map<std::string, std::vector<std::size_t>> one_sided;
    for (std::size_t k = begin; k < end; ++k) {
      const server::Request& r = pass.requests[k];
      if (!pass.responses[k].ok || pass.responses[k].cached) continue;
      if (r.op == "equilibrium" && r.solver == "auto") equilibria[r.market].push_back(k);
      if (r.op == "one_sided") one_sided[r.market].push_back(k);
      if (r.op == "sweep") {
        subsidy::runtime::SweepOptions options;
        options.chain_length = static_cast<std::size_t>(r.chain.value_or(8));
        const std::vector<double> grid = subsidy::num::linspace(
            r.pmin.value_or(0.05), r.pmax.value_or(2.0), static_cast<std::size_t>(r.points.value_or(41)));
        layers.add("runtime.chains",
                   static_cast<double>(
                       subsidy::runtime::partition_chains(1, grid.size(), options.chain_length).size()));
        std::vector<subsidy::runtime::SweepRow> rows;
        layers.add("runtime.sweep_s", timed_call(tracer, "runtime.sweep", item, [&] {
                     rows = subsidy::runtime::ParallelSweepRunner(evaluator(r.market).market(), options)
                                .run_prices(r.cap.value_or(0.0), grid);
                   }));
        std::ostringstream out;
        subsidy::io::write_csv(out, server::sweep_table(rows), 8);
        compare(k, out.str());
      }
    }
    for (const auto& [spec, members] : equilibria) {
      const core::ModelEvaluator& ev = evaluator(spec);
      std::vector<core::NashBatchNode> nodes;
      for (const std::size_t k : members) {
        nodes.push_back({*pass.requests[k].price, *pass.requests[k].cap, {}, -1.0});
      }
      core::NashBatchStats stats;
      std::vector<core::NashResult> results;
      const double dt = timed_call(tracer, "core.nash", item, [&] {
        results = core::solve_nash_many(ev, nodes, {}, {}, &stats);
      });
      record_nash(layers, stats, results, dt);
      for (std::size_t j = 0; j < members.size(); ++j) {
        std::ostringstream out;
        (void)server::render_equilibrium(out, ev.market(), nodes[j].price, nodes[j].policy_cap,
                                         results[j]);
        compare(members[j], out.str());
      }
    }
    for (const auto& [spec, members] : one_sided) {
      const core::ModelEvaluator& ev = evaluator(spec);
      std::vector<double> prices;
      std::vector<std::vector<double>> grids;
      for (const std::size_t k : members) {
        const server::Request& r = pass.requests[k];
        grids.push_back(r.prices.empty()
                            ? subsidy::num::linspace(r.pmin.value_or(0.05), r.pmax.value_or(2.0),
                                                     static_cast<std::size_t>(r.points.value_or(41)))
                            : r.prices);
        prices.insert(prices.end(), grids.back().begin(), grids.back().end());
      }
      std::vector<core::SolveStatus> statuses;
      std::vector<core::SystemState> states;
      const double dt = timed_call(tracer, "core.util", item, [&] {
        states = ev.try_evaluate_unsubsidized_many(prices, statuses);
      });
      std::size_t failed = 0;
      for (const core::SolveStatus s : statuses) failed += core::failed(s) ? 1 : 0;
      record_util(layers, prices.size(), failed, ev.num_providers(), dt);
      std::size_t offset = 0;
      for (std::size_t j = 0; j < members.size(); ++j) {
        const std::size_t count = grids[j].size();
        std::ostringstream out;
        subsidy::io::write_csv(
            out,
            server::one_sided_table(grids[j], std::span(states).subspan(offset, count),
                                    std::span(statuses).subspan(offset, count)),
            pass.requests[members[j]].precision.value_or(10));
        compare(members[j], out.str());
        offset += count;
      }
    }
    begin = end;
  }
  return deviation;
}

Outcome traced_run(const RunConfig& config, const Batches& batches) {
  Outcome out;
  LayerMetrics layers;
  Tracer tracer(true);

  // Untraced baseline of the same pass + replay, for the overhead share.
  Tracer quiet(false);
  LayerMetrics discard;
  const Clock::time_point q0 = Clock::now();
  {
    server::ServerEngine engine(serve_config());
    (void)replay_pass(serve_pass(engine, batches, quiet, true), quiet, discard);
  }
  const double untraced_s = seconds_since(q0);

  const Clock::time_point t0 = Clock::now();
  server::ServerEngine engine(serve_config());
  const Pass pass = serve_pass(engine, batches, tracer, true);
  const double deviation = replay_pass(pass, tracer, layers);
  const double traced_s = seconds_since(t0);

  const server::ServerStats stats = engine.stats();
  const double requests = static_cast<double>(stats.requests);
  layers.set("server.parse_s", tracer.total_s("server.parse"));
  layers.set("server.serve_s", tracer.total_s("server.serve"));
  layers.set("server.serialize_s", tracer.total_s("server.serialize"));
  layers.set("server.batches", static_cast<double>(stats.batches));
  layers.set("server.coalesced_lanes", static_cast<double>(stats.coalesced_lanes));
  layers.set("server.coalesced_share", static_cast<double>(stats.coalesced_lanes) / requests);
  layers.set("server.exact_hits", static_cast<double>(stats.exact_hits));
  layers.set("server.hit_ratio", static_cast<double>(stats.exact_hits) / requests);
  layers.set("server.evictions", static_cast<double>(stats.evictions));
  layers.set("trace.replay_deviation", deviation);
  layers.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
  out.check(deviation == 0.0, "replayed responses byte-equal to production");
  for (const server::Response& r : pass.responses) out.check(r.ok, "response ok");
  finish_layers(layers);
  tracer.write(trace_path(config));
  layers.emit(out);
  return out;
}

}  // namespace

Outcome run_serve_replay(const RunConfig& config) {
  const ServeInput in = generate_serve_replay(config.seed);
  std::vector<subsidy::econ::Market> markets;
  for (const std::string& spec : serve_markets()) {
    markets.push_back(subsidy::cli::parse_market_spec(spec));
  }
  const double requests = static_cast<double>(in.requests);
  std::vector<std::pair<std::string, double>> properties = {
      {"requests", requests},
      {"batches", static_cast<double>(in.batches)},
      {"markets", static_cast<double>(markets.size())},
      {"exact_repeat_share", static_cast<double>(in.exact_repeats) / requests},
      {"singleton_batch_share",
       static_cast<double>(in.singleton_batches) / static_cast<double>(in.batches)},
      {"cache_capacity", 256.0}};
  for (const auto& [op, count] : in.ops) {
    properties.emplace_back("share." + op, static_cast<double>(count) / requests);
  }
  for (auto& family : family_counts(markets)) properties.push_back(family);
  print_properties("workload",
                   {{"name", "serve_replay"},
                    {"why", "coalesced multi-market Nash planes beside cache replays and "
                            "singleton lanes; the only workload reaching the server"},
                    {"loop", "closed, one client, one batch in flight"}},
                   properties);
  if (config.trace) return traced_run(config, split_batches(in.log));

  Outcome out;
  Batches batches;
  const double setup_s = rotated_setup_s([&] {
    batches = split_batches(in.log);
    const server::ServerEngine engine(serve_config());
  });

  Tracer quiet(false);
  Pass reference;  // warm-up pass, untimed; the checks below read it
  {
    server::ServerEngine engine(serve_config());
    reference = serve_pass(engine, batches, quiet, true);
  }
  const CpuRotation cpus;
  // Pass j runs on CPU slot j, in whole rounds. Each figure is the mean over
  // CPUs of the median over that CPU's passes of the pass's figure. Every
  // pass holds 3200 latency samples, and the median keeps a slow stretch of
  // shared-machine interference that covers less than half a CPU's passes
  // out of the result.
  std::vector<std::vector<double>> pass_rate(cpus.size());
  std::vector<std::vector<double>> pass_p50(cpus.size());
  std::vector<std::vector<double>> pass_p90(cpus.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; seconds_since(start) < config.seconds || j % cpus.size() != 0; ++j) {
    const std::size_t slot = j % cpus.size();
    cpus.pin(slot);
    server::ServerEngine engine(serve_config());
    const Pass pass = serve_pass(engine, batches, quiet, false);
    pass_rate[slot].push_back(static_cast<double>(pass.line_hashes.size()) / pass.seconds);
    pass_p50[slot].push_back(percentile(pass.latency_ms, 0.5));
    pass_p90[slot].push_back(percentile(pass.latency_ms, 0.9));
    out.attempted += pass.line_hashes.size();
    out.failed += pass.failed;
    if (pass.failed > 0 || pass.line_hashes != reference.line_hashes) out.correct = false;
  }
  if (!out.correct) out.notes.push_back("a timed pass served a failed or differing response");

  // Output checks, untimed: every response ok, and a seeded sample of
  // equilibrium responses byte-equal to the one-shot rendering.
  std::vector<std::size_t> equilibria;
  for (std::size_t k = 0; k < reference.responses.size(); ++k) {
    const server::Response& r = reference.responses[k];
    out.check(r.ok && r.exit_code == 0,
              "response " + r.id + " ok (exit " + std::to_string(r.exit_code) + ") " + r.error);
    if (reference.requests[k].op == "equilibrium") equilibria.push_back(k);
  }
  SeededStream pick(config.seed, 301);
  for (std::size_t s = 0; s < kRenderSamples && !equilibria.empty(); ++s) {
    const std::size_t k = equilibria[pick.index(equilibria.size())];
    const server::Request& r = reference.requests[k];
    const subsidy::econ::Market market = subsidy::cli::parse_market_spec(r.market);
    std::ostringstream text;
    (void)server::render_equilibrium(text, market, *r.price, *r.cap,
                                     server::solve_equilibrium(market, *r.price, *r.cap, r.solver));
    out.check(text.str() == reference.responses[k].text,
              "response " + r.id + " equals the one-shot rendering");
  }

  add_end_to_end(out, setup_s, mean_of_slot_medians(pass_rate), mean_of_slot_medians(pass_p50),
                 mean_of_slot_medians(pass_p90));
  return out;
}

}  // namespace perfbench
