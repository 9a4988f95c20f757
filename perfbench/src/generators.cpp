#include "generators.hpp"

#include <array>
#include <cstdio>
#include <deque>
#include <sstream>

#include "common.hpp"

namespace perfbench {

namespace {

// Streams of one seed; each generator draws from its own so that changing
// one workload's generator never shifts another's inputs.
enum Stream : std::uint64_t { kFigure = 1, kPolicy = 2, kServe = 3, kAgent = 4 };

std::string fmt(double value, const char* format = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string join(const std::vector<std::string>& cells, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += sep;
    out += cells[i];
  }
  return out;
}

/// `count` draws on [lo, hi), one in each of `count` equal strata, in
/// shuffled order, so the values cover the range evenly.
std::vector<double> stratified(SeededStream& rng, std::size_t count, double lo, double hi) {
  std::vector<double> values(count);
  for (std::size_t k = 0; k < count; ++k) {
    values[k] = lo + (hi - lo) * (static_cast<double>(k) + rng.uniform()) / static_cast<double>(count);
  }
  rng.shuffle(values);
  return values;
}

}  // namespace

// Why figure_grid exists: it is the paper-reproduction path (Figs 7-11) at
// four times the paper's market size. Wide lockstep Nash planes, the
// utilization planes under them and the runtime chain fan-out do nearly all
// the work; the server, simulation and price-optimizer layers do none.
FigureInput generate_figure_grid(std::uint64_t seed, std::size_t jobs) {
  FigureInput in;
  in.providers = 32;
  in.caps = 7;
  in.prices = 201;
  in.chain = 8;
  // The seed perturbs a fixed base market: every parameter moves by up to
  // +-2% and the providers come in a seeded order. The base market (seed 0
  // of the same stream) keeps every family populated — 8 providers per
  // demand family, 10 or 11 per throughput family — with stratified
  // parameters, so every seed's market costs about the same to solve.
  SeededStream design(0, kFigure);
  SeededStream rng(seed, kFigure);
  const auto jitter = [&rng](double x) { return fmt(x * rng.uniform(0.98, 1.02)); };
  static const std::array<const char*, 4> demand = {"exp", "logit", "iso", "linear"};
  static const std::array<const char*, 3> throughput = {"exp", "power", "delay"};
  const std::size_t per_demand = in.providers / demand.size();
  const std::vector<double> alpha = stratified(design, per_demand, 1.0, 5.0);
  const std::vector<double> logit_k = stratified(design, per_demand, 3.0, 6.0);
  const std::vector<double> logit_t0 = stratified(design, per_demand, 0.3, 1.0);
  const std::vector<double> iso_eps = stratified(design, per_demand, 1.5, 3.0);
  const std::vector<double> linear_tmax = stratified(design, per_demand, 2.2, 3.0);
  const std::vector<double> linear_m0 = stratified(design, per_demand, 0.6, 1.2);
  const std::size_t per_throughput = (in.providers + throughput.size() - 1) / throughput.size();
  const std::vector<double> exp_beta = stratified(design, per_throughput, 1.0, 5.0);
  const std::vector<double> power_beta = stratified(design, per_throughput, 1.0, 2.5);
  const std::vector<double> delay_beta = stratified(design, per_throughput, 1.0, 2.5);
  const std::vector<double> value = stratified(design, in.providers, 0.5, 1.2);

  std::vector<std::string> providers;
  for (std::size_t i = 0; i < in.providers; ++i) {
    const std::string d = demand[i % demand.size()];
    const std::string t = throughput[i % throughput.size()];
    const std::size_t j = i / demand.size();      // index within the demand family
    const std::size_t k = i / throughput.size();  // index within the throughput family
    std::string demand_spec;
    if (d == "exp") {
      demand_spec = "exp:alpha=" + jitter(alpha[j]);
    } else if (d == "logit") {
      demand_spec = "logit:k=" + jitter(logit_k[j]) + ",t0=" + jitter(logit_t0[j]);
    } else if (d == "iso") {
      demand_spec = "iso:eps=" + jitter(iso_eps[j]);
    } else {
      demand_spec = "linear:tmax=" + jitter(linear_tmax[j]) + ",m0=" + jitter(linear_m0[j]);
    }
    const double beta = t == "exp" ? exp_beta[k] : t == "power" ? power_beta[k] : delay_beta[k];
    providers.push_back("demand = " + demand_spec + "\nthroughput = " + t + ":beta=" +
                        jitter(beta) + "\nv = " + jitter(value[i]) + "\n");
  }
  rng.shuffle(providers);

  std::ostringstream text;
  text << "[scenario]\nname = perfbench_figure_grid\n"
       << "description = seeded mixed-family market, (cap x price) equilibrium grid\n\n"
       << "[market]\ncapacity = " << jitter(in.providers / 8.0) << "\nutilization = linear\n";
  for (std::size_t i = 0; i < providers.size(); ++i) {
    text << "\n[provider]\nname = cp" << i << "\n" << providers[i];
  }
  // Every cap stays below the lowest price and every linear curve's t_max
  // above the highest, so no provider's effective price reaches a kink of
  // the isoelastic or linear curves (t = 0, t = t_max). At those kinks the
  // best-response ladder can fail to resolve a lane and the KKT test does
  // not apply.
  text << "\n[figure]\nprices = 0.35:2:" << in.prices << "\ncaps = 0,0.05,0.1,0.15,0.2,0.25,0.3"
       << "\nchain = " << in.chain << "\njobs = " << jobs << "\n";
  in.scenario_text = text.str();
  return in;
}

// Why policy_study exists: it is the regulator's question "what price and
// welfare follow from cap q?" asked as a closed loop of single queries. The
// monopoly price search (core.optimizer) and narrow, width-1 Nash passes
// dominate; the runtime fan-out does nothing.
PolicyInput generate_policy_study(std::uint64_t seed) {
  // As for figure_grid, the seed perturbs fixed base markets (8 to 16
  // providers, stratified exponential curves): every parameter moves by up
  // to +-2%, and markets and providers come in a seeded order.
  SeededStream design(0, kPolicy);
  SeededStream rng(seed, kPolicy);
  const auto jitter = [&rng](double x) { return fmt(x * rng.uniform(0.98, 1.02)); };
  PolicyInput in;
  for (const std::size_t n : {8, 9, 10, 11, 13, 14, 15, 16}) {
    const std::vector<double> alpha = stratified(design, n, 1.0, 5.0);
    const std::vector<double> beta = stratified(design, n, 1.0, 5.0);
    const std::vector<double> v = stratified(design, n, 0.5, 1.0);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<std::string> a;
    std::vector<std::string> b;
    std::vector<std::string> w;
    for (const std::size_t i : order) {
      a.push_back(jitter(alpha[i]));
      b.push_back(jitter(beta[i]));
      w.push_back(jitter(v[i]));
    }
    in.market_specs.push_back("exp:mu=" + jitter(static_cast<double>(n) / 8.0) +
                              ";alpha=" + join(a, ",") + ";beta=" + join(b, ",") +
                              ";v=" + join(w, ","));
  }
  rng.shuffle(in.market_specs);
  for (std::size_t k = 0; k < 16; ++k) in.caps.push_back(1.5 * static_cast<double>(k) / 15.0);
  return in;
}

const std::vector<std::string>& serve_markets() {
  static const std::vector<std::string> markets = {
      "section5", "section3",
      "exp:mu=1.2;demand=exp:alpha=2|logit:k=4,t0=0.5|iso:eps=2|linear:tmax=2,m0=0.8;"
      "beta=1.5+power,2+delay,2,5;v=1,0.8,0.6,1.2"};
  return markets;
}

// Why serve_replay exists: it drives the Nash layer differently from the
// sweeps — coalesced multi-market planes beside exact cache replays and
// singleton lanes — and it is the only workload that reaches the server
// layer. One client replays the log closed-loop with one batch in flight.
ServeInput generate_serve_replay(std::uint64_t seed) {
  // As for figure_grid, the seed perturbs a fixed base log (seed 0 of the
  // same stream): every price, cap and grid bound moves by up to +-2%.
  // The base log fixes the rest — batch order, which op and market each
  // request has, and which earlier request each repeat copies — so every
  // seed asks for the same work in the same batches. Per-request latency
  // is its batch's time, and the 64-request batches hold half the
  // requests, so latency_p50_ms falls between the slowest smaller batch
  // and the fastest 64-request one; a seeded layout would move both.
  SeededStream design(0, kServe);
  SeededStream rng(seed, kServe);
  const auto jitter = [&rng](double x) { return x * rng.uniform(0.98, 1.02); };
  ServeInput in;
  // Batch sizes are 25 rounds of {1,1,2,4,8,16,32,64} in a fixed shuffled
  // order (200 batches, 3200 requests). The request mix — 65% fresh
  // equilibria, 20% exact repeats, 12% one_sided grids, 3% sweeps — is
  // spread evenly along the log, so every large batch carries about the
  // same share of heavy sweeps.
  std::vector<std::size_t> sizes;
  for (int round = 0; round < 25; ++round) {
    for (const std::size_t size : {1, 1, 2, 4, 8, 16, 32, 64}) sizes.push_back(size);
  }
  design.shuffle(sizes);
  static const std::array<std::pair<char, double>, 4> shares = {
      {{'e', 0.65}, {'r', 0.20}, {'o', 0.12}, {'s', 0.03}}};  // equilibrium, repeat, one_sided, sweep
  std::vector<char> mix;
  std::array<double, 4> dealt = {};
  for (std::size_t i = 0; i < 3200; ++i) {
    // Largest remainder: the op furthest behind its share goes next.
    std::size_t pick = 0;
    for (std::size_t o = 1; o < shares.size(); ++o) {
      if (shares[o].second * static_cast<double>(i + 1) - dealt[o] >
          shares[pick].second * static_cast<double>(i + 1) - dealt[pick]) {
        pick = o;
      }
    }
    dealt[pick] += 1.0;
    mix.push_back(shares[pick].first);
  }
  const std::vector<std::string>& markets = serve_markets();
  std::deque<std::string> recent;  // request bodies (everything after the id)
  std::ostringstream log;
  in.batches = sizes.size();
  for (std::size_t b = 0; b < in.batches; ++b) {
    const std::size_t size = sizes[b];
    if (size == 1) ++in.singleton_batches;
    if (b > 0) log << "\n";
    for (std::size_t k = 0; k < size; ++k) {
      const char kind = mix[in.requests];
      const std::string market = markets[design.index(markets.size())];
      std::string body;
      std::string op;
      if (kind == 'r' && !recent.empty()) {
        body = recent[design.index(recent.size())];
        op = "repeat";
        ++in.exact_repeats;
      } else if (kind == 'e' || kind == 'r') {
        op = "equilibrium";
        // Caps stay below the price (t > 0) and prices below the mixed
        // market's linear t_max, away from the demand kinks where the
        // solver's KKT verdict turns a response's exit code to 1.
        const double price = jitter(design.uniform(0.2, 1.8));
        body = "\"op\":\"equilibrium\",\"market\":\"" + market +
               "\",\"price\":" + fmt(price, "%.4f") +
               ",\"cap\":" + fmt(price * jitter(design.uniform(0.05, 0.85)), "%.4f");
      } else if (kind == 'o') {
        op = "one_sided";
        body = "\"op\":\"one_sided\",\"market\":\"" + market +
               "\",\"pmin\":" + fmt(jitter(design.uniform(0.05, 0.4)), "%.4f") +
               ",\"pmax\":" + fmt(jitter(design.uniform(1.5, 2.5)), "%.4f") + ",\"points\":41";
      } else {
        op = "sweep";
        body = "\"op\":\"sweep\",\"market\":\"" + market +
               "\",\"cap\":" + fmt(jitter(design.uniform(0.2, 1.2)), "%.4f") +
               ",\"pmin\":" + fmt(jitter(design.uniform(0.05, 0.4)), "%.4f") +
               ",\"pmax\":" + fmt(jitter(design.uniform(1.5, 2.5)), "%.4f") +
               ",\"points\":21,\"chain\":4";
      }
      ++in.ops[op];
      if (op != "repeat") {
        recent.push_back(body);
        if (recent.size() > 64) recent.pop_front();
      }
      log << "{\"id\":\"r" << in.requests << "\"," << body << "}\n";
      ++in.requests;
    }
  }
  in.log = log.str();
  return in;
}

// Why agent_sim exists: the agent decision loop does almost all the work.
// The utilization plane is one column per tick and the Nash layer runs only
// in set-up, so a Nash or kernel change should leave it unmoved.
AgentInput generate_agent_sim(std::uint64_t seed) {
  AgentInput in;
  in.sim_seed = subsidy::num::crng::bits(seed, kAgent, 0) >> 1;
  return in;
}

}  // namespace perfbench
