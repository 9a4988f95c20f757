// perfbench: end-to-end and per-layer benchmark of the subsidization
// libraries. Usually started through run.py, which builds it first:
//
//   perfbench --workload figure_grid|policy_study|serve_replay|agent_sim
//             --seed N --seconds S --trace 0|1 [--jobs J] [--trace-dir DIR]
//             [--commit ID] [--emit-inputs]
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
// untraced; with --trace 1 they are the per-layer ones of the traced run.
// --emit-inputs prints the workload's generated input instead (for
// serve_replay, a log that `subsidy_cli serve` accepts on stdin).
//
// Exit codes: 0 correct, 1 a wrong output (the result line says which run),
// 2 bad arguments or an error that left no result.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "generators.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload figure_grid|policy_study|serve_replay|agent_sim"
               " --seed N --seconds S --trace 0|1 [--jobs J] [--trace-dir DIR] [--commit ID]"
               " [--emit-inputs]\n";
  return 2;
}

void emit_inputs(const RunConfig& config) {
  if (config.workload == "figure_grid") {
    std::cout << perfbench::generate_figure_grid(config.seed, config.jobs).scenario_text;
  } else if (config.workload == "policy_study") {
    const perfbench::PolicyInput in = perfbench::generate_policy_study(config.seed);
    for (const std::string& spec : in.market_specs) std::cout << spec << "\n";
  } else if (config.workload == "serve_replay") {
    std::cout << perfbench::generate_serve_replay(config.seed).log;
  } else {
    const perfbench::AgentInput in = perfbench::generate_agent_sim(config.seed);
    std::cout << "market=" << in.market_spec << " users=" << in.agents_per_provider
              << " wakeup=" << in.wakeup << " noise=" << in.noise << " price=" << in.price
              << " cap=" << in.cap << " ticks=" << in.ticks << " seed=" << in.sim_seed << "\n";
  }
}

void print_result(const perfbench::Outcome& outcome) {
  std::string line = "{\"correct\":";
  line += outcome.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(outcome.attempted);
  line += ",\"failed\":" + std::to_string(outcome.failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool emit = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--emit-inputs") {
        emit = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (arg == "--jobs") {
        config.jobs = std::stoul(value);
      } else if (arg == "--trace-dir") {
        config.trace_dir = value;
      } else if (arg == "--commit") {
        config.commit = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (config.workload != "figure_grid" && config.workload != "policy_study" &&
      config.workload != "serve_replay" && config.workload != "agent_sim") {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (emit) {
    emit_inputs(config);
    return 0;
  }
  if (!have_trace || !(config.seconds > 0.0) || config.jobs == 0) {
    return usage("need --trace, a positive --seconds and --jobs >= 1");
  }

  try {
    perfbench::print_machine_context(config);
    perfbench::Outcome outcome;
    if (config.workload == "figure_grid") {
      outcome = perfbench::run_figure_grid(config);
    } else if (config.workload == "policy_study") {
      outcome = perfbench::run_policy_study(config);
    } else if (config.workload == "serve_replay") {
      outcome = perfbench::run_serve_replay(config);
    } else {
      outcome = perfbench::run_agent_sim(config);
    }
    for (perfbench::Metric& m : outcome.metrics) {
      if (!std::isfinite(m.value)) {
        outcome.check(false, "metric " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
    if (outcome.attempted == 0) outcome.check(false, "no work was attempted");
    for (const std::string& note : outcome.notes) std::cerr << "perfbench: FAILED " << note << "\n";
    print_result(outcome);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
