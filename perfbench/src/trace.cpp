#include "trace.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = seconds_since(tracer_->origin_);
  tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(const char* name, std::int64_t item) {
  if (!enabled_) return Scope(nullptr, -1);
  const std::ptrdiff_t parent = open_.empty() ? -1 : open_.back();
  const double now = seconds_since(origin_);
  spans_.push_back({name, now, now, parent, item});
  const auto index = static_cast<std::ptrdiff_t>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

std::map<std::string, std::pair<double, double>> Tracer::totals() const {
  // Children of one span run serially, so the time they cover is the sum of
  // their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::pair<double, double>> sums;  // name -> (total, self)
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end - spans_[i].start;
    auto& [total, self] = sums[spans_[i].name];
    total += duration;
    self += duration - child_time[i];
  }
  return sums;
}

double Tracer::total_s(const std::string& name) const {
  const auto sums = totals();
  const auto it = sums.find(name);
  return it == sums.end() ? 0.0 : it->second.first;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::setprecision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"start\":" << s.start
        << ",\"end\":" << s.end << ",\"parent\":" << s.parent << ",\"item\":" << s.item
        << "}\n";
  }
  for (const auto& [name, sums] : totals()) {
    out << "{\"summary\":\"" << name << "\",\"total_s\":" << sums.first
        << ",\"self_s\":" << sums.second << "}\n";
  }
}

namespace {

/// Name and unit of every per-layer metric, in output order.
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"scenario.parse_s", "s"},
      {"scenario.compile_s", "s"},
      {"runtime.sweep_s", "s"},
      {"runtime.chains", "count"},
      {"runtime.fanout_efficiency", "ratio"},
      {"core.nash.solve_s", "s"},
      {"core.nash.lanes", "count"},
      {"core.nash.passes", "count"},
      {"core.nash.candidates", "count"},
      {"core.nash.candidates_per_pass", "count/pass"},
      {"core.nash.ns_per_candidate", "ns"},
      {"core.nash.iterations", "count"},
      {"core.nash.single_lane_s", "s"},
      {"core.nash.fallbacks", "count"},
      {"core.nash.rescued_damped", "count"},
      {"core.nash.rescued_extragradient", "count"},
      {"core.nash.unresolved", "count"},
      {"core.util.solve_s", "s"},
      {"core.util.nodes", "count"},
      {"core.util.ns_per_node", "ns"},
      {"core.util.failed_nodes", "count"},
      {"core.util.plane_bytes", "B"},
      {"core.optimizer.optimize_s", "s"},
      {"core.optimizer.calls", "count"},
      {"core.optimizer.ms_per_call", "ms"},
      {"server.parse_s", "s"},
      {"server.serve_s", "s"},
      {"server.serialize_s", "s"},
      {"server.batches", "count"},
      {"server.coalesced_lanes", "count"},
      {"server.coalesced_share", "ratio"},
      {"server.exact_hits", "count"},
      {"server.hit_ratio", "ratio"},
      {"server.evictions", "count"},
      {"sim.step_s", "s"},
      {"sim.ticks", "count"},
      {"sim.decisions", "count"},
      {"sim.ns_per_decision", "ns"},
      {"sim.plane_solve_s", "s"},
      {"trace.overhead_share", "ratio"},
      {"trace.replay_deviation", "abs"},
  };
  return catalog;
}

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : layer_catalog()) values.push_back({name, 0.0, unit});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Metric& m : values) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::add(const std::string& name, double value) { set(name, get(name) + value); }

double LayerMetrics::get(const std::string& name) const {
  for (const Metric& m : values) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::emit(Outcome& out) const {
  for (const Metric& m : values) out.metric(m.name, m.value, m.unit);
}

}  // namespace perfbench
