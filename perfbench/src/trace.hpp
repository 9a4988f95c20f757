// In-memory span recorder for the traced run.
//
// Spans come only from the benchmark's own files, around its calls into a
// layer's public entry points: name, start, end, parent span and the item or
// request id they serve. They stay in memory and are written out once, as
// JSON lines, when the run ends. A span's self time is its duration minus the
// time its child spans cover. A disabled tracer records nothing, so the same
// replay code runs traced and untraced and the difference is the tracing
// overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< Seconds since the tracer was created.
    double end = 0.0;
    std::ptrdiff_t parent = -1;  ///< Index of the enclosing span; -1 = root.
    std::int64_t item = -1;      ///< Item / request / chain id; -1 = none.
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::ptrdiff_t index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::ptrdiff_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one. Single-threaded by design:
  /// replays run their layer calls serially.
  [[nodiscard]] Scope span(const char* name, std::int64_t item = -1);

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Writes every span, then per name the summed duration and self time,
  /// as JSON lines.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::map<std::string, std::pair<double, double>> totals() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::ptrdiff_t> open_;
};

/// Runs `fn` inside a span and returns its wall time, which the counters use
/// whether or not the tracer records.
template <typename Fn>
double timed_call(Tracer& tracer, const char* name, std::int64_t item, Fn&& fn) {
  const Tracer::Scope scope = tracer.span(name, item);
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start);
}

/// The per-layer metrics of the traced run, in output order, each with its
/// unit. Every workload reports all of them; a layer the workload does not
/// reach reports 0.
struct LayerMetrics {
  LayerMetrics();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  /// Appends every metric to `out`.
  void emit(Outcome& out) const;

  std::vector<Metric> values;
};

}  // namespace perfbench
