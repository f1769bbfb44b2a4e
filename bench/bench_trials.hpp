// Interleaved repeated trials for the engine benches (bench_shard,
// bench_dutycycle).
//
// Every trial runs each configuration once, in an order rotated by one per
// trial, so slow drift of the host lands on all configurations alike. Each
// configuration keeps its first trial's outcome (digest, event count,
// scheduler stats) and every trial's wall time; rows report the median wall
// time with its min and max, and a configuration whose digest or event
// count moves between trials fails the parity gate.
#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/scenario.hpp"

namespace ssbft::bench {

/// Trials per configuration for the per-policy rows.
inline constexpr std::size_t kTrials = 5;

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

inline Spread spread_of(std::vector<double> values) {
  Spread s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1 ? values[mid]
                                    : (values[mid - 1] + values[mid]) / 2;
  s.min = values.front();
  s.max = values.back();
  return s;
}

/// `"key": {"median": .., "min": .., "max": ..}` (no trailing separator).
inline void write_spread(std::FILE* out, const char* key, const Spread& s) {
  std::fprintf(out, "\"%s\": {\"median\": %.6f, \"min\": %.6f, \"max\": %.6f}",
               key, s.median, s.min, s.max);
}

/// One configuration's repeated runs. `Run` carries wall_seconds, digest,
/// events and migration_ns (the benches' EngineRun structs).
template <typename Run>
struct Trials {
  Run first;
  std::vector<double> wall_s;
  std::vector<double> migration_ns;
  bool stable = true;  // every trial matched the first's digest and events

  void add(const Run& run) {
    if (wall_s.empty()) {
      first = run;
    } else {
      stable = stable && run.digest == first.digest &&
               run.events == first.events;
    }
    wall_s.push_back(run.wall_seconds);
    migration_ns.push_back(double(run.migration_ns));
  }
  [[nodiscard]] Spread wall() const { return spread_of(wall_s); }
  [[nodiscard]] double events_per_sec() const {
    const double median = wall().median;
    return median > 0 ? double(first.events) / median : 0;
  }
  [[nodiscard]] std::uint64_t migration_ns_median() const {
    return std::uint64_t(spread_of(migration_ns).median);
  }
};

/// Run every configuration `trials` times, interleaved: trial t runs the
/// configurations starting at index t mod count.
template <typename Run, typename RunFn>
std::vector<Trials<Run>> run_interleaved(const std::vector<Scenario>& configs,
                                         std::size_t trials, RunFn&& run) {
  std::vector<Trials<Run>> out(configs.size());
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::size_t c = (t + i) % configs.size();
      out[c].add(run(configs[c]));
    }
  }
  return out;
}

}  // namespace ssbft::bench
