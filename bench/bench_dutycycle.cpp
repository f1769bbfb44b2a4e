// bench_dutycycle — recurring chaos duty cycles: all-serial vs the
// alternating engine (sim/duty_world.hpp) on one multi-cycle run.
//
// A duty cycle [s_k, s_k + width), one window every `duty` ms, alternates
// serial chaos segments with sharded stabilization segments, migrating the
// COMPLETE in-flight state across every boundary in both directions. Two
// hard gates ride on that:
//   * digest parity — the alternating run must be bit-identical to its
//     all-serial twin (run digest, event count, AND every per-window
//     stabilization digest); any mismatch exits 1 and fails CI;
//   * stabilization observability — each row records the per-window
//     re-convergence metrics (recovery time after each burst, events in
//     each recovery span) that the paper's repeated-stabilization claims
//     are about.
// Speedup is reported per-machine with its hardware_threads, never gated.
// Every row is kTrials interleaved trials (bench_trials.hpp): all-serial
// and both shard_sched policies run once per trial in rotated order, and
// the row records the median wall time with its min and max.
//
// Results go to stdout (table) and BENCH_dutycycle.json (machine-readable,
// tracked in-repo so future PRs can diff the perf trajectory;
// tools/bench_check.py hard-gates the parity keys).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/report.hpp"
#include "bench_trials.hpp"
#include "harness/runner.hpp"
#include "sim/duty_world.hpp"

namespace ssbft {
namespace {

using bench::kTrials;
using bench::run_interleaved;
using bench::write_spread;

constexpr std::uint32_t kShards = 4;

/// The measurement shape: scrambled node state, flooding Byzantine nodes,
/// and a chaos window that RECURS — the stack must re-converge after every
/// burst, and the engine must migrate serial↔sharded at every boundary.
/// Window geometry scales with n so the big row stays a bounded slice of
/// the messaging storm (one n=128 agreement is ~3M relays).
Scenario duty_scenario(std::uint32_t n, std::uint32_t shards,
                       ShardSched sched = ShardSched::kStatic) {
  Scenario sc;
  sc.n = n;
  sc.f = (n - 1) / 3;
  sc.with_tail_faults(sc.f);
  sc.shards = shards;
  sc.shard_sched = sched;
  // Delay floor = lookahead, as in bench_shard: exponential tail, floored
  // at δ/10 = 100 µs.
  sc.link_delay =
      DelayModel::exp_truncated(sc.delta / 10, sc.delta / 5, sc.delta);
  sc.transient_scramble = true;
  sc.transient.spurious_per_node = 16;
  sc.adversary = AdversaryKind::kNoise;
  sc.adversary_period = microseconds(500);
  sc.seed = 1;
  if (n <= 32) {
    sc.chaos_period = milliseconds(2);       // window width
    sc.chaos_duty = milliseconds(15);        // start-to-start stride
    sc.chaos_count = 3;                      // bursts: 0, 15, 30 ms
    sc.run_for = milliseconds(60);
  } else {
    sc.chaos_period = microseconds(600);
    sc.chaos_duty = microseconds(2500);      // bursts: 0, 2.5 ms
    sc.chaos_count = 2;
    sc.run_for = microseconds(6000);
  }
  // Post-first-window proposal barrage: keeps every stabilization segment
  // a proper messaging storm (round-robin over early correct nodes).
  for (std::uint32_t i = 0; i < 8; ++i) {
    sc.with_proposal(sc.chaos_period + microseconds(100) +
                         i * microseconds(700),
                     NodeId(i % 4), 100 + i);
  }
  return sc;
}

struct EngineRun {
  double events_per_sec = 0;
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint32_t shards = 1;
  std::size_t migrations = 0;  // engine switches performed (alternating only)
  std::uint64_t migration_ns = 0;  // wall time inside those switches
  std::vector<WindowStabilization> windows;
};

EngineRun run_engine(const Scenario& sc) {
  Cluster cluster(sc);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run();
  const auto t1 = std::chrono::steady_clock::now();

  EngineRun out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = cluster.world().dispatched();
  out.digest = evaluate_stack(cluster).digest;
  out.shards = cluster.shards();
  out.windows = window_stabilization(cluster.scenario(), cluster.probe());
  if (auto* duty = dynamic_cast<DutyWorld*>(&cluster.world())) {
    out.migrations = duty->migrations();
    out.migration_ns = duty->migration_ns();
  }
  if (out.wall_seconds > 0) {
    out.events_per_sec = double(out.events) / out.wall_seconds;
  }
  return out;
}

using Trials = bench::Trials<EngineRun>;

struct Row {
  std::uint32_t n = 0;
  ShardSched sched = ShardSched::kStatic;
  Trials serial_trials;
  Trials alternating_trials;
  [[nodiscard]] const EngineRun& serial() const { return serial_trials.first; }
  [[nodiscard]] const EngineRun& alternating() const {
    return alternating_trials.first;
  }
  [[nodiscard]] double speedup() const {
    const double serial_s = serial_trials.wall().median;
    const double alternating_s = alternating_trials.wall().median;
    return serial_s > 0 && alternating_s > 0 ? serial_s / alternating_s : 0;
  }
  /// The hard gate: every trial reproduces its first, and the run digest,
  /// event count, and EVERY per-window stabilization digest match the
  /// all-serial twin.
  [[nodiscard]] bool parity() const {
    if (!serial_trials.stable || !alternating_trials.stable) return false;
    const EngineRun& serial = this->serial();
    const EngineRun& alternating = this->alternating();
    if (serial.digest != alternating.digest) return false;
    if (serial.events != alternating.events) return false;
    if (serial.windows.size() != alternating.windows.size()) return false;
    for (std::size_t w = 0; w < serial.windows.size(); ++w) {
      if (serial.windows[w].digest != alternating.windows[w].digest ||
          serial.windows[w].events != alternating.windows[w].events) {
        return false;
      }
    }
    return true;
  }
};

void append_windows_json(std::FILE* out, const EngineRun& run) {
  for (std::size_t w = 0; w < run.windows.size(); ++w) {
    const WindowStabilization& win = run.windows[w];
    std::fprintf(out,
                 "    {\"window\": %zu, \"chaos_start_ms\": %.3f, "
                 "\"chaos_end_ms\": %.3f, \"recovered\": %s, "
                 "\"recovery_ms\": %.3f, \"events\": %u, "
                 "\"digest\": \"%016llx\"}%s\n",
                 w, double((win.chaos_start - RealTime::zero()).ns()) * 1e-6,
                 double((win.chaos_end - RealTime::zero()).ns()) * 1e-6,
                 win.recovery ? "true" : "false",
                 win.recovery ? double(win.recovery->ns()) * 1e-6 : 0.0,
                 win.events, static_cast<unsigned long long>(win.digest),
                 w + 1 < run.windows.size() ? "," : "");
  }
}

void print_table() {
  std::printf("\nDuty-cycle engine: recurring chaos, all-serial vs "
              "alternating (%u shards between windows, %u hardware "
              "threads, %zu interleaved trials, median)\n",
              kShards, std::thread::hardware_concurrency(), kTrials);
  Table table({"n", "sched", "windows", "migrations", "events",
               "serial Mev/s", "alternating Mev/s", "speedup",
               "alternating s min..max", "migration us", "digest parity"});
  constexpr ShardSched kScheds[] = {ShardSched::kStatic, ShardSched::kSteal};
  std::vector<Row> rows;
  for (const std::uint32_t n : {32u, 128u}) {
    std::vector<Scenario> configs{duty_scenario(n, 0)};
    for (const ShardSched sched : kScheds) {
      configs.push_back(duty_scenario(n, kShards, sched));
    }
    const std::vector<Trials> runs =
        run_interleaved<EngineRun>(configs, kTrials, run_engine);
    for (std::size_t m = 0; m < std::size(kScheds); ++m) {
      Row row;
      row.n = n;
      row.sched = kScheds[m];
      row.serial_trials = runs[0];
      row.alternating_trials = runs[m + 1];
      char serial_s[32], alt_s[32], speedup_s[32], range_s[48], mig_s[32];
      std::snprintf(serial_s, sizeof serial_s, "%.2f",
                    row.serial_trials.events_per_sec() / 1e6);
      std::snprintf(alt_s, sizeof alt_s, "%.2f",
                    row.alternating_trials.events_per_sec() / 1e6);
      std::snprintf(speedup_s, sizeof speedup_s, "%.2fx", row.speedup());
      std::snprintf(range_s, sizeof range_s, "%.4f..%.4f",
                    row.alternating_trials.wall().min,
                    row.alternating_trials.wall().max);
      std::snprintf(
          mig_s, sizeof mig_s, "%.1f",
          double(row.alternating_trials.migration_ns_median()) * 1e-3);
      table.add_row({std::to_string(n), to_string(row.sched),
                     std::to_string(row.alternating().windows.size()),
                     std::to_string(row.alternating().migrations),
                     Table::fmt_int(row.serial().events), serial_s, alt_s,
                     speedup_s, range_s, mig_s,
                     row.parity() ? "yes" : "NO — BUG"});
      rows.push_back(row);
    }
  }
  table.print();
  std::printf("(parity is the hard gate: the alternating run — %zu engine "
              "switches on the first row — must be bit-identical to "
              "all-serial in every trial, per-window digests included.)\n",
              rows.front().alternating().migrations);

  // Per-window stabilization of the multi-cycle row: what the paper's
  // repeated-convergence claims actually measure.
  std::printf("\nStabilization per chaos window (n=%u, alternating):\n",
              rows.front().n);
  Table wt({"window", "chaos (ms)", "recovery (ms)", "events", "digest"});
  const std::vector<WindowStabilization>& windows =
      rows.front().alternating().windows;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowStabilization& win = windows[w];
    char span[48], digest[32];
    std::snprintf(span, sizeof span, "[%.1f, %.1f)",
                  double((win.chaos_start - RealTime::zero()).ns()) * 1e-6,
                  double((win.chaos_end - RealTime::zero()).ns()) * 1e-6);
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(win.digest));
    wt.add_row({std::to_string(w), span,
                win.recovery ? Table::fmt_ms(double(win.recovery->ns()))
                             : "no recovery",
                std::to_string(win.events), digest});
  }
  wt.print();

  bool all_parity = true;
  for (const Row& row : rows) all_parity = all_parity && row.parity();

  if (std::FILE* out = std::fopen("BENCH_dutycycle.json", "w")) {
    std::fprintf(out, "{\n  \"shards\": %u,\n  \"hardware_threads\": %u,\n",
                 kShards, std::thread::hardware_concurrency());
    std::fprintf(out, "  \"digest_parity\": %s,\n",
                 all_parity ? "true" : "false");
    std::fprintf(out, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      // Dispatch time = median wall time minus the engine switches'
      // export → adopt → re-register span.
      const std::uint64_t migration_ns =
          row.alternating_trials.migration_ns_median();
      const auto wall_ns =
          std::uint64_t(row.alternating_trials.wall().median * 1e9);
      std::fprintf(out,
                   "    {\"n\": %u, \"sched\": \"%s\", \"windows\": %zu, "
                   "\"migrations\": %zu, \"events\": %llu, "
                   "\"serial_events_per_sec\": %.0f, "
                   "\"alternating_events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"trials\": %zu, ",
                   row.n, to_string(row.sched),
                   row.alternating().windows.size(),
                   row.alternating().migrations,
                   static_cast<unsigned long long>(row.serial().events),
                   row.serial_trials.events_per_sec(),
                   row.alternating_trials.events_per_sec(), row.speedup(),
                   row.alternating_trials.wall_s.size());
      write_spread(out, "serial_wall_s", row.serial_trials.wall());
      std::fprintf(out, ", ");
      write_spread(out, "alternating_wall_s", row.alternating_trials.wall());
      std::fprintf(out,
                   ", \"migration_ns\": %llu, \"dispatch_ns\": %llu, "
                   "\"parity\": %s}%s\n",
                   static_cast<unsigned long long>(migration_ns),
                   static_cast<unsigned long long>(
                       wall_ns > migration_ns ? wall_ns - migration_ns : 0),
                   row.parity() ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"stabilization_windows\": [\n");
    append_windows_json(out, rows.front().alternating());
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("(wrote BENCH_dutycycle.json)\n");
  }

  if (!all_parity) {
    std::fprintf(stderr, "bench_dutycycle: DIGEST PARITY FAILED\n");
    std::exit(1);
  }
}

void BM_DutyCycle(benchmark::State& state) {
  const auto n = std::uint32_t(state.range(0));
  const auto shards = std::uint32_t(state.range(1));
  EngineRun run;
  for (auto _ : state) run = run_engine(duty_scenario(n, shards));
  state.counters["Mev_per_sec"] = run.events_per_sec / 1e6;
  state.counters["migrations"] = double(run.migrations);
}
BENCHMARK(BM_DutyCycle)
    ->Args({32, 0})
    ->Args({32, kShards})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssbft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ssbft::print_table();
  return 0;
}
