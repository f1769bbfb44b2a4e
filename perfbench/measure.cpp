// perfbench_measure — runs one benchmark workload through the public
// Scenario → Cluster path and prints one JSON record per line on stdout.
//
//   perfbench_measure --workload NAME --seed S --seconds T --mode plain|layers
//
// A workload is one or more scenarios; a repeat runs each once, in order.
//
// plain   set-up-only constructions, stabilization probes for the chaos
//         workload, then repeats, held to one CPU: at least two, more
//         until T seconds are spent. One "setup" record per construction, one "probe" record
//         per probe, one "run" record per scenario run (timing, peak
//         memory, outcome checks, simulated-time metrics), one "process"
//         record (provenance).
// layers  rounds of {untraced run, traced run, serial twin for sharded
//         scenarios} per scenario, alternating the twin's position, until
//         T seconds are spent. One "run" record per untraced run and one
//         "layers" record per round (per-layer metrics summed over the
//         scenarios, digests of every run).
//
// run.py turns these records into the benchmark's result line and decides
// pass/fail; this program only measures and reports.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/adversaries.hpp"
#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "harness/stats_registry.hpp"
#include "harness/trace.hpp"  // SSBFT_TRACING
#include "layer_timing.hpp"
#include "sim/payload.hpp"

namespace {

using namespace ssbft;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Restart the resident-memory high-water mark at the current resident
/// size (Linux ≥ 4.0); where that is not possible it stays the process's.
/// Freed heap is handed back first, so the mark does not start from what
/// earlier runs left in malloc's free lists.
void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// The resident-memory high-water mark: VmHWM, which reset_peak_rss
/// restarts (ru_maxrss keeps the peak of exited shard threads), else
/// ru_maxrss.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return double(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- workloads --------------------------------------------------------------
//
// Why each one exists is documented in README.md next to this file.

/// Shards for the sharded workloads: one per vCPU of a 4-vCPU host. The
/// timed end-to-end runs hold all of them on one CPU (pin_to_current_cpu);
/// the traced rounds run them free, so the serial twin measures speed-up.
constexpr std::uint32_t kShards = 4;

/// A sharded workload's link delay: `floor` is the lookahead the windowed
/// engine needs; the exponential tail has the shape of `ssbft_cli
/// --link-min-us`.
DelayModel floored_delay(Duration floor, Duration delta) {
  return DelayModel::exp_truncated(floor, std::min(floor + delta / 5, delta),
                                   delta);
}

/// `count` agreement proposals by General 0, one ∆0 + 5d apart, starting
/// 1 ms after `start`; returns the horizon (120 ms past the last gap).
Duration agree_proposals(Scenario& sc, std::uint32_t count, Duration start) {
  const Params params = sc.make_params();
  const Duration gap = params.delta_0() + 5 * params.d();
  for (std::uint32_t i = 0; i < count; ++i) {
    sc.with_proposal(start + milliseconds(1) + i * gap, 0, 100 + Value(i));
  }
  return start + count * gap + milliseconds(120);
}

constexpr std::uint32_t kLogCommands = 40;
constexpr Duration kLogSubmitEvery = milliseconds(50);
constexpr Duration kLogDrain = milliseconds(3000);
constexpr std::uint32_t kFederatedClusterSize = 8;
constexpr Value kPhantom = 666;  // forged by byz_cocktail's quorum faker
constexpr Duration kCocktailHorizon = milliseconds(40);

/// The i-th seed derived from the benchmark's seed; the 0th is the seed
/// itself.
std::uint64_t derived_seed(std::uint64_t seed, std::uint32_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix64 finaliser
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// byz_cocktail's scenarios per repeat, each under its own derived seed.
/// The storm's size depends on the seed: one seed's wall time moved by 8%
/// between runs, but by 26% from seed to seed.
constexpr std::uint32_t kCocktailSeeds = 4;

struct Workload {
  /// The scenarios one repeat runs, in order. The first is the primary
  /// scenario: only it supplies latency samples and, without chaos, the
  /// stabilization span.
  std::vector<Scenario> scenarios;
  /// Byzantine nodes run StressTest.MixedAdversaryCocktail's adversaries
  /// instead of the scenario's own.
  bool cocktail = false;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Scenario sc;
  sc.seed = seed;
  if (name == "agree_flat_serial") {
    sc.n = 64;
    sc.f = 21;
    sc.with_tail_faults(21);
    sc.adversary = AdversaryKind::kNoise;
    sc.run_for = agree_proposals(sc, 20, Duration::zero());
    return {{sc}};
  }
  if (name == "log_pipeline_sharded") {
    sc.stack = StackKind::kPipelinedLog;
    sc.n = 32;
    sc.f = 10;
    sc.with_tail_faults(10);
    sc.adversary = AdversaryKind::kNoise;
    sc.pipeline.depth = 8;
    sc.auth = AuthKind::kHmac;
    sc.payload_bytes = 256;
    sc.shards = kShards;
    // The smallest floor, so windows are sparse and barrier cost shows.
    sc.link_delay = floored_delay(microseconds(100), sc.delta);
    // Open loop: one command every kLogSubmitEvery, round-robin over the
    // correct nodes (a command routed to a Byzantine replica would be
    // dropped at injection); the horizon leaves kLogDrain after the last.
    std::vector<NodeId> correct;
    for (NodeId id = 0; id < sc.n; ++id) {
      if (!sc.is_byzantine(id)) correct.push_back(id);
    }
    for (std::uint32_t i = 0; i < kLogCommands; ++i) {
      sc.with_proposal(i * kLogSubmitEvery, correct[i % correct.size()],
                       100 + Value(i));
    }
    sc.run_for = kLogCommands * kLogSubmitEvery + kLogDrain;
    // The same log under federated relays. It completes well under half
    // its commands (the federated commit shortfall), and which ones, and
    // when, changes so much from seed to seed that its latency cannot hold
    // a bound; so the flat run is primary and the federated run adds its
    // completions, wall time and relays. README.md has the numbers.
    Scenario federated = sc;
    federated.topology = Topology::kFederated;
    federated.cluster_size = kFederatedClusterSize;
    return {{sc, federated}};
  }
  if (name == "chaos_duty") {
    sc.n = 64;
    sc.f = 21;
    sc.with_tail_faults(21);
    sc.adversary = AdversaryKind::kNoise;
    sc.transient_scramble = true;
    sc.chaos_period = milliseconds(10);
    sc.chaos_count = 8;
    sc.chaos_duty = milliseconds(50);
    sc.shards = kShards;
    // Dense windows: with a 100 µs floor this scenario ran 30.8 k windows
    // of 250 events, and minutes-long host episodes that slow barrier
    // wake-ups moved its wall time by 30–40% from run to run; 400 µs gives
    // 8.2 k windows of 950 events. The log measures sparse windows.
    sc.link_delay = floored_delay(microseconds(400), sc.delta);
    // Workload after the first window plus ∆stb; the horizon reaches ∆stb
    // past the last window so its recovery span is observed.
    const Params params = sc.make_params();
    const Duration start = sc.chaos_period + params.delta_stb();
    const Duration last_end =
        (sc.chaos_count - 1) * sc.chaos_duty + sc.chaos_period;
    sc.run_for = std::max(agree_proposals(sc, 20, start),
                          last_end + params.delta_stb());
    return {{sc}};
  }
  if (name == "byz_cocktail") {
    // Serial engine; nodes 9–12 are Byzantine, each with another attack
    // (see cocktail_adversary). Two waves of proposals, one by every
    // correct General per wave. The horizon stops at 40 ms: the storm
    // grows with time, and by then Byzantine sends are most of the wire.
    // kCocktailSeeds copies under different seeds.
    sc.n = 13;
    sc.f = 4;
    sc.byz_nodes = {9, 10, 11, 12};
    const Params params = sc.make_params();
    const Duration gap = params.delta_0() + 5 * params.d();
    for (std::uint32_t wave = 0; wave < 2; ++wave) {
      for (NodeId general = 0; general < 9; ++general) {
        sc.with_proposal(milliseconds(1) + wave * gap, general,
                         50 + Value(16 * wave + general));
      }
    }
    sc.run_for = kCocktailHorizon;
    Workload cocktail{{}, /*cocktail=*/true};
    for (std::uint32_t i = 0; i < kCocktailSeeds; ++i) {
      cocktail.scenarios.push_back(sc);
      cocktail.scenarios.back().seed = derived_seed(seed, i);
    }
    return cocktail;
  }
  return {};
}

/// byz_cocktail's attacker on Byzantine node 9 + k: noise flood, replay,
/// quorum forging of the phantom value for General 0, and an equivocating
/// would-be General.
std::unique_ptr<NodeBehavior> cocktail_adversary(std::size_t k) {
  switch (k) {
    case 0:
      return std::make_unique<RandomNoiseAdversary>(microseconds(400));
    case 1:
      return std::make_unique<ReplayAdversary>(milliseconds(6));
    case 2:
      return std::make_unique<QuorumFaker>(GeneralId{0}, kPhantom,
                                           milliseconds(1),
                                           std::vector<NodeId>{0, 1, 2, 3});
    default:
      return std::make_unique<EquivocatingGeneral>(70, 71, milliseconds(4));
  }
}

/// Seeds of the stabilization probes. One scenario has only 8 chaos
/// windows, and the median of their recovery times moved by 90% of itself
/// from seed to seed (quartile spread over five seeds); pooled over 32
/// seeds it still moved by 10% over ten.
constexpr std::uint32_t kProbeSeeds = 48;

/// Every chaos window's recovery span: the gap to the next window. The
/// last window gets the same length, so a probe cut at its end sees the
/// same spans as the full run.
Duration recovery_span(const Scenario& sc) {
  const std::vector<ChaosWindow> windows = sc.chaos_windows();
  return windows.size() > 1
             ? windows[1].start - windows[0].end
             : (RealTime::zero() + sc.run_for) - windows[0].end;
}

/// A stabilization probe: the chaos scenario under another seed, cut at
/// the end of its last window's recovery span. Every record up to the cut
/// is the full run's, so the windows recover exactly as they would in it,
/// at a twentieth of the cost.
Scenario stabilization_probe(const Scenario& full, std::uint64_t seed) {
  Scenario sc = full;
  sc.seed = seed;
  const std::vector<ChaosWindow> windows = sc.chaos_windows();
  sc.run_for = windows.back().end + recovery_span(sc) - RealTime::zero();
  return sc;
}

/// Construct the deployment and install the cocktail's adversaries.
/// Traced builds wrap every behaviour: the stack through the registry
/// (WrapStack, held by the caller), the adversaries by installing them
/// wrapped — the other workloads run Cluster's kNoise adversary, so they
/// get identical ones re-installed before start.
std::unique_ptr<Cluster> build(const Scenario& sc, bool cocktail,
                               bool traced) {
  auto cluster = std::make_unique<Cluster>(sc);
  if (!cocktail && !traced) return cluster;
  for (std::size_t k = 0; k < sc.byz_nodes.size(); ++k) {
    std::unique_ptr<NodeBehavior> adversary =
        cocktail ? cocktail_adversary(k)
                 : std::make_unique<RandomNoiseAdversary>(sc.adversary_period);
    if (traced) {
      adversary = std::make_unique<perfbench::TimedBehavior>(
          std::move(adversary), /*byzantine=*/true, 0);
    }
    cluster->world().set_behavior(sc.byz_nodes[k], std::move(adversary));
  }
  return cluster;
}

// --- outcome ----------------------------------------------------------------

struct Outcome {
  bool pass = false;
  std::uint32_t agreement_violations = 0;
  std::uint32_t validity_violations = 0;
  std::uint32_t phantom_decisions = 0;  // decisions of kPhantom
  std::uint64_t digest = 0;
  std::vector<double> latency_ms;  // the workload's primary latency samples
  std::uint32_t completed = 0;     // injected operations done everywhere
  std::uint32_t injected = 0;
  std::vector<double> stabilize_ms;  // one per recovery span
  double eval_s = 0;
  std::uint64_t probe_records = 0;
};

/// Agreement: an injected proposal completes when every correct node
/// decided its (General, value). Latency samples come from evaluate_stack.
void judge_agreement(Cluster& cluster, const StackOutcome& stack,
                     Outcome& out) {
  for (const double ns : stack.latency_ns) {
    out.latency_ms.push_back(ns * 1e-6);
  }
  std::map<std::pair<NodeId, Value>, std::set<NodeId>> deciders;
  for (const TimedDecision& d : cluster.decisions()) {
    if (d.decision.decided()) {
      deciders[{d.decision.general.node, d.decision.value}].insert(
          d.decision.node);
    }
  }
  for (const Scenario::Proposal& p : cluster.scenario().proposals) {
    const auto it = deciders.find({p.general, p.value});
    if (it != deciders.end() &&
        it->second.size() == cluster.correct_count()) {
      ++out.completed;
    }
  }
}

/// Pipelined log: a command completes when every correct node delivered
/// it; each (node, command) delivery is one submit → delivery sample.
void judge_log(Cluster& cluster, Outcome& out) {
  std::map<Value, RealTime> submitted;
  for (const TimedProposal& p : cluster.proposals()) {
    submitted.emplace(p.value, p.real_at);
  }
  std::map<Value, std::set<NodeId>> deliverers;
  for (const TimedDelivery& d : cluster.probe().deliveries()) {
    if (d.entry.skipped) continue;
    const auto it = submitted.find(Value(d.entry.command));
    if (it == submitted.end()) continue;
    out.latency_ms.push_back((d.real_at - it->second).millis());
    deliverers[it->first].insert(d.node);
  }
  for (const Scenario::Proposal& p : cluster.scenario().proposals) {
    const auto it = deliverers.find(p.value);
    if (it != deliverers.end() &&
        it->second.size() == cluster.correct_count()) {
      ++out.completed;
    }
  }
}

/// Time from each recovery span's start to the first primary-stream
/// record, in ms. With chaos, the spans are the windows' recovery spans,
/// each `recovery_span` long (a span with no record counts its full
/// length); without chaos, one span starting at t = 0.
std::vector<double> stabilization_ms(const Cluster& cluster) {
  const Scenario& sc = cluster.scenario();
  const RecordingProbe& probe = cluster.probe();
  std::vector<double> out;
  const auto windows = window_stabilization(sc, probe);
  if (!windows.empty()) {
    const Duration span = recovery_span(sc);
    for (const WindowStabilization& w : windows) {
      out.push_back(
          (w.recovery ? std::min(*w.recovery, span) : span).millis());
    }
    return out;
  }
  std::optional<RealTime> first;
  const auto see = [&](RealTime t) {
    if (!first || t < *first) first = t;
  };
  if (sc.stack == StackKind::kPipelinedLog) {
    for (const TimedDelivery& d : probe.deliveries()) see(d.real_at);
  } else {
    for (const TimedDecision& d : probe.decisions()) see(d.real_at);
  }
  out.push_back(
      ((first ? *first : RealTime::zero() + sc.run_for) - RealTime::zero())
          .millis());
  return out;
}

Outcome judge(Cluster& cluster) {
  Outcome out;
  const auto t0 = Clock::now();
  const StackOutcome stack = evaluate_stack(cluster);
  out.eval_s = seconds_since(t0);
  out.pass = stack.pass;
  out.digest = stack.digest;
  out.agreement_violations = stack.agreement.agreement_violations;
  // Validity is judged against General proposals. Log submits are not
  // proposals of a decided value (slots carry their own encoding), so for
  // the log the stack's own check — settled slots agree — stands in.
  if (cluster.scenario().stack == StackKind::kAgree) {
    out.validity_violations = stack.agreement.validity_violations;
    for (const TimedDecision& d : cluster.decisions()) {
      if (d.decision.value == kPhantom) ++out.phantom_decisions;
    }
  }
  if (cluster.scenario().stack == StackKind::kPipelinedLog) {
    judge_log(cluster, out);
  } else {
    judge_agreement(cluster, stack, out);
  }
  out.injected = std::uint32_t(cluster.scenario().proposals.size());
  out.stabilize_ms = stabilization_ms(cluster);
  const RecordingProbe& p = cluster.probe();
  out.probe_records = p.decisions().size() + p.proposals().size() +
                      p.pulses().size() + p.adjustments().size() +
                      p.commits().size() + p.deliveries().size();
  return out;
}

// --- JSON lines -------------------------------------------------------------

class Json {
 public:
  explicit Json(const char* type)
      : text_("{\"type\": \"" + std::string(type) + "\"") {}
  Json& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  Json& strs(const std::string& key, const std::vector<std::string>& values) {
    std::string body = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      body += (i ? ", \"" : "\"") + values[i] + "\"";
    }
    return raw(key, body + "]");
  }
  Json& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& list(const std::string& key, const std::vector<double>& values) {
    std::string body = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
      body += buf;
    }
    return raw(key, body + "]");
  }
  void print() {
    std::printf("%s}\n", text_.c_str());
    std::fflush(stdout);
  }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    text_ += ", \"" + key + "\": " + value;
    return *this;
  }
  std::string text_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One untraced whole-scenario run: set-up, run, judge.
struct PlainRun {
  double wall_s = 0;
  double peak_rss_mb = 0;  // construction and run
  std::uint64_t events = 0;
  Outcome outcome;
  StatsRegistry stats;
};

PlainRun plain_run(const Scenario& sc, bool cocktail) {
  PlainRun r;
  reset_peak_rss();
  auto cluster = build(sc, cocktail, /*traced=*/false);
  const auto t0 = Clock::now();
  cluster->run();
  r.wall_s = seconds_since(t0);
  r.peak_rss_mb = peak_rss_mb();
  r.events = cluster->world().dispatched();
  r.outcome = judge(*cluster);
  r.stats = collect_run_stats(*cluster);
  return r;
}

/// `scenario` is the run's index in its workload's scenario list.
void print_run(std::size_t scenario, const PlainRun& r) {
  const Outcome& o = r.outcome;
  Json("run")
      .num("scenario", double(scenario))
      .num("wall_s", r.wall_s)
      .num("peak_rss_mb", r.peak_rss_mb)
      .str("digest", hex(o.digest))
      .boolean("pass", o.pass)
      .num("agreement_violations", o.agreement_violations)
      .num("validity_violations", o.validity_violations)
      .num("phantom_decisions", o.phantom_decisions)
      .num("completed", o.completed)
      .num("injected", o.injected)
      .list("latency_ms", o.latency_ms)
      .list("stabilize_ms", o.stabilize_ms)
      .print();
}

/// Stop starting runs once the next one (estimated from the slowest so
/// far) would end past the budget.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds), t0_(Clock::now()) {}
  [[nodiscard]] bool another(double estimate) const {
    return seconds_since(t0_) + estimate <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point t0_;
};

// Set-up takes tens of microseconds, so its median needs many samples.
constexpr int kSetupPerCpu = 101;

/// `cpu`: the one CPU the timed runs were held to, -1 for none.
void print_process(const Scenario& primary, int cpu) {
  Json("process")
      .num("hardware_threads", std::thread::hardware_concurrency())
      .num("shards", Cluster(primary).shards())
      .num("pinned_cpu", cpu)
      .print();
}

/// Set-up-only constructions of every scenario of the workload, on every
/// CPU the process may use, one CPU at a time. On a shared host one vCPU
/// can run set-up 1.6× faster than the others for minutes, so a process
/// measuring on whichever vCPU it landed on would see a different figure
/// from run to run. run.py averages the per-CPU medians.
void measure_setup(const Workload& workload) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    CPU_SET(0, &allowed);  // affinity unknown: measure on CPU 0 alone
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    std::thread worker([&workload, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      // A failed pin leaves this pass unpinned; its samples still count.
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      for (int i = 0; i < kSetupPerCpu; ++i) {
        std::vector<std::unique_ptr<Cluster>> built;  // destroyed untimed
        built.reserve(workload.scenarios.size());
        const auto t0 = Clock::now();
        for (const Scenario& sc : workload.scenarios) {
          built.push_back(build(sc, workload.cocktail, /*traced=*/false));
        }
        const double setup_s = seconds_since(t0);
        Json("setup").num("cpu", cpu).num("setup_s", setup_s).print();
      }
    });
    worker.join();
  }
}

/// Restrict the calling thread, and so every shard worker it spawns, to
/// the CPU it is running on. Shard threads on several vCPUs of a shared
/// host need all of them scheduled at once at every window barrier; while
/// the host is busy, a barrier wake-up waits for a halted vCPU to be
/// scheduled again. On 4 shared vCPUs, 2-shard runs took up to 3× as long
/// for minutes at a time while serial runs moved by under 10%. On one vCPU
/// a barrier is a context switch inside the guest, so a sharded run
/// depends on the host as a serial one does. Returns the CPU, or -1 when
/// pinning failed.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0 ? cpu
                                                                       : -1;
}

/// The chaos workload's stabilization probes, one "probe" record each.
void run_probes(const Scenario& full) {
  for (std::uint32_t i = 0; i < kProbeSeeds; ++i) {
    const Scenario sc =
        stabilization_probe(full, derived_seed(full.seed, i));
    auto cluster = build(sc, /*cocktail=*/false, /*traced=*/false);
    cluster->run();
    Json("probe")
        .num("seed", double(sc.seed))
        .list("stabilize_ms", stabilization_ms(*cluster))
        .print();
  }
}

/// At least two repeats, so every run of the benchmark checks determinism;
/// more while the budget lasts. A repeat runs every scenario of the
/// workload once, in order.
int run_plain(const Workload& workload, double seconds) {
  const std::vector<Scenario>& scenarios = workload.scenarios;
  Budget budget(seconds);
  measure_setup(workload);
  if (scenarios.front().chaos_count > 1) run_probes(scenarios.front());
  const int cpu = pin_to_current_cpu();
  double slowest = 0;
  for (int r = 0; r < 2 || budget.another(slowest); ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      print_run(i, plain_run(scenarios[i], workload.cocktail));
    }
    slowest = std::max(slowest, seconds_since(t0));
  }
  print_process(scenarios.front(), cpu);
  return 0;
}

// --- traced rounds ----------------------------------------------------------

double stat(const StatsRegistry& reg, const char* path) {
  const StatsEntry* e = reg.find(path);
  return e != nullptr ? e->value : 0.0;
}

/// The per-kind metric names (MsgKind order).
constexpr const char* kKindNames[perfbench::kKinds] = {
    "initiator",  "support",          "approve",          "ready",
    "bcast_init", "bcast_echo",       "bcast_init_prime", "bcast_echo_prime",
    "tps_general"};

struct TracedRun {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t digest = 0;
  NetworkStats net;
  double pool_copied_bytes = 0;
  perfbench::LayerTotals totals;
};

TracedRun traced_run(const Scenario& sc, bool cocktail) {
  TracedRun r;
  const perfbench::WrapStack wrap(
      sc.stack, sc.n, sc.effective_topology().resolved(sc.n));
  perfbench::reset_totals();
  auto cluster = build(sc, cocktail, /*traced=*/true);
  const std::uint64_t copied0 = payload_pool().bytes_copied();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  cluster->run();
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.pool_copied_bytes = double(payload_pool().bytes_copied() - copied0);
  r.net = cluster->world().net_stats();
  // Cluster::node<T>() cannot see through the wrapper, so no evaluate_stack
  // here: the digest alone, compared against the untraced run's.
  r.digest = run_digest(cluster->probe(), r.net);
  r.totals = perfbench::fold_totals();
  return r;
}

/// The per-layer figures of one round, summed over the workload's
/// scenarios; ratios are formed from the sums when the round is printed.
struct RoundSums {
  std::vector<std::string> untraced, traced, twin;  // digests per scenario
  double events = 0, wall_s = 0, traced_wall_s = 0, traced_cpu_s = 0;
  double twin_wall_s = 0, twin_sharded_wall_s = 0;
  double windows = 0, window_events = 0, measured_windows = 0, steals = 0;
  double imbalance_sum = 0;  // summed over scenarios, averaged on print
  double migrations = 0, migration_ns = 0;
  double queue_peak_bytes = 0, wheel_peak_records = 0;  // maxima
  double pool_copied_bytes = 0, injected = 0;
  double eval_s = 0, probe_records = 0, latency_samples = 0;
  NetworkStats net;
  perfbench::LayerTotals totals;
};

/// One scenario's share of a round: untraced run, traced run and, for a
/// sharded scenario, the serial twin, which runs before the sharded run on
/// odd rounds and after it on even ones (paired and interleaved).
void round_scenario(std::size_t index, const Scenario& sc, bool cocktail,
                    int round, RoundSums& sum) {
  Scenario twin = sc;
  twin.shards = 0;
  const bool sharded = Cluster(sc).sharded();
  std::optional<PlainRun> serial;
  if (sharded && round % 2 == 1) serial = plain_run(twin, cocktail);
  const PlainRun plain = plain_run(sc, cocktail);
  const TracedRun traced = traced_run(sc, cocktail);
  if (sharded && round % 2 == 0) serial = plain_run(twin, cocktail);
  print_run(index, plain);

  const Outcome& o = plain.outcome;
  const StatsRegistry& st = plain.stats;
  sum.untraced.push_back(hex(o.digest));
  sum.traced.push_back(hex(traced.digest));
  sum.twin.push_back(hex(serial ? serial->outcome.digest : o.digest));
  sum.events += double(plain.events);
  sum.wall_s += plain.wall_s;
  sum.traced_wall_s += traced.wall_s;
  sum.traced_cpu_s += traced.cpu_s;
  if (serial) {
    sum.twin_wall_s += serial->wall_s;
    sum.twin_sharded_wall_s += plain.wall_s;
  }
  sum.windows += stat(st, "sched.windows");
  sum.window_events += stat(st, "sched.window_events");
  sum.measured_windows += stat(st, "sched.measured_windows");
  sum.steals += stat(st, "sched.steals");
  sum.imbalance_sum += stat(st, "sched.imbalance_mean");
  sum.migrations += stat(st, "duty.migrations");
  sum.migration_ns += stat(st, "duty.migration_ns");
  sum.queue_peak_bytes =
      std::max(sum.queue_peak_bytes, stat(st, "queue.peak_bytes"));
  sum.wheel_peak_records =
      std::max(sum.wheel_peak_records, stat(st, "wheel.peak_records"));
  sum.pool_copied_bytes += traced.pool_copied_bytes;
  sum.injected += double(sc.proposals.size());
  sum.eval_s += o.eval_s;
  sum.probe_records += double(o.probe_records);
  if (index == 0) sum.latency_samples = double(o.latency_ms.size());
  sum.net += traced.net;
  sum.totals += traced.totals;
}

void print_round(const RoundSums& s, std::size_t scenarios) {
  const perfbench::LayerTotals& t = s.totals;
  const double byz_sent = double(s.net.sent) - double(t.correct_sent);
  const double handler_s = double(t.handler_ns) * 1e-9;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  Json layers("layers");
  layers.strs("digest_untraced", s.untraced)
      .strs("digest_traced", s.traced)
      .strs("digest_twin", s.twin)
      .num("engine.events", s.events)
      .num("engine.events_per_s", s.events / s.wall_s)
      .num("engine.handler_busy_s", handler_s)
      .num("engine.dispatch_s", std::max(0.0, s.traced_cpu_s - handler_s))
      .num("engine.speedup_vs_serial",
           ratio(s.twin_wall_s, s.twin_sharded_wall_s))
      .num("engine.twin_serial_wall_s", s.twin_wall_s)
      .num("engine.twin_sharded_wall_s", s.twin_sharded_wall_s)
      .num("sched.windows", s.windows)
      .num("sched.events_per_window",
           ratio(s.window_events, s.measured_windows))
      .num("sched.steals", s.steals)
      .num("sched.imbalance_mean", s.imbalance_sum / double(scenarios))
      .num("duty.migrations", s.migrations)
      .num("duty.migration_ms", s.migration_ns * 1e-6)
      .num("queue.peak_bytes", s.queue_peak_bytes)
      .num("wheel.peak_records", s.wheel_peak_records)
      .num("net.sent", double(s.net.sent))
      .num("net.delivered", double(s.net.delivered))
      .num("net.dropped", double(s.net.dropped))
      .num("net.auth_rejected", double(s.net.auth_rejected))
      .num("net.send_calls", double(t.send_calls))
      .num("net.send_busy_s", double(t.send_ns) * 1e-9)
      .num("net.copies_per_op", ratio(double(s.net.delivered), s.injected))
      .num("net.payload_bytes", double(s.net.payload_bytes))
      .num("net.pool_copied_bytes", s.pool_copied_bytes)
      .num("net.pool_peak_bytes", double(payload_pool().peak_bytes()))
      .num("net.topology_hops", double(s.net.topology_hops))
      .num("net.fanout_msgs", double(s.net.fanout_msgs))
      .num("timer.arm_calls", double(t.arm_calls))
      .num("timer.cancel_calls", double(t.cancel_calls))
      .num("timer.busy_s", double(t.timer_api_ns) * 1e-9);
  for (std::size_t k = 0; k < perfbench::kKinds; ++k) {
    const std::string base = std::string("core.") + kKindNames[k];
    layers.num(base + ".calls", double(t.msg_calls[k]))
        .num(base + ".self_s", double(t.msg_self_ns[k]) * 1e-9);
  }
  layers.num("core.timer.calls", double(t.timer_calls))
      .num("core.timer.self_s", double(t.timer_self_ns) * 1e-9)
      .num("adv.byz_sent", byz_sent)
      .num("adv.byz_share", ratio(byz_sent, double(s.net.sent)))
      .num("adv.amplification", ratio(double(t.correct_sent), byz_sent))
      .num("adv.busy_s", double(t.adv_ns) * 1e-9)
      .num("harness.eval_s", s.eval_s)
      .num("harness.probe_records", s.probe_records)
      .num("harness.latency_samples", s.latency_samples)
      .num("trace.overhead_frac", s.traced_wall_s / s.wall_s - 1.0)
      .num("trace.wall_s", s.traced_wall_s)
      .print();
}

/// At least one round, more while the budget lasts.
int run_layers(const Workload& workload, double seconds) {
  const std::vector<Scenario>& scenarios = workload.scenarios;
  Budget budget(seconds);
  double slowest = 0;
  int round = 0;
  do {
    const auto t0 = Clock::now();
    RoundSums sums;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      round_scenario(i, scenarios[i], workload.cocktail, round, sums);
    }
    print_round(sums, scenarios.size());
    slowest = std::max(slowest, seconds_since(t0));
    ++round;
  } while (budget.another(slowest));
  print_process(scenarios.front(), -1);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_measure --workload NAME --seed S --seconds T "
               "--mode plain|layers\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') usage();
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || seconds <= 0) usage();
  const Workload chosen = make_workload(workload, seed);
  if (chosen.scenarios.empty()) usage();
  Json("build")
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("ssbft_tracing", SSBFT_TRACING)
      .print();
  if (mode == "plain") return run_plain(chosen, seconds);
  if (mode == "layers") return run_layers(chosen, seconds);
  usage();
}
