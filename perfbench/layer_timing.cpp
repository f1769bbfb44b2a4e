#include "layer_timing.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/topology.hpp"

namespace perfbench {

using namespace ssbft;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t since_ns(Clock::time_point t0) {
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// One accumulator per thread that ever ran a wrapped call. Shard workers
/// are spawned per run call and die afterwards, so accumulators are owned
/// here (not by the thread) and survive it; fold_totals reads them after
/// the engine has joined its workers.
struct Registry {
  std::mutex mutex;  // guards `slots`
  std::vector<std::unique_ptr<LayerTotals>> slots;
};

Registry& registry() {
  static Registry r;
  return r;
}

LayerTotals& local() {
  thread_local LayerTotals* mine = [] {
    Registry& r = registry();
    const std::scoped_lock lock(r.mutex);
    r.slots.push_back(std::make_unique<LayerTotals>());
    return r.slots.back().get();
  }();
  return *mine;
}

/// Engine calls (send/timer) made inside the current callback, so the
/// callback's self time can exclude them.
thread_local std::uint64_t tl_nested_ns = 0;

/// Wire copies one send_all from `from` admits under `topology`.
std::uint32_t origin_copies(const TopologyConfig& topology, std::uint32_t n,
                            NodeId from) {
  std::uint32_t copies = 0;
  topology_origin_targets(topology, n, from,
                          [&](NodeId, std::uint8_t) { ++copies; });
  return copies;
}

}  // namespace

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  handler_ns += o.handler_ns;
  for (std::size_t k = 0; k < kKinds; ++k) {
    msg_calls[k] += o.msg_calls[k];
    msg_self_ns[k] += o.msg_self_ns[k];
  }
  timer_calls += o.timer_calls;
  timer_self_ns += o.timer_self_ns;
  adv_ns += o.adv_ns;
  send_calls += o.send_calls;
  send_ns += o.send_ns;
  correct_sent += o.correct_sent;
  arm_calls += o.arm_calls;
  cancel_calls += o.cancel_calls;
  timer_api_ns += o.timer_api_ns;
  return *this;
}

void reset_totals() {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  for (auto& slot : r.slots) *slot = LayerTotals{};
}

LayerTotals fold_totals() {
  Registry& r = registry();
  const std::scoped_lock lock(r.mutex);
  LayerTotals sum;
  for (const auto& slot : r.slots) sum += *slot;
  return sum;
}

// --- forwarding context ------------------------------------------------------

void TimedBehavior::Context::send(NodeId dest, WireMessage msg) {
  const auto t0 = Clock::now();
  inner_->send(dest, std::move(msg));
  const std::uint64_t dt = since_ns(t0);
  LayerTotals& acc = local();
  ++acc.send_calls;
  acc.send_ns += dt;
  if (!byzantine_) ++acc.correct_sent;
  tl_nested_ns += dt;
}

void TimedBehavior::Context::send_all(WireMessage msg) {
  const auto t0 = Clock::now();
  inner_->send_all(std::move(msg));
  const std::uint64_t dt = since_ns(t0);
  LayerTotals& acc = local();
  ++acc.send_calls;
  acc.send_ns += dt;
  if (!byzantine_) acc.correct_sent += origin_copies_;
  tl_nested_ns += dt;
}

TimerHandle TimedBehavior::Context::set_timer(LocalTime when,
                                              std::uint64_t cookie) {
  const auto t0 = Clock::now();
  const TimerHandle handle = inner_->set_timer(when, cookie);
  const std::uint64_t dt = since_ns(t0);
  LayerTotals& acc = local();
  ++acc.arm_calls;
  acc.timer_api_ns += dt;
  tl_nested_ns += dt;
  return handle;
}

TimerHandle TimedBehavior::Context::set_timer_after(Duration local_delay,
                                                    std::uint64_t cookie) {
  const auto t0 = Clock::now();
  const TimerHandle handle = inner_->set_timer_after(local_delay, cookie);
  const std::uint64_t dt = since_ns(t0);
  LayerTotals& acc = local();
  ++acc.arm_calls;
  acc.timer_api_ns += dt;
  tl_nested_ns += dt;
  return handle;
}

bool TimedBehavior::Context::cancel_timer(TimerHandle handle) {
  const auto t0 = Clock::now();
  const bool cancelled = inner_->cancel_timer(handle);
  const std::uint64_t dt = since_ns(t0);
  LayerTotals& acc = local();
  ++acc.cancel_calls;
  acc.timer_api_ns += dt;
  tl_nested_ns += dt;
  return cancelled;
}

// --- wrapped behaviour -------------------------------------------------------

TimedBehavior::TimedBehavior(std::unique_ptr<NodeBehavior> inner,
                             bool byzantine, std::uint32_t origin_copies)
    : inner_(std::move(inner)),
      byzantine_(byzantine),
      context_(byzantine, origin_copies) {}

template <class Call>
void TimedBehavior::timed_callback(NodeContext& ctx, std::uint64_t* calls,
                                   std::uint64_t* self_ns, Call&& call) {
  context_.point_at(ctx);
  tl_nested_ns = 0;
  const auto t0 = Clock::now();
  call();
  const std::uint64_t total = since_ns(t0);
  LayerTotals& acc = local();
  acc.handler_ns += total;
  const std::uint64_t self = total > tl_nested_ns ? total - tl_nested_ns : 0;
  tl_nested_ns = 0;
  if (byzantine_) {
    acc.adv_ns += total;
    return;
  }
  if (calls != nullptr) {
    ++*calls;
    *self_ns += self;
  }
}

void TimedBehavior::on_start(NodeContext& ctx) {
  timed_callback(ctx, nullptr, nullptr, [&] { inner_->on_start(context_); });
}

void TimedBehavior::on_message(NodeContext& ctx, const WireMessage& msg) {
  LayerTotals& acc = local();
  // A fault-injector plant may carry any kind byte; out-of-range kinds
  // share the last bucket rather than index past it.
  const std::size_t k = std::min(std::size_t(msg.kind), kKinds - 1);
  timed_callback(ctx, &acc.msg_calls[k], &acc.msg_self_ns[k],
                 [&] { inner_->on_message(context_, msg); });
}

void TimedBehavior::on_timer(NodeContext& ctx, std::uint64_t cookie) {
  LayerTotals& acc = local();
  timed_callback(ctx, &acc.timer_calls, &acc.timer_self_ns,
                 [&] { inner_->on_timer(context_, cookie); });
}

void TimedBehavior::scramble(NodeContext& ctx, Rng& rng) {
  context_.point_at(ctx);
  inner_->scramble(context_, rng);
}

void TimedBehavior::rebind(NodeContext& ctx) {
  context_.point_at(ctx);
  inner_->rebind(context_);
}

// --- registry swap -----------------------------------------------------------

WrapStack::WrapStack(StackKind kind, std::uint32_t n,
                     const TopologyConfig& topology)
    : kind_(kind), saved_(StackRegistry::instance().entry(kind)) {
  StackFactory factory = [inner = saved_.factory, n,
                          topology](const StackBuild& build) {
    return std::unique_ptr<NodeBehavior>(std::make_unique<TimedBehavior>(
        inner(build), /*byzantine=*/false,
        origin_copies(topology, n, build.id)));
  };
  StackInjector injector;
  if (saved_.injector) {
    injector = [inner = saved_.injector](NodeBehavior& behavior, Value value,
                                         const Payload& payload) {
      auto* timed = dynamic_cast<TimedBehavior*>(&behavior);
      return inner(timed != nullptr ? timed->inner() : behavior, value,
                   payload);
    };
  }
  StackRegistry::instance().add(kind, std::move(factory), std::move(injector));
}

WrapStack::~WrapStack() {
  StackRegistry::instance().add(kind_, saved_.factory, saved_.injector);
}

}  // namespace perfbench
