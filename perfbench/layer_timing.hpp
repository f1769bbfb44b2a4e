// Outside-in layer timing for the traced benchmark run.
//
// The simulator has no in-program cost ledger yet, so the traced run times
// the calls INTO each layer from the benchmark's own code: every behaviour
// (protocol stack and adversary alike) is wrapped in a TimedBehavior that
// hands the inner behaviour a forwarding NodeContext. The wrapper times the
// engine → behaviour callbacks (on_message by MsgKind, on_timer) and the
// behaviour → engine calls (send, send_all, set_timer*, cancel_timer).
// Everything is forwarded unchanged, so a traced run must reproduce the
// untraced run's digest bit for bit — run.py checks exactly that.
//
// Accumulators are per thread (shard workers run concurrently) and are
// folded after the run, when every worker has been joined.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "harness/stack_registry.hpp"
#include "sim/node.hpp"
#include "sim/wire.hpp"

namespace perfbench {

inline constexpr std::size_t kKinds = std::size_t(ssbft::MsgKind::kNumKinds);

/// Totals of one thread (or, from fold_totals, of the whole run). Times in
/// ns.
struct LayerTotals {
  std::uint64_t handler_ns = 0;  // inside any callback, nested calls included
  std::array<std::uint64_t, kKinds> msg_calls{};
  std::array<std::uint64_t, kKinds> msg_self_ns{};
  std::uint64_t timer_calls = 0;    // on_timer callbacks into correct nodes
  std::uint64_t timer_self_ns = 0;
  std::uint64_t adv_ns = 0;         // inside Byzantine callbacks
  std::uint64_t send_calls = 0;     // send + send_all, every node
  std::uint64_t send_ns = 0;
  std::uint64_t correct_sent = 0;   // wire copies admitted for correct nodes
  std::uint64_t arm_calls = 0;      // set_timer + set_timer_after
  std::uint64_t cancel_calls = 0;
  std::uint64_t timer_api_ns = 0;   // inside set_timer*/cancel_timer

  LayerTotals& operator+=(const LayerTotals& o);
};

/// Zero every thread's accumulator (call with no engine running).
void reset_totals();
/// Sum every thread's accumulator (call after the run has returned).
[[nodiscard]] LayerTotals fold_totals();

/// Wraps one node's behaviour; see the file comment.
class TimedBehavior final : public ssbft::NodeBehavior {
 public:
  /// `byzantine` routes callback time to LayerTotals::adv_ns instead of the
  /// per-kind handler buckets. `origin_copies` is how many wire copies one
  /// send_all from this node admits under the deployed topology.
  TimedBehavior(std::unique_ptr<ssbft::NodeBehavior> inner, bool byzantine,
                std::uint32_t origin_copies);
  // The inner behaviour keeps the address of context_.
  TimedBehavior(const TimedBehavior&) = delete;
  TimedBehavior& operator=(const TimedBehavior&) = delete;

  [[nodiscard]] ssbft::NodeBehavior& inner() { return *inner_; }

  void on_start(ssbft::NodeContext& ctx) override;
  void on_message(ssbft::NodeContext& ctx,
                  const ssbft::WireMessage& msg) override;
  void on_timer(ssbft::NodeContext& ctx, std::uint64_t cookie) override;
  void scramble(ssbft::NodeContext& ctx, ssbft::Rng& rng) override;
  void rebind(ssbft::NodeContext& ctx) override;

 private:
  class Context final : public ssbft::NodeContext {
   public:
    Context(bool byzantine, std::uint32_t origin_copies)
        : byzantine_(byzantine), origin_copies_(origin_copies) {}
    void point_at(ssbft::NodeContext& ctx) { inner_ = &ctx; }

    [[nodiscard]] ssbft::NodeId id() const override { return inner_->id(); }
    [[nodiscard]] std::uint32_t n() const override { return inner_->n(); }
    [[nodiscard]] ssbft::LocalTime local_now() const override {
      return inner_->local_now();
    }
    void send(ssbft::NodeId dest, ssbft::WireMessage msg) override;
    void send_all(ssbft::WireMessage msg) override;
    ssbft::TimerHandle set_timer(ssbft::LocalTime when,
                                 std::uint64_t cookie) override;
    ssbft::TimerHandle set_timer_after(ssbft::Duration local_delay,
                                       std::uint64_t cookie) override;
    bool cancel_timer(ssbft::TimerHandle handle) override;
    ssbft::Rng& rng() override { return inner_->rng(); }
    ssbft::Logger& log() override { return inner_->log(); }

   private:
    ssbft::NodeContext* inner_ = nullptr;
    bool byzantine_;
    std::uint32_t origin_copies_;
  };

  /// Runs `call` as one callback: total time, minus nested engine calls,
  /// lands in `self_ns` (or adv_ns for a Byzantine node).
  template <class Call>
  void timed_callback(ssbft::NodeContext& ctx, std::uint64_t* calls,
                      std::uint64_t* self_ns, Call&& call);

  std::unique_ptr<ssbft::NodeBehavior> inner_;
  bool byzantine_;
  Context context_;
};

/// While alive, the registry entry for `kind` builds TimedBehavior-wrapped
/// nodes and its injector unwraps them; the destructor restores the entry.
class WrapStack {
 public:
  WrapStack(ssbft::StackKind kind, std::uint32_t n,
            const ssbft::TopologyConfig& topology);
  ~WrapStack();
  WrapStack(const WrapStack&) = delete;
  WrapStack& operator=(const WrapStack&) = delete;

 private:
  ssbft::StackKind kind_;
  ssbft::StackEntry saved_;
};

}  // namespace perfbench
