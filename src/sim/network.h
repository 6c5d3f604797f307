// The network: one simulator, pluggable delivery schedules.
//
// A Protocol is a distributed algorithm: one object serves all nodes, but
// every callback is scoped to a single node (`self`), and implementations
// must only read/write state indexed by `self` plus the content of received
// messages. Node-local knowledge of the topology is exactly the node's
// alive incident edges (Graph::incident) and its mark bits -- the KT1 model.
//
// Network::run executes one protocol instance to quiescence (no undelivered
// messages) and adds its cost to the accumulated Metrics. Sequential
// compositions (e.g. the loop inside FindMin) just call run repeatedly;
// fragment-parallel compositions (Boruvka phases) wrap their per-fragment
// runs in a ParallelPhase so that elapsed time counts as the max over
// fragments while messages still sum.
//
// Transport mechanics are uniform across schedules: send() places the
// envelope into a pooled queue (slots are recycled through a free ring, so
// steady-state traffic performs no allocation -- messages themselves are
// trivially copyable, see sim/message.h) and the DeliveryPolicy assigns the
// delivery timestamp. drain() delivers in (timestamp, send sequence) order.
// SyncNetwork / AsyncNetwork / AdversarialNetwork are thin policy
// instantiations over this one mechanism.
//
// Fast path: when the policy promises unit delay (FifoSyncPolicy), every
// send lands exactly one round after `now`, so at most two timestamps are
// ever pending -- the round being drained and the next one. The Network then
// bypasses the heap and keeps two contiguous round buckets, swapped once per
// round and drained in append (= send sequence) order, which is exactly the
// (timestamp, seq) order the heap would produce. The buckets keep their
// capacity across operations, preserving the zero-allocation steady state.
// set_round_batching(false) forces the general heap path for any policy
// (the counter bit-identity tests compare both paths).
//
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "sim/delivery_policy.h"
#include "sim/link_state.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace kkt::sim {

using graph::NodeId;

class Network;

class Protocol {
 public:
  virtual ~Protocol() = default;
  // Called once per participant before any message flows.
  virtual void on_start(Network& net, NodeId self) = 0;
  // Called on delivery of a message to `self` from neighbor `from`.
  virtual void on_message(Network& net, NodeId self, NodeId from,
                          const Message& msg) = 0;
  // Whether the protocol tolerates seeded message *loss* (DeliveryPolicy::
  // drop): every handler chain must still reach quiescence and leave the
  // node-local state safe (possibly with a degraded result) when any subset
  // of sends is never delivered. Protocols built on interlocked request/
  // reply phases that deadlock-or-corrupt on a missing reply return false;
  // the Network then degrades loss to plain delay for them (drop() is
  // never consulted, the schedule is bit-identical to the lossless run)
  // and counts the downgrade in Network::loss_degrades(). LinkState outages
  // are exempt: they model topology-shaped faults and apply to every
  // protocol.
  virtual bool loss_safe() const { return true; }
};

class Network {
 public:
  Network(const graph::Graph& g, std::uint64_t seed,
          std::unique_ptr<DeliveryPolicy> policy);
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Sends msg from `from` to `to`. Precondition: an alive edge {from, to}
  // exists (checked). Counted in Metrics.
  void send(NodeId from, NodeId to, const Message& msg);

  // Runs `proto` with the given participants until quiescence; returns the
  // elapsed rounds / virtual time of this operation, which is also added to
  // metrics().rounds. `max_rounds` bounds the execution (protocols that
  // stall, e.g. leader election on a cycle, simply reach quiescence early;
  // the bound is a backstop for tests).
  std::uint64_t run(Protocol& proto, std::span<const NodeId> participants,
                    std::uint64_t max_rounds = kDefaultMaxRounds);

  const graph::Graph& graph() const noexcept { return *graph_; }
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }

  // The delivery schedule in force (e.g. to tighten per-edge bounds on an
  // AdversarialPolicy before an experiment).
  DeliveryPolicy& policy() noexcept { return *policy_; }
  const DeliveryPolicy& policy() const noexcept { return *policy_; }

  // Per-node random stream (deterministic given the network seed).
  util::Rng& node_rng(NodeId v) noexcept { return node_rngs_[v]; }

  // --- fault injection ------------------------------------------------------
  // Link outages (sim/link_state.h): sends along a down link are counted
  // but never delivered, for every protocol and on every delivery path.
  // Mutations are sequential-context only, hence the asserting forwarders.
  const LinkState& links() const noexcept { return links_; }
  void set_link_down(NodeId u, NodeId v) {
    assert(active_ == nullptr && "link mutation during Network::run");
    links_.set_down(u, v);
  }
  void set_link_up(NodeId u, NodeId v) {
    assert(active_ == nullptr && "link mutation during Network::run");
    links_.set_up(u, v);
  }
  void heal_all_links() {
    assert(active_ == nullptr && "link mutation during Network::run");
    links_.all_up();
  }

  // Number of runs in which a lossy policy was degraded to plain delay
  // because the protocol declared loss_safe() == false (tests/fault_test.cc
  // pins the behavior).
  std::uint64_t loss_degrades() const noexcept { return loss_degrades_; }

  // Protocols report their peak per-node scratch footprint (bits) here.
  void report_node_state_bits(std::uint64_t bits) noexcept {
    if (bits > metrics_.peak_node_state_bits) {
      metrics_.peak_node_state_bits = bits;
    }
  }

  // Slow-path knob: disables the round-batched fast path, forcing every
  // operation through the general (timestamp, seq) event heap even under a
  // unit-delay policy. Delivery order -- and therefore every counter -- is
  // identical either way; tests pin that equivalence. Must not be flipped
  // while a run is in progress.
  void set_round_batching(bool enabled) noexcept {
    assert(active_ == nullptr && "set_round_batching during Network::run");
    round_batching_enabled_ = enabled;
  }
  bool round_batching() const noexcept { return round_batching_enabled_; }

  static constexpr std::uint64_t kDefaultMaxRounds = 1u << 26;

 private:
  struct Envelope {
    NodeId from;
    NodeId to;
    Message msg;
  };
  static_assert(std::is_trivially_copyable_v<Envelope>);

  // One pending delivery: a heap entry pointing at a pooled envelope slot.
  struct Event {
    std::uint64_t at;    // delivery timestamp
    std::uint64_t seq;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into pool_
  };

  // Schedules one copy of the envelope at the policy-chosen timestamp.
  void schedule(const Envelope& env);
  // Delivers everything pending; returns the elapsed virtual time.
  std::uint64_t drain(Protocol& proto, std::uint64_t max_rounds);
  // Fast-path drain: per-round buckets instead of the heap (unit delay).
  std::uint64_t drain_rounds(Protocol& proto, std::uint64_t max_rounds);

  // --- pooled envelope queue ----------------------------------------------
  std::uint32_t pool_put(const Envelope& env);
  void pool_release(std::uint32_t slot);
  void heap_push(Event ev);
  Event heap_pop();
  void queue_clear();
  static bool event_later(const Event& a, const Event& b) noexcept {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  const graph::Graph* graph_;
  Metrics metrics_;
  std::vector<util::Rng> node_rngs_;
  std::unique_ptr<DeliveryPolicy> policy_;
  Protocol* active_ = nullptr;  // protocol being run (sends allowed only then)

  std::vector<Envelope> pool_;        // envelope slots, recycled
  std::vector<std::uint32_t> ring_;   // circular FIFO of free slot indices
  std::size_t ring_head_ = 0;         // oldest free slot
  std::size_t ring_count_ = 0;        // number of free slots
  std::vector<Event> heap_;           // binary min-heap on (at, seq)
  std::vector<Envelope> cur_round_;   // fast path: round being delivered
  std::vector<Envelope> next_round_;  // fast path: sends land here (seq order)
  std::uint64_t now_ = 0;             // virtual clock, per-operation
  std::uint64_t seq_ = 0;             // send sequence (monotonic)
  LinkState links_;                   // down/up overlay (fault injection)
  std::uint64_t loss_degrades_ = 0;   // lossy runs degraded to delay
  bool round_batching_enabled_ = true;
  bool fast_path_ = false;            // this run uses the round buckets
  bool loss_active_ = false;          // this run consults policy drop()
};

// Accounts elapsed time for operations that run conceptually in parallel
// (one per fragment in a Boruvka phase): messages sum as usual, but
// metrics().rounds advances by the maximum branch duration instead of the
// sum. Usage:
//   ParallelPhase phase(net);
//   for (frag : fragments) {
//     const auto branch = phase.branch();  // RAII: ends at scope exit
//     ...run ops...
//   }
//   phase.finish();
// A branch left open, or a phase destroyed with begun branches but no
// finish(), would silently corrupt metrics().rounds -- both are asserted
// in debug builds.
class ParallelPhase {
 public:
  // RAII guard for one branch: rewinds the clock on construction, records
  // the branch duration on destruction.
  class BranchScope {
   public:
    explicit BranchScope(ParallelPhase& phase) : phase_(&phase) {
      phase_->begin_branch();
    }
    ~BranchScope() {
      if (phase_ != nullptr) phase_->end_branch();
    }
    BranchScope(BranchScope&& o) noexcept : phase_(o.phase_) {
      o.phase_ = nullptr;
    }
    BranchScope(const BranchScope&) = delete;
    BranchScope& operator=(const BranchScope&) = delete;
    BranchScope& operator=(BranchScope&&) = delete;

   private:
    ParallelPhase* phase_;
  };

  explicit ParallelPhase(Network& net)
      : net_(&net), base_rounds_(net.metrics().rounds) {}

  ~ParallelPhase() {
    assert(!in_branch_ && "ParallelPhase destroyed inside an open branch");
    assert((finished_ || !branched_) &&
           "ParallelPhase destroyed with begun branches but no finish()");
  }

  ParallelPhase(const ParallelPhase&) = delete;
  ParallelPhase& operator=(const ParallelPhase&) = delete;

  [[nodiscard]] BranchScope branch() { return BranchScope(*this); }

  void begin_branch() {
    assert(!in_branch_ && "begin_branch inside an open branch");
    assert(!finished_ && "begin_branch after finish()");
    in_branch_ = true;
    branched_ = true;
    net_->metrics().rounds = base_rounds_;
  }

  void end_branch() {
    assert(in_branch_ && "end_branch without begin_branch");
    in_branch_ = false;
    const std::uint64_t used = net_->metrics().rounds - base_rounds_;
    if (used > max_branch_) max_branch_ = used;
  }

  // Sets total elapsed time to base + max over branches.
  void finish() {
    assert(!in_branch_ && "finish() inside an open branch");
    finished_ = true;
    net_->metrics().rounds = base_rounds_ + max_branch_;
  }

  std::uint64_t max_branch_rounds() const noexcept { return max_branch_; }

 private:
  Network* net_;
  std::uint64_t base_rounds_;
  std::uint64_t max_branch_ = 0;
  bool in_branch_ = false;
  bool branched_ = false;
  bool finished_ = false;
};

}  // namespace kkt::sim
