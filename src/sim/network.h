// The network: one simulator, one delivery schedule per instance.
//
// A Protocol is a distributed algorithm: one object serves all nodes, but
// every callback is scoped to a single node (`self`), and implementations
// must only read/write state indexed by `self` plus the content of received
// messages. Node-local knowledge of the topology is exactly the node's
// alive incident edges (Graph::incident) and its mark bits -- the KT1 model.
//
// Links are reliable: every send is counted once and delivered exactly once,
// in both the synchronous and the asynchronous model, as the paper assumes.
// Transport loss and duplication are outside the model (docs/FAULTS.md);
// topology faults are Graph updates (workload/faults.h), not transport
// events.
//
// Network::run executes one protocol instance to quiescence (no undelivered
// messages) and adds its cost to the accumulated Metrics. Sequential
// compositions (e.g. the loop inside FindMin) just call run repeatedly;
// fragment-parallel compositions (Boruvka phases) wrap their per-fragment
// runs in a ParallelPhase so that elapsed time counts as the max over
// fragments while messages still sum.
//
// Transport mechanics are uniform across schedules: the DeliveryPolicy
// (sim/delivery_policy.h) assigns each send a delivery timestamp `at`, and
// send() appends the envelope to a timing wheel -- a ring of
// bit_ceil(horizon + 1) buckets, where the horizon is the schedule's bound
// on `at - now`. Bucket `at & mask` holds the sends due at `at`. Every
// pending delivery lies in (now, now + horizon], so no two pending
// timestamps share a bucket, and a handler never appends to the bucket
// being delivered. drain() advances the clock one tick at a time and
// delivers each bucket front to back. Append order is send order, so
// deliveries happen in exactly (timestamp, send sequence) order. Buckets
// keep their capacity across operations, so steady-state traffic performs
// no allocation (messages are trivially copyable, see sim/message.h).
//
// The schedule is fixed for the Network's lifetime. The constructor aborts
// unless its horizon lies in [1, 2^20], and sizes the wheel once: two
// buckets, this round and the next, under the synchronous schedule.
//
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "sim/delivery_policy.h"
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
  // Called once per message sent to `self` from neighbor `from`: handlers
  // may rely on exactly-once delivery (only a run cut off by its max_rounds
  // backstop leaves sends undelivered).
  virtual void on_message(Network& net, NodeId self, NodeId from,
                          const Message& msg) = 0;
};

class Network {
 public:
  // Runs `policy`, its draw stream reseeded from `seed`.
  Network(const graph::Graph& g, std::uint64_t seed, DeliveryPolicy policy);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Sends msg from `from` to `to`: counted in Metrics, then delivered once,
  // at the schedule's timestamp. Precondition: an alive edge {from, to}
  // exists (checked).
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

  // The delivery schedule, draw stream included: a copy taken between runs
  // replays the next run's timestamps.
  const DeliveryPolicy& policy() const noexcept { return policy_; }

  // Per-node random stream (deterministic given the network seed).
  util::Rng& node_rng(NodeId v) noexcept { return node_rngs_[v]; }

  // Protocols report their peak per-node scratch footprint (bits) here.
  void report_node_state_bits(std::uint64_t bits) noexcept {
    if (bits > metrics_.peak_node_state_bits) {
      metrics_.peak_node_state_bits = bits;
    }
  }

  static constexpr std::uint64_t kDefaultMaxRounds = 1u << 26;

 private:
  struct Envelope {
    NodeId from;
    NodeId to;
    Message msg;
  };
  static_assert(std::is_trivially_copyable_v<Envelope>);

  // Delivers everything pending; returns the elapsed virtual time.
  std::uint64_t drain(Protocol& proto, std::uint64_t max_rounds);

  const graph::Graph* graph_;
  Metrics metrics_;
  std::vector<util::Rng> node_rngs_;
  DeliveryPolicy policy_;
  Protocol* active_ = nullptr;  // protocol being run (sends allowed only then)

  std::vector<std::vector<Envelope>> wheel_;  // bucket t & mask_: due at t
  std::uint64_t mask_ = 0;            // wheel_.size() - 1
  std::size_t pending_ = 0;           // envelopes in the wheel
  std::uint64_t now_ = 0;             // virtual clock, per-operation
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
