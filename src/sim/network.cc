#include "sim/network.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace kkt::sim {

Network::Network(const graph::Graph& g, std::uint64_t seed,
                 std::unique_ptr<DeliveryPolicy> policy)
    : graph_(&g), policy_(std::move(policy)) {
  assert(policy_ != nullptr);
  util::Rng master(seed);
  node_rngs_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    node_rngs_.push_back(master.fork(v));
  }
}

// --- timing wheel ------------------------------------------------------------
//
// The wheel's one invariant is that every pending `at` lies in
// (now_, now_ + horizon_] and horizon_ < wheel_.size(). A policy that breaks
// it would land a send in an earlier bucket and deliver it early, silently
// reordering the schedule, so both checks abort in every build type.

namespace {

// Largest horizon run() accepts: a wheel of 2^20 buckets is already far
// wider than any schedule the experiments use.
constexpr std::uint64_t kMaxHorizon = std::uint64_t{1} << 20;

[[noreturn]] void bad_horizon(std::uint64_t horizon) {
  std::fprintf(stderr,
               "kkt::sim::Network: DeliveryPolicy::max_delay() = %llu is "
               "outside [1, %llu]\n",
               static_cast<unsigned long long>(horizon),
               static_cast<unsigned long long>(kMaxHorizon));
  std::abort();
}

[[noreturn]] void bad_delivery_time(std::uint64_t now, std::uint64_t at,
                                    std::uint64_t horizon) {
  std::fprintf(stderr,
               "kkt::sim::Network: delivery_time %llu is outside (%llu, "
               "%llu]: the policy's max_delay() of %llu is wrong\n",
               static_cast<unsigned long long>(at),
               static_cast<unsigned long long>(now),
               static_cast<unsigned long long>(now + horizon),
               static_cast<unsigned long long>(horizon));
  std::abort();
}

}  // namespace

void Network::send(NodeId from, NodeId to, const Message& msg) {
  assert(active_ != nullptr && "send outside of Network::run");
  assert(from < graph_->node_count() && to < graph_->node_count());
  assert(graph_->find_edge(from, to).has_value() &&
         "message sent along a non-existent edge");
  metrics_.messages += 1;
  metrics_.message_bits += msg.bits();
  const auto tag_idx = static_cast<std::size_t>(msg.tag);
  metrics_.per_tag[tag_idx] += 1;
  metrics_.per_tag_bits[tag_idx] += msg.bits();
  if (msg.words.overflowed()) {
    ++metrics_.oversized_messages;
    assert(false && "CONGEST message budget exceeded");
  }
  std::uint64_t at = now_ + 1;
  if (unit_delay_) {
    // unit_delay() promises delivery at now + 1, so the policy need not be
    // asked.
    assert(policy_->delivery_time(from, to, now_) == at);
  } else {
    at = policy_->delivery_time(from, to, now_);
    // One unsigned compare covers both ends: at <= now_ wraps past horizon_.
    if (at - now_ - 1 >= horizon_) [[unlikely]] {
      bad_delivery_time(now_, at, horizon_);
    }
  }
  wheel_[at & mask_].push_back(Envelope{from, to, msg});
  ++pending_;
}

std::uint64_t Network::drain(Protocol& proto, std::uint64_t max_rounds) {
  const std::uint64_t start = now_;
  while (pending_ != 0) {
    if (now_ - start == max_rounds) {
      // Backstop hit: everything still pending is due after the bound. Drop
      // it so the next operation starts from an empty wheel, and count the
      // leftovers (tests/sim_test.cc pins the count).
      metrics_.dropped_deliveries += pending_;
      for (std::vector<Envelope>& bucket : wheel_) bucket.clear();
      pending_ = 0;
      break;
    }
    ++now_;
    // Handlers append only to later buckets, so this one neither grows nor
    // moves while it is delivered in place; clear() keeps its capacity.
    std::vector<Envelope>& bucket = wheel_[now_ & mask_];
    for (const Envelope& env : bucket) {
      proto.on_message(*this, env.to, env.from, env.msg);
    }
    pending_ -= bucket.size();
    bucket.clear();
  }
  const std::uint64_t elapsed = now_ - start;
  now_ = 0;  // virtual clock is per-operation
  return elapsed;
}

std::uint64_t Network::run(Protocol& proto,
                           std::span<const NodeId> participants,
                           std::uint64_t max_rounds) {
  assert(active_ == nullptr && "nested Network::run");
  active_ = &proto;
  unit_delay_ = policy_->unit_delay();
  horizon_ = policy_->max_delay();
  if (horizon_ == 0 || horizon_ > kMaxHorizon) bad_horizon(horizon_);
  if (horizon_ >= wheel_.size()) {
    // The wheel is empty between runs, so growing it moves no envelope;
    // existing buckets keep their capacity.
    wheel_.resize(std::bit_ceil(horizon_ + 1));
    mask_ = wheel_.size() - 1;
  }
  policy_->begin_op();
  for (NodeId v : participants) proto.on_start(*this, v);
  const std::uint64_t elapsed = drain(proto, max_rounds);
  active_ = nullptr;
  metrics_.rounds += elapsed;
  return elapsed;
}

}  // namespace kkt::sim
