#include "sim/network.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace kkt::sim {

namespace {

// Largest horizon a schedule may have: a wheel of 2^20 buckets is already
// far wider than any schedule the experiments use.
constexpr std::uint64_t kMaxHorizon = std::uint64_t{1} << 20;

[[noreturn]] void bad_horizon(const DeliveryPolicy& policy) {
  std::fprintf(stderr,
               "kkt::sim::Network: delivery horizon %llu + %llu is outside "
               "[1, %llu]\n",
               static_cast<unsigned long long>(policy.max_delay()),
               static_cast<unsigned long long>(policy.reorder_window()),
               static_cast<unsigned long long>(kMaxHorizon));
  std::abort();
}

}  // namespace

Network::Network(const graph::Graph& g, std::uint64_t seed,
                 DeliveryPolicy policy)
    : graph_(&g), policy_(policy) {
  // Checked term by term so that no sum can wrap past the bound.
  if (policy_.max_delay() > kMaxHorizon ||
      policy_.reorder_window() > kMaxHorizon - policy_.max_delay()) {
    bad_horizon(policy_);
  }
  policy_.reseed(seed);
  wheel_.resize(std::bit_ceil(policy_.horizon() + 1));
  mask_ = wheel_.size() - 1;
  util::Rng master(seed);
  node_rngs_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    node_rngs_.push_back(master.fork(v));
  }
}

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
  const std::uint64_t at = policy_.delivery_time(now_);
  // The bounds keep `at` in (now_, now_ + horizon] (one unsigned compare:
  // at <= now_ would wrap past the horizon), so it lands in its own bucket.
  assert(at - now_ - 1 < policy_.horizon());
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
  for (NodeId v : participants) proto.on_start(*this, v);
  const std::uint64_t elapsed = drain(proto, max_rounds);
  active_ = nullptr;
  metrics_.rounds += elapsed;
  return elapsed;
}

}  // namespace kkt::sim
