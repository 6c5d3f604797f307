#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <numeric>

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

// --- pooled envelope queue --------------------------------------------------
//
// Envelopes live in recycled slots of pool_; free slots cycle through ring_
// (a circular FIFO) so that slot reuse is uniform. The pending set is a
// hand-rolled binary heap of (at, seq, slot) entries: its backing vector
// keeps its capacity across operations, so after warm-up the send/deliver
// hot path performs zero heap allocations (tests/alloc_test.cc holds this).

std::uint32_t Network::pool_put(const Envelope& env) {
  if (ring_count_ > 0) {
    const std::uint32_t slot = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ring_count_;
    pool_[slot] = env;
    return slot;
  }
  // Pool exhausted: grow. The free ring is empty, so it can be resized
  // without relocating live entries.
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(env);
  ring_.push_back(0);  // keep |ring_| == |pool_| so every slot fits
  ring_head_ = 0;
  return slot;
}

void Network::pool_release(std::uint32_t slot) {
  assert(ring_count_ < ring_.size());
  ring_[(ring_head_ + ring_count_) % ring_.size()] = slot;
  ++ring_count_;
}

void Network::heap_push(Event ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), event_later);
}

Network::Event Network::heap_pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), event_later);
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

void Network::queue_clear() {
  heap_.clear();
  cur_round_.clear();
  next_round_.clear();
  ring_head_ = 0;
  ring_count_ = ring_.size();
  std::iota(ring_.begin(), ring_.end(), 0u);
}

// --- send / run -------------------------------------------------------------

void Network::schedule(const Envelope& env) {
  const std::uint64_t at = policy_->delivery_time(env.from, env.to, now_);
  assert(at > now_ && "delivery must take at least one time unit");
  heap_push(Event{at, seq_++, pool_put(env)});
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
  // Transport faults, checked in severity order: a down link swallows the
  // send for every protocol (and spends no loss draw -- the link state is
  // deterministic on its own); otherwise a lossy policy may drop it, which
  // also forfeits the send's duplicates. The send was still counted above:
  // the protocol paid for it, the network just never delivers it.
  if (links_.is_down(from, to) ||
      (loss_active_ && policy_->drop(from, to, now_))) {
    ++metrics_.dropped_deliveries;
    return;
  }
  const Envelope env{from, to, msg};
  if (fast_path_) {
    // unit_delay() promises delivery at now + 1 with no duplicates, so the
    // bucket append *is* the schedule: append order == send sequence order.
    assert(policy_->delivery_time(from, to, now_) == now_ + 1);
    assert(policy_->duplicates(from, to) == 0);
    next_round_.push_back(env);
    return;
  }
  schedule(env);
  // Adversarial duplicates: the same bits arrive again at an independently
  // drawn time. They are transport faults, not protocol cost, so they are
  // accounted separately from `messages`.
  for (unsigned d = policy_->duplicates(from, to); d > 0; --d) {
    ++metrics_.duplicate_deliveries;
    schedule(env);
  }
}

std::uint64_t Network::drain_rounds(Protocol& proto,
                                    std::uint64_t max_rounds) {
  const std::uint64_t start = now_;
  while (!next_round_.empty()) {
    if (now_ + 1 - start > max_rounds) {
      // Backstop hit: every pending delivery shares the same timestamp, so
      // dropping the whole bucket matches the heap path's per-event check.
      // The discards are transport drops like any other -- count them.
      metrics_.dropped_deliveries += next_round_.size();
      next_round_.clear();
      now_ = start + max_rounds;
      break;
    }
    ++now_;
    cur_round_.swap(next_round_);
    // Handlers only append to next_round_, so iterating cur_round_ by index
    // is stable; clear() afterwards keeps the capacity for the next round.
    for (const Envelope& env : cur_round_) {
      proto.on_message(*this, env.to, env.from, env.msg);
    }
    cur_round_.clear();
  }
  const std::uint64_t elapsed = now_ - start;
  now_ = 0;  // virtual clock is per-operation
  return elapsed;
}

std::uint64_t Network::drain(Protocol& proto, std::uint64_t max_rounds) {
  if (fast_path_) return drain_rounds(proto, max_rounds);
  const std::uint64_t start = now_;
  while (!heap_.empty()) {
    const Event ev = heap_pop();
    if (ev.at - start > max_rounds) {
      // Backstop hit: drop undeliverable leftovers so the next operation
      // starts from a clean transport. The popped event plus everything
      // still heaped is undelivered -- count them as transport drops
      // instead of discarding silently (tests/sim_test.cc pins the count).
      metrics_.dropped_deliveries += heap_.size() + 1;
      queue_clear();
      now_ = start + max_rounds;
      break;
    }
    now_ = ev.at;
    // Copy out before delivering: the handler's own sends may reuse the slot.
    const Envelope env = pool_[ev.slot];
    pool_release(ev.slot);
    proto.on_message(*this, env.to, env.from, env.msg);
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
  // Loss engages only when the policy is lossy AND the protocol declares it
  // can tolerate dropped messages; otherwise loss degrades to plain delay
  // (drop() is never consulted, so the loss rng stream is never advanced
  // and the schedule is bit-identical to the lossless configuration) and
  // the downgrade is counted.
  const bool lossy_policy = policy_->lossy();
  loss_active_ = lossy_policy && proto.loss_safe();
  if (lossy_policy && !loss_active_) ++loss_degrades_;
  fast_path_ = round_batching_enabled_ && policy_->unit_delay();
  policy_->begin_op();
  for (NodeId v : participants) proto.on_start(*this, v);
  const std::uint64_t elapsed = drain(proto, max_rounds);
  active_ = nullptr;
  loss_active_ = false;
  metrics_.rounds += elapsed;
  return elapsed;
}

}  // namespace kkt::sim
