// Cost accounting: the experimental observables of every theorem.
#pragma once

#include <array>
#include <cstdint>

#include "sim/message.h"

namespace kkt::sim {

struct Metrics {
  // Total messages sent (every hop of every protocol).
  std::uint64_t messages = 0;
  // Total payload bits sent.
  std::uint64_t message_bits = 0;
  // Simulated time: synchronous rounds, or asynchronous virtual time units.
  // Sequential operations add; parallel fragment phases add the max over
  // fragments (see ParallelPhase in network.h).
  std::uint64_t rounds = 0;
  // Number of broadcast-and-echo operations performed (paper's unit of
  // account for FindMin/FindAny analysis).
  std::uint64_t broadcast_echoes = 0;
  // Messages that exceeded the CONGEST word budget (0 in a correct run).
  std::uint64_t oversized_messages = 0;
  // Sends still pending when Network::run's max_rounds backstop stopped
  // the operation, discarded undelivered. Links are reliable, so this is
  // the only way a send goes undelivered: a nonzero count flags a protocol
  // that did not reach quiescence within the bound. The sends still appear
  // in `messages` because the protocol paid for them.
  std::uint64_t dropped_deliveries = 0;
  // High-water mark of per-node protocol scratch state, in bits, as
  // reported by protocols (audits the O(log(n+u)) memory claim).
  std::uint64_t peak_node_state_bits = 0;
  // Message count broken down by protocol tag (indices follow sim::Tag).
  std::array<std::uint64_t, static_cast<std::size_t>(Tag::kTagCount)>
      per_tag{};
  // Payload bits broken down by protocol tag: which protocol spends the
  // bit budget, not just who sends the most envelopes.
  std::array<std::uint64_t, static_cast<std::size_t>(Tag::kTagCount)>
      per_tag_bits{};

  std::uint64_t tag_count(Tag t) const {
    return per_tag[static_cast<std::size_t>(t)];
  }

  std::uint64_t tag_bits(Tag t) const {
    return per_tag_bits[static_cast<std::size_t>(t)];
  }

  void reset() { *this = Metrics{}; }

  Metrics& operator+=(const Metrics& o) {
    messages += o.messages;
    message_bits += o.message_bits;
    rounds += o.rounds;
    broadcast_echoes += o.broadcast_echoes;
    oversized_messages += o.oversized_messages;
    dropped_deliveries += o.dropped_deliveries;
    if (o.peak_node_state_bits > peak_node_state_bits) {
      peak_node_state_bits = o.peak_node_state_bits;
    }
    for (std::size_t i = 0; i < per_tag.size(); ++i) per_tag[i] += o.per_tag[i];
    for (std::size_t i = 0; i < per_tag_bits.size(); ++i) {
      per_tag_bits[i] += o.per_tag_bits[i];
    }
    return *this;
  }

  // Snapshot delta: the cost accrued between two observations of the same
  // network (per-operation accounting). Monotone counters subtract,
  // including the per-tag maps; `peak_node_state_bits` is a high-water mark,
  // not a counter, so the delta carries the later snapshot's value.
  // Precondition: `before` was observed no later than *this.
  Metrics operator-(const Metrics& before) const {
    Metrics d;
    d.messages = messages - before.messages;
    d.message_bits = message_bits - before.message_bits;
    d.rounds = rounds - before.rounds;
    d.broadcast_echoes = broadcast_echoes - before.broadcast_echoes;
    d.oversized_messages = oversized_messages - before.oversized_messages;
    d.dropped_deliveries = dropped_deliveries - before.dropped_deliveries;
    d.peak_node_state_bits = peak_node_state_bits;
    for (std::size_t i = 0; i < per_tag.size(); ++i) {
      d.per_tag[i] = per_tag[i] - before.per_tag[i];
    }
    for (std::size_t i = 0; i < per_tag_bits.size(); ++i) {
      d.per_tag_bits[i] = per_tag_bits[i] - before.per_tag_bits[i];
    }
    return d;
  }

  friend bool operator==(const Metrics&, const Metrics&) = default;
};

}  // namespace kkt::sim
