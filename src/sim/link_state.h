// LinkState: a down/up overlay over the graph's edges -- the mechanism
// partitions and correlated regional outages ride on.
//
// A down link is a *transport* fault, not a topology change: the edge is
// still alive in the Graph, protocols still see it among their incident
// edges and may send along it, but every such send is silently lost and
// counted in Metrics::dropped_deliveries. This models a cable that is
// physically present but dark, as opposed to Graph::delete_edge which
// removes the edge from every node's local knowledge.
//
// Because is_down() is a pure function of the endpoint pair (no clock, no
// randomness, no iteration order), link-state drops do not depend on the
// delivery schedule -- unlike policy loss, they therefore apply to every
// protocol, loss-safe or not (a protocol that cannot make progress across a
// dead link simply reaches quiescence with a degraded result, exactly as it
// would on the partitioned topology).
//
// Mutations are sequential-context only (the Network asserts no run is in
// progress); fault schedules flip links *between* operations, which is the
// granularity FaultEvents are applied at anyway (src/workload/faults.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace kkt::sim {

class LinkState {
 public:
  // Takes the (undirected) link {u, v} down; idempotent.
  void set_down(graph::NodeId u, graph::NodeId v) {
    const std::uint64_t key = edge_key(u, v);
    const auto it = std::lower_bound(down_.begin(), down_.end(), key);
    if (it == down_.end() || *it != key) down_.insert(it, key);
  }

  // Brings the link {u, v} back up; idempotent.
  void set_up(graph::NodeId u, graph::NodeId v) {
    const std::uint64_t key = edge_key(u, v);
    const auto it = std::lower_bound(down_.begin(), down_.end(), key);
    if (it != down_.end() && *it == key) down_.erase(it);
  }

  // Heals every down link at once (end of an outage window).
  void all_up() noexcept { down_.clear(); }

  // Send-path predicate: one empty-check when no faults are configured,
  // a binary search over the (typically tiny) down set otherwise.
  bool is_down(graph::NodeId u, graph::NodeId v) const noexcept {
    if (down_.empty()) return false;
    return std::binary_search(down_.begin(), down_.end(), edge_key(u, v));
  }

  std::size_t down_count() const noexcept { return down_.size(); }

 private:
  static std::uint64_t edge_key(graph::NodeId u, graph::NodeId v) noexcept {
    if (u > v) {
      const graph::NodeId t = u;
      u = v;
      v = t;
    }
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  // Sorted flat set of canonical edge keys: value-determined order, zero
  // allocation on the send path once the fault schedule is in place.
  std::vector<std::uint64_t> down_;
};

}  // namespace kkt::sim
