// Reusable SoA scratch arenas for the tree protocols.
//
// Every protocol in this layer keeps O(1) words of state per node, but a
// Boruvka phase runs one protocol instance per fragment -- constructing the
// per-node state vector inside each instance costs O(n) per fragment, i.e.
// O(n^2) per phase. These arenas are constructed once, epoch-stamped, and
// shared across instances (TreeOps owns a bundle; callers running many
// phases pass one bundle through every TreeOps they build): a fresh run
// resets an entry lazily on first touch, so the per-run cost is proportional
// to the tree actually walked, and nothing is allocated once the arena has
// reached the graph size.
//
// Layout is struct-of-arrays: the per-field columns keep the hot inner loops
// (echo absorption, converging-echo bookkeeping) walking dense same-type
// memory instead of striding over wide per-node structs.
//
// Determinism: arenas only change where state lives, never its values -- a
// lazily reset entry reads exactly as a freshly constructed one, so all
// model-cost counters are bit-identical with shared or private scratch
// (pinned in proto_test/build_test).
//
// Locality: every accessor is indexed by a node id, and handlers only ever
// pass their own `self` (the node-local contract in sim/network.h). The
// growth points (ensure) run in protocol constructors, never inside a
// handler; next_run()/run_ bumps likewise happen between runs only.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "proto/words.h"

namespace kkt::proto {

using graph::NodeId;

// Epoch-stamped membership set: replaces a per-instance
// std::vector<char> seen(n) with a reusable stamp column.
class EpochSeen {
 public:
  void ensure(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
  }
  void next_run() noexcept { ++run_; }
  bool seen(NodeId v) const noexcept { return stamp_[v] == run_; }
  void mark(NodeId v) noexcept { stamp_[v] = run_; }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t run_ = 1;  // 0 marks never-touched entries
};

// Per-node columns of one broadcast-and-echo run (proto/broadcast_echo.h).
class EchoScratch {
 public:
  void ensure(std::size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      parent_.resize(n, graph::kNoNode);
      pending_.resize(n, 0);
      started_.resize(n, 0);
      acc_.resize(n);
    }
  }
  void next_run() noexcept { ++run_; }

  // Lazily resets v's columns if they belong to an earlier run.
  void touch(NodeId v) {
    if (stamp_[v] != run_) {
      stamp_[v] = run_;
      parent_[v] = graph::kNoNode;
      pending_[v] = 0;
      started_[v] = 0;
      acc_[v].clear();
    }
  }

  bool started(NodeId v) const noexcept {
    return stamp_[v] == run_ && started_[v] != 0;
  }
  void set_started(NodeId v) noexcept { started_[v] = 1; }
  NodeId& parent(NodeId v) noexcept { return parent_[v]; }
  std::uint32_t& pending(NodeId v) noexcept { return pending_[v]; }
  Words& acc(NodeId v) noexcept { return acc_[v]; }

 private:
  std::vector<std::uint64_t> stamp_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint8_t> started_;
  std::vector<Words> acc_;
  std::uint64_t run_ = 1;
};

// Per-node columns of one leader election (proto/leader_election.h). The
// `received` echo-sender lists are the one ragged column; clear() keeps
// each list's capacity, so steady-state elections allocate nothing.
class ElectScratch {
 public:
  void ensure(std::size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      received_.resize(n);
      sent_to_.resize(n, graph::kNoNode);
      degree_.resize(n, 0);
      leader_ext_.resize(n, 0);
      started_.resize(n, 0);
      center_.resize(n, 0);
    }
  }
  void next_run() noexcept { ++run_; }

  void touch(NodeId v) {
    if (stamp_[v] != run_) {
      stamp_[v] = run_;
      received_[v].clear();
      sent_to_[v] = graph::kNoNode;
      degree_[v] = 0;
      leader_ext_[v] = 0;
      started_[v] = 0;
      center_[v] = 0;
    }
  }

  // Post-quiescence reads must see untouched nodes exactly as freshly
  // constructed state: stamp-aware const accessors, no touch needed.
  bool started(NodeId v) const noexcept {
    return stamp_[v] == run_ && started_[v] != 0;
  }
  bool center(NodeId v) const noexcept {
    return stamp_[v] == run_ && center_[v] != 0;
  }
  NodeId sent_to(NodeId v) const noexcept {
    return stamp_[v] == run_ ? sent_to_[v] : graph::kNoNode;
  }
  std::uint64_t leader_ext(NodeId v) const noexcept {
    return stamp_[v] == run_ ? leader_ext_[v] : 0;
  }
  const std::vector<NodeId>& received(NodeId v) const noexcept {
    assert(stamp_[v] == run_);
    return received_[v];
  }

  // Mutators assume touch(v) ran this run.
  void set_started(NodeId v) noexcept { started_[v] = 1; }
  void set_center(NodeId v) noexcept { center_[v] = 1; }
  void set_sent_to(NodeId v, NodeId to) noexcept { sent_to_[v] = to; }
  void set_leader_ext(NodeId v, std::uint64_t ext) noexcept {
    leader_ext_[v] = ext;
  }
  std::uint32_t& degree(NodeId v) noexcept { return degree_[v]; }
  std::vector<NodeId>& received_mut(NodeId v) noexcept { return received_[v]; }

 private:
  std::vector<std::uint64_t> stamp_;
  std::vector<std::vector<NodeId>> received_;
  std::vector<NodeId> sent_to_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint64_t> leader_ext_;
  std::vector<std::uint8_t> started_;
  std::vector<std::uint8_t> center_;
  std::uint64_t run_ = 1;
};

// The bundle a TreeOps owns (or borrows): one arena per protocol family.
// Hoist one ProtoScratch outside a phase loop and hand it to every TreeOps
// built inside to reuse the arenas across the whole algorithm.
struct ProtoScratch {
  EchoScratch echo;
  ElectScratch elect;
  EpochSeen seen;  // Broadcast / AddEdgeHandshake membership stamps
};

}  // namespace kkt::proto
