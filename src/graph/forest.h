// The maintained forest: per-endpoint edge marks.
//
// Paper, Definitions: "A network is properly marked if every edge is marked
// by both or neither of its endpoints. A tree T is maintained by a network
// if the network is properly marked and T is a maximal tree in the subgraph
// of marked edges."
//
// Each endpoint's mark bit is that node's local state; protocols set the two
// halves via messages (the Add-Edge handshake). The audit methods let tests
// assert the properly-marked invariant and the impromptu discipline (between
// updates a node stores nothing but its incident edges and these bits).
//
// Threading contract: a forest belongs to one world (graph, network,
// protocols) and is only ever touched by that world's thread -- the
// SweepExecutor runs whole worlds on worker threads, never one forest from
// two -- so nothing here locks.
//
// Storage: the per-node tree index is the only mark store
// (docs/ARCHITECTURE.md, "Tree index"). Node v keeps one entry per edge
// whose *own* half (v's) is marked: the incidence, v's epoch and a mirror of
// the peer's epoch (kUnmarked while the peer's half is not marked). Forest
// state is O(n + tree edges) whatever m is. mark_half / unmark_half edit
// v's entry and the mirror in the peer's entry, O(tree degree); every mark
// read answers from the endpoints' entries. TreeView walks need entries in
// incidence-row order: a node's list goes stale when it gains an entry or
// its row changes (Graph::row_version), and the next walk reorders it with
// one pass over the row, in place, so reads never allocate. Entries of dead
// edges stay in the store (walks skip them) until their halves are
// unmarked. Each node's list is one slab of a bump pool whose segments
// never move, so a node outgrowing its slab moves only its own entries.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace kkt::graph {

class MarkedForest {
 public:
  explicit MarkedForest(const Graph& g)
      : graph_(&g),
        nodes_(g.node_count()),
        slot_of_peer_(g.node_count(), kNoSlot) {}

  // --- per-endpoint marking (what protocols do) ---------------------------
  // `epoch` records when the mark was placed; construction phases use it to
  // query the fragment structure "as of the start of phase i" (edges marked
  // in phase i become part of the tree only from phase i+1 on), matching the
  // paper's synchronized-phase semantics in Build MST step (d). Epoch
  // ~0 (kUnmarked) is reserved.
  void mark_half(EdgeIdx e, NodeId endpoint, std::uint32_t epoch = 0);
  void unmark_half(EdgeIdx e, NodeId endpoint);
  bool half_marked(EdgeIdx e, NodeId endpoint) const {
    return find(endpoint, e) != nullptr;
  }
  // Largest epoch among the edge's marked halves (0 if none).
  std::uint32_t mark_epoch(EdgeIdx e) const;
  // Largest epoch among currently marked edges (0 if none) -- lets a new
  // phased operation pick fresh epochs above everything already placed.
  std::uint32_t max_mark_epoch() const;

  // --- symmetric convenience (driver/test use) ----------------------------
  void mark_edge(EdgeIdx e, std::uint32_t epoch = 0);
  // Clears both halves, e.g. when the edge is deleted from the graph.
  void clear_edge(EdgeIdx e);
  void clear_all();

  // An edge is in the maintained forest iff both halves are marked (and it
  // is alive).
  bool is_marked(EdgeIdx e) const {
    return is_marked_at(e, ~std::uint32_t{0});
  }
  // Marked and placed no later than the given epoch.
  bool is_marked_at(EdgeIdx e, std::uint32_t epoch_limit) const;

  // Every edge has zero or two marked halves.
  bool properly_marked() const;

  // Marked alive edges, ascending.
  std::vector<EdgeIdx> marked_edges() const;

  // Marked alive incident edges of v, in incidence-row order.
  std::vector<Incidence> marked_incident(NodeId v) const;

  // Component label per node of the marked subgraph, plus component count.
  std::pair<std::vector<std::uint32_t>, std::size_t> components() const;

  // The nodes of each marked-subgraph component, ascending, indexed by the
  // components() label: a Boruvka phase's fragments.
  std::vector<std::vector<NodeId>> fragments() const;

  // All nodes in the marked-subgraph component containing root.
  std::vector<NodeId> component_of(NodeId root) const;

  // True if the marked subgraph is acyclic.
  bool is_forest() const;

  // True if the marked subgraph is a spanning forest of the alive graph
  // (acyclic, and connects exactly the graph's components).
  bool is_spanning_forest() const;

  const Graph& graph() const noexcept { return *graph_; }

  // From-scratch audit of the store (tests and debugging; O(m), never
  // called on a hot path): every entry names an edge of its node, no node
  // lists an edge twice, every mirror equals the peer's own epoch (or
  // kUnmarked when the peer lists no entry), a fresh list holds its alive
  // entries in incidence-row order ahead of any dead ones, and no two
  // slabs overlap.
  bool verify_state() const;

  // Peer-epoch value of an entry whose peer half is unmarked.
  static constexpr std::uint32_t kUnmarked = ~std::uint32_t{0};

  // One own-marked half of a node.
  struct Entry {
    Incidence inc;
    std::uint32_t own_epoch;
    std::uint32_t peer_epoch;  // kUnmarked: the peer's half is unmarked
  };

 private:
  friend class TreeView;

  // Stable-address bump allocator for the entry lists. Segment k holds
  // kFirst << k entries and never moves once allocated, so growing one
  // node's slab never moves another node's entries. Released slabs of small
  // capacity are recycled by exact size.
  class SlabPool {
   public:
    // Valid only for offsets inside an allocated slab.
    Entry* at(std::uint32_t offset) const {
      const int k = segment_of(offset);
      return segments_[static_cast<std::size_t>(k)].get() +
             (offset - segment_start(k));
    }
    std::uint32_t allocate(std::uint32_t cap);
    void release(std::uint32_t offset, std::uint32_t cap);
    std::uint64_t tail() const noexcept { return tail_; }

    static int segment_of(std::uint64_t offset) {
      return static_cast<int>(std::bit_width((offset >> kShift) + 1)) - 1;
    }
    static std::uint64_t segment_start(int k) {
      return ((std::uint64_t{1} << k) - 1) << kShift;
    }

   private:
    static constexpr int kShift = 8;  // kFirst = 256 entries
    // Segment starts stay below 2^32, so offsets fit the slab's uint32.
    static constexpr int kSegments = 32 - kShift;

    std::array<std::unique_ptr<Entry[]>, kSegments> segments_;
    std::uint64_t tail_ = 0;
    // free_[c]: offsets of released slabs of capacity c (c < 64; larger
    // slabs are rare and simply abandoned).
    std::vector<std::vector<std::uint32_t>> free_ =
        std::vector<std::vector<std::uint32_t>>(64);
  };

  // One node's entries: pool_[offset, offset + len) in a slab of capacity
  // cap, in incidence-row order while row_version equals the graph's row
  // version of the node (which would need 2^32 - 1 row changes to reach the
  // stale marker).
  static constexpr std::uint32_t kStaleRow = ~std::uint32_t{0};
  struct NodeMarks {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
    std::uint32_t row_version = kStaleRow;
  };

  std::span<Entry> entries(NodeId v) const {
    const NodeMarks& m = nodes_[v];
    if (m.len == 0) return {};  // maybe no slab yet: never touch the pool
    return {pool_.at(m.offset), m.len};
  }
  // v's entries in row order, reordered first if stale.
  std::span<const Entry> tree_row(NodeId v) const {
    if (nodes_[v].row_version != graph_->row_version(v)) reorder(v);
    return entries(v);
  }
  void append(NodeId v, const Entry& x);
  void reorder(NodeId v) const;  // slow path of tree_row
  // v's entry for e, or nullptr if v's half is unmarked. Mutable like
  // entries(): mark_half writes through it.
  Entry* find(NodeId v, EdgeIdx e) const;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  const Graph* graph_;
  // Mutable: reads reorder stale lists lazily.
  mutable std::vector<NodeMarks> nodes_;
  SlabPool pool_;
  // reorder() scratch: slot_of_peer_[p] is the position of the entry whose
  // alive edge leads to p (alive edges at a node have distinct peers);
  // kNoSlot everywhere between calls.
  mutable std::vector<std::uint32_t> slot_of_peer_;
};

// A node-local lens on the maintained tree: the marked incident edges as of
// a given epoch. Protocols take a TreeView so that construction phases can
// operate on the fragment structure at phase start while Add-Edge marks for
// the next phase accumulate concurrently.
class TreeView {
 public:
  explicit TreeView(const MarkedForest& forest,
                    std::uint32_t epoch_limit = ~std::uint32_t{0})
      : forest_(&forest), epoch_limit_(epoch_limit) {}

  bool contains(EdgeIdx e) const {
    return forest_->is_marked_at(e, epoch_limit_);
  }

  // Allocation-free range over the marked incident edges of `v`, in
  // incidence-row order: a walk over v's entries that skips those
  // contains() rejects (peer half unmarked, placed after the epoch limit,
  // edge dead), reading entry fields only. Entries stay valid until v's
  // next mark change. The range copies the view's fields, so it may
  // outlive a temporary TreeView.
  class NeighborRange {
    using Entry = MarkedForest::Entry;

   public:
    class iterator {
     public:
      using value_type = Incidence;
      using reference = const Incidence&;
      using difference_type = std::ptrdiff_t;

      iterator(const Graph* graph, std::uint32_t epoch_limit, const Entry* cur,
               const Entry* end)
          : graph_(graph), epoch_limit_(epoch_limit), cur_(cur), end_(end) {
        skip_unmarked();
      }

      reference operator*() const { return cur_->inc; }
      const Incidence* operator->() const { return &cur_->inc; }
      iterator& operator++() {
        ++cur_;
        skip_unmarked();
        return *this;
      }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

     private:
      void skip_unmarked() {
        while (cur_ != end_ && !(cur_->peer_epoch != MarkedForest::kUnmarked &&
                                 cur_->own_epoch <= epoch_limit_ &&
                                 cur_->peer_epoch <= epoch_limit_ &&
                                 graph_->alive(cur_->inc.edge))) {
          ++cur_;
        }
      }

      const Graph* graph_;
      std::uint32_t epoch_limit_;
      const Entry* cur_;
      const Entry* end_;
    };

    NeighborRange(const Graph* graph, std::uint32_t epoch_limit,
                  std::span<const Entry> entries)
        : graph_(graph), epoch_limit_(epoch_limit), entries_(entries) {}

    iterator begin() const {
      return {graph_, epoch_limit_, entries_.data(),
              entries_.data() + entries_.size()};
    }
    iterator end() const {
      const Entry* last = entries_.data() + entries_.size();
      return {graph_, epoch_limit_, last, last};
    }
    std::size_t size() const {
      std::size_t d = 0;
      for ([[maybe_unused]] const Incidence& inc : *this) ++d;
      return d;
    }

   private:
    const Graph* graph_;
    std::uint32_t epoch_limit_;
    std::span<const Entry> entries_;
  };

  NeighborRange neighbors(NodeId v) const {
    return {&forest_->graph(), epoch_limit_, forest_->tree_row(v)};
  }

  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  const MarkedForest& forest() const noexcept { return *forest_; }
  const Graph& graph() const noexcept { return forest_->graph(); }
  std::uint32_t epoch_limit() const noexcept { return epoch_limit_; }

 private:
  const MarkedForest* forest_;
  std::uint32_t epoch_limit_;
};

}  // namespace kkt::graph
