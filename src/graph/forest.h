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
// two -- so nothing here locks. Read accessors are bounds-checked and never
// grow storage; growth happens only at construction and in mutators.
// Storage: dense interleaved arrays indexed by 2e + endpoint-slot, 10 bytes
// per edge slot. Graphs whose edge-slot count exceeds a limit (implicit K_n
// at n = 10^6 has ~5*10^11 slots) switch to a sparse std::map keyed by edge
// index -- a maintained forest holds < n marked edges regardless of m, so
// the map stays O(n).
//
// Tree index: per node, the incident edges whose *own* half is marked, in
// incidence-row order (docs/ARCHITECTURE.md, "Tree index"). TreeView walks
// read it instead of filtering every incident edge, so a tree walk touches
// tree edges only. An entry is rebuilt lazily on the next read after its
// node marks or unmarks its own half, mark_edge / clear_edge touch an edge
// of the node, clear_all runs, or the node's incidence row changes
// (Graph::row_version). A node's own-half mutators write only that node's
// entry; slabs come from a bump pool whose segments never move.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace kkt::graph {

// Edge-slot count above which MarkedForest stores marks sparsely (dense
// arrays would exceed ~10 GB).
inline constexpr std::size_t kForestDenseSlotLimit = std::size_t{1} << 30;

class MarkedForest {
 public:
  // `dense_slot_limit` is a test seam; the default keeps every materialised
  // graph dense and flips only web-scale implicit families to sparse.
  explicit MarkedForest(const Graph& g,
                        std::size_t dense_slot_limit = kForestDenseSlotLimit)
      : graph_(&g),
        sparse_(g.edge_slots() > dense_slot_limit),
        slabs_(g.node_count()) {
    sync_capacity();
  }

  // --- per-endpoint marking (what protocols do) ---------------------------
  // `epoch` records when the mark was placed; construction phases use it to
  // query the fragment structure "as of the start of phase i" (edges marked
  // in phase i become part of the tree only from phase i+1 on), matching the
  // paper's synchronized-phase semantics in Build MST step (d).
  void mark_half(EdgeIdx e, NodeId endpoint, std::uint32_t epoch = 0);
  void unmark_half(EdgeIdx e, NodeId endpoint);
  bool half_marked(EdgeIdx e, NodeId endpoint) const;
  std::uint32_t mark_epoch(EdgeIdx e) const;
  // Largest epoch among currently marked edges (0 if none) -- lets a new
  // phased operation pick fresh epochs above everything already placed.
  std::uint32_t max_mark_epoch() const;

  // --- symmetric convenience (driver/test use) ----------------------------
  void mark_edge(EdgeIdx e, std::uint32_t epoch = 0);
  void unmark_edge(EdgeIdx e);
  // Clears both halves, e.g. when the edge is deleted from the graph.
  void clear_edge(EdgeIdx e);
  void clear_all();

  // An edge is in the maintained forest iff both halves are marked.
  // Inline: TreeView walks apply it to every tree-index entry (the peer's
  // half may be unmarked). Pure read: edges beyond the grown range are
  // simply unmarked.
  bool is_marked(EdgeIdx e) const {
    if (sparse_) return sparse_marked(e);
    const std::size_t i = 2 * static_cast<std::size_t>(e);
    return i + 1 < half_marks_.size() &&
           (half_marks_[i] & half_marks_[i + 1]) != 0 && graph_->alive(e);
  }

  // Marked and placed no later than the given epoch.
  bool is_marked_at(EdgeIdx e, std::uint32_t epoch_limit) const {
    if (!is_marked(e)) return false;
    if (sparse_) return mark_epoch(e) <= epoch_limit;
    const std::size_t i = 2 * static_cast<std::size_t>(e);
    const std::uint32_t eu = half_epochs_[i];
    const std::uint32_t ev = half_epochs_[i + 1];
    return (eu > ev ? eu : ev) <= epoch_limit;
  }

  // Whether marks live in the sparse map (see class comment).
  bool sparse() const noexcept { return sparse_; }

  // Every edge has zero or two marked halves.
  bool properly_marked() const;

  // Marked alive edges, ascending.
  std::vector<EdgeIdx> marked_edges() const;

  // Marked alive incident edges of v, in incidence-row order.
  std::vector<Incidence> marked_incident(NodeId v) const;
  std::size_t marked_degree(NodeId v) const;

  // Component label per node of the marked subgraph, plus component count.
  std::pair<std::vector<std::uint32_t>, std::size_t> components() const;

  // All nodes in the marked-subgraph component containing root.
  std::vector<NodeId> component_of(NodeId root) const;

  // True if the marked subgraph is acyclic.
  bool is_forest() const;

  // True if the marked subgraph is a spanning forest of the alive graph
  // (acyclic, and connects exactly the graph's components).
  bool is_spanning_forest() const;

  const Graph& graph() const noexcept { return *graph_; }

  // Audit of the tree index (tests and debugging; O(m), never called on a
  // hot path): every fresh entry equals the row-ordered own-half-marked
  // subset of its node's incidence row, and no two slabs overlap.
  bool verify_state() const;

 private:
  friend class TreeView;

  // Stable-address bump allocator for the tree index. Segment k holds
  // kFirst << k entries and never moves once allocated, so carving a new
  // slab never invalidates another node's entries.
  // Released slabs of small capacity are recycled by exact size; reset()
  // (clear_all) reclaims everything.
  class SlabPool {
   public:
    // Valid only for offsets inside an allocated slab.
    Incidence* at(std::uint32_t offset) const {
      const int k = segment_of(offset);
      return segments_[static_cast<std::size_t>(k)].get() +
             (offset - segment_start(k));
    }
    std::uint32_t allocate(std::uint32_t cap);
    void release(std::uint32_t offset, std::uint32_t cap);
    void reset();
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

    std::array<std::unique_ptr<Incidence[]>, kSegments> segments_;
    std::uint64_t tail_ = 0;
    // free_[c]: offsets of released slabs of capacity c (c < 64; larger
    // slabs are rare and simply abandoned until reset()).
    std::vector<std::vector<std::uint32_t>> free_ =
        std::vector<std::vector<std::uint32_t>>(64);
  };

  // One node's tree-index entry: pool_[offset, offset + len), capacity cap,
  // fresh while row_version equals the graph's row version of the node
  // (which would need 2^32 - 1 row changes to reach the stale marker).
  static constexpr std::uint32_t kStaleRow = ~std::uint32_t{0};
  struct TreeSlab {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
    std::uint32_t row_version = kStaleRow;
  };

  // The tree-index entry of v, rebuilt first if stale.
  std::span<const Incidence> tree_row(NodeId v) const {
    const TreeSlab& s = slabs_[v];
    if (s.row_version != graph_->row_version(v)) rebuild_tree_row(v);
    if (s.len == 0) return {};  // maybe no slab yet: never touch the pool
    return {pool_.at(s.offset), s.len};
  }
  void rebuild_tree_row(NodeId v) const;  // slow path of tree_row
  void invalidate(NodeId v) { slabs_[v].row_version = kStaleRow; }
  void invalidate_endpoints(EdgeIdx e);
  bool own_half_marked(EdgeIdx e, NodeId v) const;

  // One edge's marks in sparse mode; same slot convention as the arrays.
  struct SparseMarks {
    std::uint8_t marks[2] = {0, 0};
    std::uint32_t epochs[2] = {0, 0};
  };

  // Grows the half-mark/epoch arrays to cover every current edge slot.
  void sync_capacity();
  // Mutator-only growth: reads never resize (see class comment).
  void ensure_size(EdgeIdx e) {
    if (!sparse_ && half_marks_.size() <= 2 * static_cast<std::size_t>(e) + 1) {
      grow(e);
    }
  }
  void grow(EdgeIdx e);  // out-of-line slow path of ensure_size
  // Returns 0 or 1 for the endpoint's slot in the interleaved arrays.
  int slot(EdgeIdx e, NodeId endpoint) const;
  std::size_t edge_slots_grown() const noexcept {
    return half_marks_.size() / 2;
  }
  bool sparse_marked(EdgeIdx e) const;  // out-of-line sparse read

  const Graph* graph_;
  bool sparse_ = false;
  // Interleaved per-endpoint mark bytes: element 2e + slot is endpoint
  // slot's half of edge e.
  std::vector<std::uint8_t> half_marks_;
  // Per-endpoint epoch at which the half was marked; an edge's epoch is the
  // max over its two halves (both halves carry the same value in every
  // marking flow, so this matches the historical single-epoch semantics).
  std::vector<std::uint32_t> half_epochs_;
  // Sparse mode: marks keyed by edge index (ascending iteration order keeps
  // marked_edges / audits deterministic and identical to the dense walk).
  std::map<EdgeIdx, SparseMarks> sparse_marks_;
  // Tree index: one slab per node (node count is fixed), entries in pool_.
  // Mutable: reads rebuild stale entries lazily.
  mutable std::vector<TreeSlab> slabs_;
  mutable SlabPool pool_;
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
  // incidence-row order: a walk over v's tree-index entry that skips the
  // entries contains() rejects (peer half unmarked, placed after the epoch
  // limit). Entries stay valid until v's next mark change. The range
  // copies the view's fields, so it may outlive a temporary TreeView.
  class NeighborRange {
   public:
    class iterator {
     public:
      using value_type = Incidence;
      using reference = const Incidence&;
      using difference_type = std::ptrdiff_t;

      iterator(const MarkedForest* forest, std::uint32_t epoch_limit,
               const Incidence* cur, const Incidence* end)
          : forest_(forest), epoch_limit_(epoch_limit), cur_(cur), end_(end) {
        skip_unmarked();
      }

      reference operator*() const { return *cur_; }
      const Incidence* operator->() const { return cur_; }
      iterator& operator++() {
        ++cur_;
        skip_unmarked();
        return *this;
      }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

     private:
      void skip_unmarked() {
        while (cur_ != end_ &&
               !forest_->is_marked_at(cur_->edge, epoch_limit_)) {
          ++cur_;
        }
      }

      const MarkedForest* forest_;
      std::uint32_t epoch_limit_;
      const Incidence* cur_;
      const Incidence* end_;
    };

    NeighborRange(const MarkedForest* forest, std::uint32_t epoch_limit,
                  std::span<const Incidence> entries)
        : forest_(forest), epoch_limit_(epoch_limit), entries_(entries) {}

    iterator begin() const {
      return {forest_, epoch_limit_, entries_.data(),
              entries_.data() + entries_.size()};
    }
    iterator end() const {
      const Incidence* last = entries_.data() + entries_.size();
      return {forest_, epoch_limit_, last, last};
    }
    std::size_t size() const {
      std::size_t d = 0;
      for ([[maybe_unused]] const Incidence& inc : *this) ++d;
      return d;
    }

   private:
    const MarkedForest* forest_;
    std::uint32_t epoch_limit_;
    std::span<const Incidence> entries_;
  };

  NeighborRange neighbors(NodeId v) const {
    return {forest_, epoch_limit_, forest_->tree_row(v)};
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
