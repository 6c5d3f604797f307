#include "graph/forest.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

#include "graph/dsu.h"
#include "graph/mst_oracle.h"

namespace kkt::graph {

std::uint32_t MarkedForest::SlabPool::allocate(std::uint32_t cap) {
  assert(cap > 0);
  if (cap < free_.size() && !free_[cap].empty()) {
    const std::uint32_t offset = free_[cap].back();
    free_[cap].pop_back();
    return offset;
  }
  // First segment from the tail on with room for the whole slab; a skipped
  // remainder stays unused (slabs never straddle segments).
  int k = segment_of(tail_);
  while (segment_start(k + 1) - tail_ < cap) {
    ++k;
    assert(k < kSegments && "tree index pool exhausted");
    tail_ = segment_start(k);
  }
  auto& seg = segments_[static_cast<std::size_t>(k)];
  if (seg == nullptr) {
    // Left uninitialised: the OS backs only the pages slabs actually touch.
    seg = std::make_unique_for_overwrite<Incidence[]>(
        std::size_t{1} << (kShift + k));
  }
  const auto offset = static_cast<std::uint32_t>(tail_);
  tail_ += cap;
  return offset;
}

void MarkedForest::SlabPool::release(std::uint32_t offset, std::uint32_t cap) {
  if (cap < free_.size()) free_[cap].push_back(offset);
}

void MarkedForest::SlabPool::reset() {
  tail_ = 0;
  for (std::vector<std::uint32_t>& list : free_) list.clear();
}

bool MarkedForest::own_half_marked(EdgeIdx e, NodeId v) const {
  if (sparse_) return half_marked(e, v);
  const std::size_t i = 2 * static_cast<std::size_t>(e);
  if (i + 1 >= half_marks_.size()) return false;
  // Decide from the mark pair alone unless exactly one half is marked (a
  // handshake in flight); only then read the edge record behind slot().
  const std::uint8_t a = half_marks_[i];
  const std::uint8_t b = half_marks_[i + 1];
  if ((a | b) == 0) return false;
  if ((a & b) != 0) return true;
  return half_marks_[i + static_cast<std::size_t>(slot(e, v))] != 0;
}

void MarkedForest::rebuild_tree_row(NodeId v) const {
  TreeSlab& s = slabs_[v];
  const std::span<const Incidence> row = graph_->incident(v);
  Incidence* out = s.cap == 0 ? nullptr : pool_.at(s.offset);
  std::uint32_t len = 0;
  std::size_t i = 0;
  for (; i < row.size(); ++i) {
    if (!own_half_marked(row[i].edge, v)) continue;
    if (len == s.cap) break;
    out[len++] = row[i];
  }
  if (i < row.size()) {
    // Overflow at row[i]: move to a slab sized exactly for the whole entry
    // (tree degrees rarely grow again) and recycle the old one.
    std::uint32_t total = len;
    for (std::size_t j = i; j < row.size(); ++j) {
      if (own_half_marked(row[j].edge, v)) ++total;
    }
    const std::uint32_t offset = pool_.allocate(total);
    Incidence* fresh = pool_.at(offset);
    std::copy_n(out, len, fresh);
    if (s.cap > 0) pool_.release(s.offset, s.cap);
    s.offset = offset;
    s.cap = total;
    out = fresh;
    for (; i < row.size(); ++i) {
      if (own_half_marked(row[i].edge, v)) out[len++] = row[i];
    }
  }
  s.len = len;
  s.row_version = graph_->row_version(v);
}

void MarkedForest::invalidate_endpoints(EdgeIdx e) {
  const Edge ed = graph_->edge(e);
  invalidate(ed.u);
  invalidate(ed.v);
}

void MarkedForest::grow(EdgeIdx e) {
  assert(!sparse_);
  const std::size_t want = 2 * (static_cast<std::size_t>(e) + 1);
  if (half_marks_.size() < want) {
    half_marks_.resize(want, 0);
    half_epochs_.resize(want, 0);
  }
}

void MarkedForest::sync_capacity() {
  if (sparse_) return;  // the map needs no pre-sizing
  const std::size_t slots = graph_->edge_slots();
  if (slots > 0) grow(static_cast<EdgeIdx>(slots - 1));
}

int MarkedForest::slot(EdgeIdx e, NodeId endpoint) const {
  const Edge ed = graph_->edge(e);
  assert(endpoint == ed.u || endpoint == ed.v);
  return endpoint == ed.u ? 0 : 1;
}

bool MarkedForest::sparse_marked(EdgeIdx e) const {
  const auto it = sparse_marks_.find(e);
  return it != sparse_marks_.end() && it->second.marks[0] != 0 &&
         it->second.marks[1] != 0 && graph_->alive(e);
}

void MarkedForest::mark_half(EdgeIdx e, NodeId endpoint, std::uint32_t epoch) {
  const int s = slot(e, endpoint);
  invalidate(endpoint);
  if (sparse_) {
    SparseMarks& sm = sparse_marks_[e];
    sm.marks[s] = 1;
    sm.epochs[s] = epoch;
    return;
  }
  ensure_size(e);
  const std::size_t i = 2 * static_cast<std::size_t>(e) + s;
  half_marks_[i] = 1;
  half_epochs_[i] = epoch;
}

std::uint32_t MarkedForest::mark_epoch(EdgeIdx e) const {
  if (sparse_) {
    const auto it = sparse_marks_.find(e);
    if (it == sparse_marks_.end()) return 0;
    return std::max(it->second.epochs[0], it->second.epochs[1]);
  }
  const std::size_t i = 2 * static_cast<std::size_t>(e);
  if (i + 1 >= half_epochs_.size()) return 0;
  return std::max(half_epochs_[i], half_epochs_[i + 1]);
}

std::uint32_t MarkedForest::max_mark_epoch() const {
  std::uint32_t best = 0;
  if (sparse_) {
    for (const auto& [e, sm] : sparse_marks_) {
      if (is_marked(e)) best = std::max(best, mark_epoch(e));
    }
    return best;
  }
  for (EdgeIdx e = 0; e < edge_slots_grown(); ++e) {
    if (is_marked(e)) best = std::max(best, mark_epoch(e));
  }
  return best;
}

void MarkedForest::unmark_half(EdgeIdx e, NodeId endpoint) {
  const int s = slot(e, endpoint);
  invalidate(endpoint);
  if (sparse_) {
    const auto it = sparse_marks_.find(e);
    if (it == sparse_marks_.end()) return;
    it->second.marks[s] = 0;
    it->second.epochs[s] = 0;
    return;
  }
  ensure_size(e);
  const std::size_t i = 2 * static_cast<std::size_t>(e) + s;
  half_marks_[i] = 0;
  half_epochs_[i] = 0;
}

bool MarkedForest::half_marked(EdgeIdx e, NodeId endpoint) const {
  const int s = slot(e, endpoint);
  if (sparse_) {
    const auto it = sparse_marks_.find(e);
    return it != sparse_marks_.end() && it->second.marks[s] != 0;
  }
  const std::size_t i = 2 * static_cast<std::size_t>(e) + s;
  return i < half_marks_.size() && half_marks_[i] != 0;
}

void MarkedForest::mark_edge(EdgeIdx e, std::uint32_t epoch) {
  invalidate_endpoints(e);
  if (sparse_) {
    SparseMarks& sm = sparse_marks_[e];
    sm.marks[0] = sm.marks[1] = 1;
    sm.epochs[0] = sm.epochs[1] = epoch;
    return;
  }
  ensure_size(e);
  const std::size_t i = 2 * static_cast<std::size_t>(e);
  half_marks_[i] = half_marks_[i + 1] = 1;
  half_epochs_[i] = half_epochs_[i + 1] = epoch;
}

void MarkedForest::unmark_edge(EdgeIdx e) { clear_edge(e); }

void MarkedForest::clear_edge(EdgeIdx e) {
  invalidate_endpoints(e);
  if (sparse_) {
    sparse_marks_.erase(e);
    return;
  }
  ensure_size(e);
  const std::size_t i = 2 * static_cast<std::size_t>(e);
  half_marks_[i] = half_marks_[i + 1] = 0;
  half_epochs_[i] = half_epochs_[i + 1] = 0;
}

void MarkedForest::clear_all() {
  sparse_marks_.clear();
  std::fill(half_marks_.begin(), half_marks_.end(), 0);
  std::fill(half_epochs_.begin(), half_epochs_.end(), 0);
  std::fill(slabs_.begin(), slabs_.end(), TreeSlab{});
  pool_.reset();
}

bool MarkedForest::properly_marked() const {
  if (sparse_) {
    for (const auto& [e, sm] : sparse_marks_) {
      if (sm.marks[0] != sm.marks[1]) return false;
    }
    return true;
  }
  for (EdgeIdx e = 0; e < edge_slots_grown(); ++e) {
    const std::size_t i = 2 * static_cast<std::size_t>(e);
    if (half_marks_[i] != half_marks_[i + 1]) return false;
  }
  return true;
}

std::vector<EdgeIdx> MarkedForest::marked_edges() const {
  std::vector<EdgeIdx> out;
  if (sparse_) {
    for (const auto& [e, sm] : sparse_marks_) {
      if (is_marked(e)) out.push_back(e);
    }
    return out;
  }
  for (EdgeIdx e = 0; e < edge_slots_grown(); ++e) {
    if (is_marked(e)) out.push_back(e);
  }
  return out;
}

std::vector<Incidence> MarkedForest::marked_incident(NodeId v) const {
  std::vector<Incidence> out;
  for (const Incidence& inc : TreeView(*this).neighbors(v)) out.push_back(inc);
  return out;
}

std::size_t MarkedForest::marked_degree(NodeId v) const {
  return TreeView(*this).degree(v);
}

std::pair<std::vector<std::uint32_t>, std::size_t> MarkedForest::components()
    const {
  const std::size_t n = graph_->node_count();
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> label(n, kUnset);
  std::uint32_t next = 0;
  const TreeView tree(*this);
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    if (label[s] != kUnset) continue;
    label[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const Incidence& inc : tree.neighbors(v)) {
        if (label[inc.peer] == kUnset) {
          label[inc.peer] = next;
          queue.push_back(inc.peer);
        }
      }
    }
    ++next;
  }
  return {std::move(label), next};
}

std::vector<NodeId> MarkedForest::component_of(NodeId root) const {
  std::vector<NodeId> out{root};
  std::vector<char> seen(graph_->node_count(), 0);
  seen[root] = 1;
  const TreeView tree(*this);
  std::deque<NodeId> queue{root};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const Incidence& inc : tree.neighbors(v)) {
      if (!seen[inc.peer]) {
        seen[inc.peer] = 1;
        out.push_back(inc.peer);
        queue.push_back(inc.peer);
      }
    }
  }
  return out;
}

bool MarkedForest::verify_state() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    const TreeSlab& s = slabs_[v];
    if (s.len > s.cap) return false;
    if (s.cap > 0) {
      const std::uint64_t first = s.offset;
      const std::uint64_t last = first + s.cap;  // exclusive
      if (last > pool_.tail() ||
          SlabPool::segment_of(first) != SlabPool::segment_of(last - 1)) {
        return false;
      }
      extents.emplace_back(first, last);
    }
    if (s.row_version != graph_->row_version(v)) continue;  // rebuilt on read
    // A fresh entry must equal the full-row own-half filter, in row order.
    std::uint32_t k = 0;
    for (const Incidence& inc : graph_->incident(v)) {
      if (!own_half_marked(inc.edge, v)) continue;
      if (k == s.len) return false;
      const Incidence& got = pool_.at(s.offset)[k++];
      if (got.edge != inc.edge || got.peer != inc.peer) return false;
    }
    if (k != s.len) return false;
  }
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) return false;
  }
  return true;
}

bool MarkedForest::is_forest() const {
  Dsu dsu(graph_->node_count());
  for (EdgeIdx e : marked_edges()) {
    if (!dsu.unite(graph_->edge(e).u, graph_->edge(e).v)) return false;
  }
  return true;
}

bool MarkedForest::is_spanning_forest() const {
  return properly_marked() &&
         graph::is_spanning_forest(*graph_, marked_edges());
}

}  // namespace kkt::graph
