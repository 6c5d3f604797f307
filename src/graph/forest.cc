#include "graph/forest.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <utility>

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
    assert(k < kSegments && "mark store pool exhausted");
    tail_ = segment_start(k);
  }
  auto& seg = segments_[static_cast<std::size_t>(k)];
  if (seg == nullptr) {
    // Left uninitialised: the OS backs only the pages slabs actually touch.
    seg = std::make_unique_for_overwrite<Entry[]>(std::size_t{1}
                                                  << (kShift + k));
  }
  const auto offset = static_cast<std::uint32_t>(tail_);
  tail_ += cap;
  return offset;
}

void MarkedForest::SlabPool::release(std::uint32_t offset, std::uint32_t cap) {
  if (cap < free_.size()) free_[cap].push_back(offset);
}

void MarkedForest::append(NodeId v, const Entry& x) {
  NodeMarks& m = nodes_[v];
  if (m.len == m.cap) {
    // Full: move to a slab twice the size and recycle the old one.
    const std::uint32_t cap = m.cap == 0 ? 2 : 2 * m.cap;
    const std::uint32_t offset = pool_.allocate(cap);
    if (m.len > 0) std::copy_n(pool_.at(m.offset), m.len, pool_.at(offset));
    if (m.cap > 0) pool_.release(m.offset, m.cap);
    m.offset = offset;
    m.cap = cap;
  }
  pool_.at(m.offset)[m.len++] = x;
  m.row_version = kStaleRow;
}

MarkedForest::Entry* MarkedForest::find(NodeId v, EdgeIdx e) const {
  for (Entry& x : entries(v)) {
    if (x.inc.edge == e) return &x;
  }
  return nullptr;
}

void MarkedForest::reorder(NodeId v) const {
  nodes_[v].row_version = graph_->row_version(v);
  const std::span<Entry> list = entries(v);
  if (list.size() < 2) return;  // nothing to order
  std::uint32_t alive = 0;
  for (std::uint32_t i = 0; i < list.size(); ++i) {
    if (!graph_->alive(list[i].inc.edge)) continue;
    slot_of_peer_[list[i].inc.peer] = i;
    ++alive;
  }
  // Swap each alive entry, in row order, into the next front position;
  // dead entries end up behind them.
  std::uint32_t k = 0;
  for (const Incidence& inc : graph_->incident(v)) {
    if (k == alive) break;
    const std::uint32_t j = slot_of_peer_[inc.peer];
    if (j == kNoSlot) continue;
    assert(list[j].inc.edge == inc.edge);
    std::swap(list[k], list[j]);
    // The entry moved out of slot k keeps its scratch slot current (a dead
    // entry has none; its peer may be an alive entry's peer too).
    if (slot_of_peer_[list[j].inc.peer] == k) {
      slot_of_peer_[list[j].inc.peer] = j;
    }
    slot_of_peer_[inc.peer] = kNoSlot;
    ++k;
  }
}

void MarkedForest::mark_half(EdgeIdx e, NodeId endpoint, std::uint32_t epoch) {
  assert(epoch != kUnmarked);
  const NodeId peer = graph_->edge(e).other(endpoint);
  Entry* mirror = find(peer, e);
  if (mirror != nullptr) mirror->peer_epoch = epoch;
  if (Entry* own = find(endpoint, e)) {
    own->own_epoch = epoch;
    return;
  }
  append(endpoint,
         {{peer, e}, epoch, mirror != nullptr ? mirror->own_epoch : kUnmarked});
}

void MarkedForest::unmark_half(EdgeIdx e, NodeId endpoint) {
  Entry* own = find(endpoint, e);
  if (own == nullptr) return;
  const NodeId peer = own->inc.peer;
  const std::span<Entry> list = entries(endpoint);
  std::copy(own + 1, list.data() + list.size(), own);  // keeps row order
  --nodes_[endpoint].len;
  if (Entry* mirror = find(peer, e)) mirror->peer_epoch = kUnmarked;
}

std::uint32_t MarkedForest::mark_epoch(EdgeIdx e) const {
  const Edge ed = graph_->edge(e);
  if (const Entry* x = find(ed.u, e)) {
    return x->peer_epoch == kUnmarked ? x->own_epoch
                                      : std::max(x->own_epoch, x->peer_epoch);
  }
  const Entry* x = find(ed.v, e);
  return x != nullptr ? x->own_epoch : 0;
}

bool MarkedForest::is_marked_at(EdgeIdx e, std::uint32_t epoch_limit) const {
  // Either endpoint's entry carries both epochs: scan the shorter list.
  const Edge ed = graph_->edge(e);
  const Entry* x = find(nodes_[ed.u].len <= nodes_[ed.v].len ? ed.u : ed.v, e);
  return x != nullptr && x->peer_epoch != kUnmarked &&
         std::max(x->own_epoch, x->peer_epoch) <= epoch_limit &&
         graph_->alive(e);
}

std::uint32_t MarkedForest::max_mark_epoch() const {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    for (const Entry& x : entries(v)) {
      if (x.peer_epoch != kUnmarked && graph_->alive(x.inc.edge)) {
        best = std::max({best, x.own_epoch, x.peer_epoch});
      }
    }
  }
  return best;
}

void MarkedForest::mark_edge(EdgeIdx e, std::uint32_t epoch) {
  const Edge ed = graph_->edge(e);
  mark_half(e, ed.u, epoch);
  mark_half(e, ed.v, epoch);
}

void MarkedForest::clear_edge(EdgeIdx e) {
  const Edge ed = graph_->edge(e);
  unmark_half(e, ed.u);
  unmark_half(e, ed.v);
}

void MarkedForest::clear_all() {
  for (NodeMarks& m : nodes_) m.len = 0;  // slabs retained
}

bool MarkedForest::properly_marked() const {
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    for (const Entry& x : entries(v)) {
      if (x.peer_epoch == kUnmarked) return false;
    }
  }
  return true;
}

std::vector<EdgeIdx> MarkedForest::marked_edges() const {
  std::vector<EdgeIdx> out;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    for (const Entry& x : entries(v)) {
      // Each marked edge once: from its smaller endpoint's entry.
      if (v < x.inc.peer && x.peer_epoch != kUnmarked &&
          graph_->alive(x.inc.edge)) {
        out.push_back(x.inc.edge);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Incidence> MarkedForest::marked_incident(NodeId v) const {
  std::vector<Incidence> out;
  for (const Incidence& inc : TreeView(*this).neighbors(v)) out.push_back(inc);
  return out;
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

std::vector<std::vector<NodeId>> MarkedForest::fragments() const {
  const auto [label, count] = components();
  std::vector<std::vector<NodeId>> out(count);
  for (NodeId v = 0; v < label.size(); ++v) out[label[v]].push_back(v);
  return out;
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
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    const NodeMarks& m = nodes_[v];
    if (m.len > m.cap) return false;
    if (m.cap > 0) {
      const std::uint64_t first = m.offset;
      const std::uint64_t last = first + m.cap;  // exclusive
      if (last > pool_.tail() ||
          SlabPool::segment_of(first) != SlabPool::segment_of(last - 1)) {
        return false;
      }
      extents.emplace_back(first, last);
    }
    const std::span<const Entry> list = entries(v);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Entry& x = list[i];
      if (x.inc.edge >= graph_->edge_slots() || x.own_epoch == kUnmarked) {
        return false;
      }
      const Edge ed = graph_->edge(x.inc.edge);
      if (!((ed.u == v && ed.v == x.inc.peer) ||
            (ed.v == v && ed.u == x.inc.peer))) {
        return false;
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (list[j].inc.edge == x.inc.edge) return false;  // listed twice
      }
      const Entry* mirror = find(x.inc.peer, x.inc.edge);
      if (x.peer_epoch != (mirror != nullptr ? mirror->own_epoch : kUnmarked)) {
        return false;
      }
    }
    if (m.row_version != graph_->row_version(v)) continue;  // stale
    // Fresh: the alive entries, in row order, then only dead ones.
    std::size_t k = 0;
    for (const Incidence& inc : graph_->incident(v)) {
      if (k < list.size() && list[k].inc.edge == inc.edge) ++k;
    }
    for (; k < list.size(); ++k) {
      if (graph_->alive(list[k].inc.edge)) return false;
    }
  }
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) return false;  // overlap
  }
  return std::all_of(slot_of_peer_.begin(), slot_of_peer_.end(),
                     [](std::uint32_t s) { return s == kNoSlot; });
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
