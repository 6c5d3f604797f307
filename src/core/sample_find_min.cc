#include "core/sample_find_min.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <vector>

#include "core/hp_test_out.h"
#include "core/test_out.h"
#include "core/wire.h"
#include "hashing/odd_hash.h"
#include "util/bits.h"

namespace kkt::core {
namespace {

constexpr int kChunkBits = 16;
// Random pivots requested per Sample call.
constexpr int kSamples = 4;
constexpr std::uint64_t kChunkMask = (1u << kChunkBits) - 1;

// Search coordinates: the augmented weight is viewed as `levels` chunks of
// kChunkBits; `fixed` chunks of prefix are decided, and within the next
// chunk the value lies in [j, k].
struct SearchState {
  int total_bits;   // padded augmented-weight width (multiple of kChunkBits)
  util::u128 prefix = 0;  // the decided high chunks, right-aligned
  int fixed_bits = 0;
  std::uint32_t j = 0;
  std::uint32_t k = kChunkMask;

  int shift() const { return total_bits - fixed_bits - kChunkBits; }

  // Augmented-weight interval covered by (prefix, [lo_chunk, hi_chunk]).
  Interval interval(std::uint32_t lo_chunk, std::uint32_t hi_chunk) const {
    const util::u128 base = prefix << (total_bits - fixed_bits);
    const util::u128 lo = base + (static_cast<util::u128>(lo_chunk) << shift());
    const util::u128 hi = base +
                          (static_cast<util::u128>(hi_chunk) << shift()) +
                          ((util::u128{1} << shift()) - 1);
    return Interval{lo, hi};
  }
  Interval current() const { return interval(j, k); }
};

// --- the distributed Sample(j, k) routine (paper, Appendix A) ---------------
//
// Two waves in one protocol run:
//   wave A: broadcast the interval; convergecast per-subtree counts of
//           matching non-tree incident edges (each node remembers its own
//           local count and each child's subtree count);
//   wave B: the root splits its r sample requests among itself and its
//           children proportionally to the counts; requests flow down,
//           sampled next-chunk values flow back up, at most r per message.
class SampleProtocol final : public sim::Protocol {
 public:
  SampleProtocol(graph::TreeView tree, NodeId root, Interval range, int shift,
                 int samples)
      : tree_(std::move(tree)),
        root_(root),
        range_(range),
        shift_(shift),
        samples_(samples),
        state_(tree_.graph().node_count()) {}

  void on_start(sim::Network& net, NodeId self) override {
    assert(self == root_);
    begin(net, self, graph::kNoNode);
  }

  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    switch (msg.tag) {
      case sim::Tag::kBroadcast:
        begin(net, self, from);
        break;
      case sim::Tag::kEcho: {  // wave A: subtree count from a child
        NodeState& st = state_[self];
        st.child_ids.push_back(from);
        st.child_counts.push_back(msg.words.at(0));
        assert(st.pending_counts > 0);
        if (--st.pending_counts == 0) counts_ready(net, self);
        break;
      }
      case sim::Tag::kSampleRequest:
        dispatch_requests(net, self, msg.words.at(0));
        break;
      case sim::Tag::kSampleReply: {
        NodeState& st = state_[self];
        for (std::uint64_t v : msg.words) st.collected.push_back(v);
        assert(st.pending_replies > 0);
        if (--st.pending_replies == 0) reply_up(net, self);
        break;
      }
      default:
        assert(false && "unexpected message tag in SampleProtocol");
    }
  }

  // Sampled next-chunk values (valid after quiescence). May be fewer than
  // requested when fewer matching edges exist.
  const std::vector<std::uint64_t>& samples() const {
    return state_[root_].collected;
  }

 private:
  struct NodeState {
    bool started = false;
    NodeId parent = graph::kNoNode;
    std::uint32_t pending_counts = 0;
    std::vector<NodeId> child_ids;
    std::vector<std::uint64_t> child_counts;
    std::uint64_t local_count = 0;
    std::uint64_t subtree_count = 0;
    std::uint32_t pending_replies = 0;
    std::vector<std::uint64_t> collected;  // chunk values gathered so far
  };

  std::vector<graph::EdgeIdx> matching_edges(NodeId self) const {
    std::vector<graph::EdgeIdx> out;
    for (const graph::Incidence& inc : tree_.graph().incident(self)) {
      if (tree_.contains(inc.edge)) continue;  // tree edges excluded
      if (range_.contains(tree_.graph().aug_weight(inc.edge))) {
        out.push_back(inc.edge);
      }
    }
    return out;
  }

  void begin(sim::Network& net, NodeId self, NodeId parent) {
    NodeState& st = state_[self];
    assert(!st.started);
    st.started = true;
    st.parent = parent;
    st.local_count = matching_edges(self).size();
    std::uint32_t children = 0;
    for (const graph::Incidence& inc : tree_.neighbors(self)) {
      if (inc.peer == parent) continue;
      net.send(self, inc.peer, sim::Message(sim::Tag::kBroadcast));
      ++children;
    }
    st.pending_counts = children;
    if (children == 0) counts_ready(net, self);
  }

  void counts_ready(sim::Network& net, NodeId self) {
    NodeState& st = state_[self];
    st.subtree_count = st.local_count;
    for (std::uint64_t c : st.child_counts) st.subtree_count += c;
    if (self == root_) {
      // Wave A complete: the root launches wave B with the full budget.
      dispatch_requests(net, self, static_cast<std::uint64_t>(samples_));
    } else {
      net.send(self, st.parent,
               sim::Message(sim::Tag::kEcho, {st.subtree_count}));
    }
  }

  // Split `budget` samples between this node's local edges and its
  // children's subtrees, proportionally to their counts.
  void dispatch_requests(sim::Network& net, NodeId self,
                         std::uint64_t budget) {
    NodeState& st = state_[self];
    budget = std::min(budget, st.subtree_count);
    std::uint64_t local_take = 0;
    std::vector<std::uint64_t> child_take(st.child_ids.size(), 0);
    for (std::uint64_t s = 0; s < budget; ++s) {
      std::uint64_t pick = net.node_rng(self).below(st.subtree_count);
      if (pick < st.local_count) {
        ++local_take;
        continue;
      }
      pick -= st.local_count;
      for (std::size_t c = 0; c < st.child_counts.size(); ++c) {
        if (pick < st.child_counts[c]) {
          ++child_take[c];
          break;
        }
        pick -= st.child_counts[c];
      }
    }
    // Local samples: uniform matching edges (with replacement, as in the
    // paper's 1/m-or-2/m sampling).
    const auto mine = matching_edges(self);
    for (std::uint64_t s = 0; s < local_take; ++s) {
      const graph::EdgeIdx e = mine[net.node_rng(self).below(mine.size())];
      const util::u128 aug = tree_.graph().aug_weight(e);
      st.collected.push_back(
          static_cast<std::uint64_t>((aug >> shift_) & kChunkMask));
    }
    // Child requests.
    st.pending_replies = 0;
    for (std::size_t c = 0; c < st.child_ids.size(); ++c) {
      if (child_take[c] == 0) continue;
      net.send(self, st.child_ids[c],
               sim::Message(sim::Tag::kSampleRequest, {child_take[c]}));
      ++st.pending_replies;
    }
    if (st.pending_replies == 0) reply_up(net, self);
  }

  void reply_up(sim::Network& net, NodeId self) {
    if (self == root_) {
      done_ = true;
      return;
    }
    NodeState& st = state_[self];
    sim::Message reply(sim::Tag::kSampleReply);
    reply.words.assign(st.collected.begin(), st.collected.end());
    assert(!reply.words.overflowed());
    net.send(self, st.parent, reply);
  }

  graph::TreeView tree_;
  NodeId root_;
  Interval range_;
  int shift_;
  int samples_;
  std::vector<NodeState> state_;
  bool done_ = false;
};

// One TestOut broadcast-and-echo over the chunk intervals defined by the
// pivot list: interval 0 is [j, p0 - 1], interval t is [p_{t-1}, p_t - 1],
// the last interval is [p_last, k]. Pivots are strictly inside (j, k].
// Returns the bitmask of positive intervals (pivots.size() + 1 of them).
std::uint64_t test_out_pivots(proto::TreeOps& ops, NodeId root,
                              const SearchState& ss,
                              const std::vector<std::uint32_t>& pivots,
                              std::uint64_t seed, int reps) {
  assert(pivots.size() <= 7);
  const graph::Graph& g = ops.graph();

  // Payload: [seed, base.hi, base.lo, shift, j|k|npiv|reps, pivots x2].
  const util::u128 base = ss.prefix << (ss.total_bits - ss.fixed_bits);
  Words payload{seed};
  push_u128(payload, base);
  payload.push_back(static_cast<std::uint64_t>(ss.shift()));
  payload.push_back(static_cast<std::uint64_t>(ss.j) |
                    (static_cast<std::uint64_t>(ss.k) << 16) |
                    (static_cast<std::uint64_t>(pivots.size()) << 32) |
                    (static_cast<std::uint64_t>(reps) << 40));
  std::uint64_t packed[2] = {0, 0};
  for (std::size_t i = 0; i < pivots.size(); ++i) {
    packed[i / 4] |= static_cast<std::uint64_t>(pivots[i]) << (16 * (i % 4));
  }
  payload.push_back(packed[0]);
  payload.push_back(packed[1]);

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> p) {
    const std::uint64_t sd = p[0];
    const util::u128 base_in = read_u128(p, 1);
    const int shift = static_cast<int>(p[3]);
    const auto j_in = static_cast<std::uint32_t>(p[4] & kChunkMask);
    const auto k_in = static_cast<std::uint32_t>((p[4] >> 16) & kChunkMask);
    const int npiv = static_cast<int>((p[4] >> 32) & 0xff);
    const int repetitions = static_cast<int>((p[4] >> 40) & 0xff);
    std::uint32_t piv[7];
    for (int i = 0; i < npiv; ++i) {
      piv[i] = static_cast<std::uint32_t>((p[5 + i / 4] >> (16 * (i % 4))) &
                                          kChunkMask);
    }
    const util::u128 span_lo =
        base_in + (static_cast<util::u128>(j_in) << shift);
    const util::u128 span_hi = base_in +
                               (static_cast<util::u128>(k_in) << shift) +
                               ((util::u128{1} << shift) - 1);

    std::vector<hashing::OddHash> hashes;
    hashes.reserve(repetitions);
    for (int r = 0; r < repetitions; ++r) {
      hashes.push_back(hashing::OddHash::from_seed(sd, r));
    }
    Words parities(repetitions, 0);
    for (const graph::Incidence& inc : g.incident(self)) {
      const graph::AugWeight aug = g.aug_weight(inc.edge);
      if (aug < span_lo || aug > span_hi) continue;
      const auto chunk =
          static_cast<std::uint32_t>((aug >> shift) & kChunkMask);
      int t = 0;  // number of pivots <= chunk
      while (t < npiv && piv[t] <= chunk) ++t;
      const std::uint64_t bit = std::uint64_t{1} << t;
      const graph::EdgeNum en = g.edge_num(inc.edge);
      for (int r = 0; r < repetitions; ++r) {
        if (hashes[r](en)) parities[r] ^= bit;
      }
    }
    return parities;
  };

  Words result =
      ops.broadcast_echo(root, std::move(payload), local, proto::combine_xor());
  std::uint64_t positive = 0;
  for (std::uint64_t wd : result) positive |= wd;
  return positive;
}

}  // namespace

FindMinResult sample_find_min(proto::TreeOps& ops, NodeId root,
                              const SampleFindMinConfig& cfg) {
  assert(cfg.hash_reps >= 1 && cfg.hash_reps <= 8);
  FindMinResult res;
  util::Rng& rng = ops.net().node_rng(root);
  const graph::Graph& g = ops.graph();

  // Gate: any leaving edge at all? (Also bounds the failure probability.)
  if (!hp_test_out_any(ops, root).leaving) return res;

  // Bound the searched width from above (step 2 of FindMin): chunks above
  // the largest incident augmented weight are all zero and need no rounds.
  const graph::AugWeight max_aug = max_incident_aug(ops, root);
  if (max_aug == 0) return res;

  SearchState ss{/*total_bits=*/0};
  {
    const int raw_bits = util::bit_width_u128(max_aug);
    ss.total_bits = ((raw_bits + kChunkBits - 1) / kChunkBits) * kChunkBits;
  }

  const int levels = ss.total_bits / kChunkBits;
  const int budget = 16 * (levels + kChunkBits) * cfg.c;

  for (int iter = 0; iter < budget; ++iter) {
    ++res.stats.iterations;

    // Sample pivots from the matching non-tree incident edges.
    SampleProtocol sampler(ops.tree(), root, ss.current(), ss.shift(),
                           kSamples);
    const NodeId participants[] = {root};
    ops.net().run(sampler, participants);
    ops.net().metrics().broadcast_echoes += 2;  // two waves

    // Pivots: for each sampled chunk c, both c and c+1 (so a sampled chunk
    // gets its own singleton interval, enabling the paper's
    // "jmin = jmin+1 => extend prefix" step in one round), plus the chunk
    // midpoint as a worst-case-halving fallback. All strictly in (j, k].
    std::vector<std::uint32_t> pivots;
    for (std::uint64_t s : sampler.samples()) {
      const auto chunk = static_cast<std::uint32_t>(s);
      for (std::uint32_t c : {chunk, chunk + 1}) {
        if (c > ss.j && c <= ss.k) pivots.push_back(c);
      }
    }
    if (ss.k > ss.j) {
      pivots.push_back(ss.j + (ss.k - ss.j) / 2 + 1);
    }
    std::sort(pivots.begin(), pivots.end());
    pivots.erase(std::unique(pivots.begin(), pivots.end()), pivots.end());
    if (pivots.size() > 7) pivots.resize(7);

    const std::uint64_t bits = test_out_pivots(ops, root, ss, pivots,
                                               rng.next(), cfg.hash_reps);
    const int intervals = static_cast<int>(pivots.size()) + 1;

    if (bits == 0) {
      // Verify the whole current range is empty (cf. FindMin's step 7b).
      if (!hp_test_out(ops, root, ss.current()).leaving) {
        // The invariant says the minimum lives here; an empty range means
        // the tree has no leaving edge after all (or an HP miss, covered
        // by the failure analysis).
        return res;
      }
      continue;  // TestOut missed; rerun with fresh hashes and pivots
    }

    const int min_idx = std::countr_zero(bits);
    assert(min_idx < intervals);
    const std::uint32_t lo_chunk = min_idx == 0 ? ss.j : pivots[min_idx - 1];
    const std::uint32_t hi_chunk = min_idx == intervals - 1
                                       ? ss.k
                                       : pivots[min_idx] - 1;

    // TestLow: nothing lighter within the current chunk range.
    if (lo_chunk > ss.j &&
        hp_test_out(ops, root, ss.interval(ss.j, lo_chunk - 1)).leaving) {
      continue;
    }

    if (lo_chunk == hi_chunk) {
      // Chunk isolated: extend the prefix.
      ss.prefix = (ss.prefix << kChunkBits) | lo_chunk;
      ss.fixed_bits += kChunkBits;
      ss.j = 0;
      ss.k = kChunkMask;
      if (ss.fixed_bits == ss.total_bits) {
        res.found = true;
        res.aug = ss.prefix;
        res.edge_num = graph::aug_weight_edge_num(ss.prefix,
                                                  g.edge_num_bits());
        res.stats.narrowings = res.stats.iterations;
        return res;
      }
    } else {
      ss.j = lo_chunk;
      ss.k = hi_chunk;
    }
    ++res.stats.narrowings;
  }

  res.stats.budget_exhausted = true;
  return res;
}

}  // namespace kkt::core
