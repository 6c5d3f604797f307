#include "probes.h"

#include <memory>
#include <span>
#include <vector>

#include "graph/mst_oracle.h"
#include "hashing/odd_hash.h"
#include "proto/tree_ops.h"
#include "sim/network.h"
#include "util/rng.h"

namespace kkt::perfbench {
namespace {

using graph::NodeId;

// Repeats a probe until it has at least `min_reps` samples and `min_s`
// seconds of them; returns the median of the per-sample values.
template <typename F>
double repeat_median(int min_reps, double min_s, F&& sample) {
  std::vector<double> values;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(values.size()) < min_reps ||
         static_cast<double>(now_ns() - start) * 1e-9 < min_s) {
    values.push_back(sample());
  }
  return median(std::move(values));
}

// One message from `self` to a fixed neighbour: the fixed cost of a run.
class PingOnce final : public sim::Protocol {
 public:
  explicit PingOnce(NodeId to) : to_(to) {}
  void on_start(sim::Network& net, NodeId self) override {
    net.send(self, to_, sim::Message(sim::Tag::kNone));
  }
  void on_message(sim::Network&, NodeId, NodeId,
                  const sim::Message&) override {}

 private:
  NodeId to_;
};

// Bulk delivery: every node pings its first few neighbours and answers
// each ping with one pong.
class PingPong final : public sim::Protocol {
 public:
  explicit PingPong(const std::vector<std::vector<NodeId>>& peers)
      : peers_(&peers) {}
  void on_start(sim::Network& net, NodeId self) override {
    for (const NodeId p : (*peers_)[self]) {
      net.send(self, p, sim::Message(sim::Tag::kNone, {0}));
    }
  }
  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    if (msg.words[0] == 0) {
      net.send(self, from, sim::Message(sim::Tag::kNone, {1}));
    }
  }

 private:
  const std::vector<std::vector<NodeId>>* peers_;
};

constexpr std::size_t kFanout = 8;

double incident_probe(const graph::Graph& g, Tracer& tracer,
                      std::uint64_t& sink) {
  return repeat_median(5, 0.2, [&] {
    std::uint64_t slots = 0;
    const double s = timed(tracer, "graph::Graph::incident", [&] {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        for (const graph::Incidence& inc : g.incident(v)) {
          sink += inc.peer ^ inc.edge;
          ++slots;
        }
      }
    });
    return s * 1e9 / static_cast<double>(slots);
  });
}

double premark_probe(const graph::Graph& g, Tracer& tracer, bool& ok) {
  return repeat_median(3, 0.0, [&] {
    graph::MarkedForest forest(g);
    std::vector<graph::EdgeIdx> msf;
    const double s = timed(tracer, "graph::kruskal_msf",
                           [&] { msf = graph::kruskal_msf(g); }) +
                     timed(tracer, "graph::MarkedForest::mark_edge", [&] {
                       for (const graph::EdgeIdx e : msf) forest.mark_edge(e);
                     });
    ok = ok && forest.marked_edges() == msf;
    return s;
  });
}

double run_probe(const graph::Graph& g, const scenario::NetSpec& spec,
                 std::uint64_t seed, Tracer& tracer, bool& ok) {
  const auto net = scenario::make_network(g, spec, seed);
  PingOnce proto(g.incident(0).front().peer);
  const NodeId participants[] = {0};
  constexpr int kRuns = 20000;
  return repeat_median(5, 0.0, [&] {
    const std::uint64_t before = net->metrics().messages;
    const double s = timed(tracer, "sim::Network::run", [&] {
      for (int i = 0; i < kRuns; ++i) net->run(proto, participants);
    });
    ok = ok && net->metrics().messages - before == kRuns;
    return s * 1e9 / kRuns;
  });
}

double bulk_probe(const graph::Graph& g, const scenario::NetSpec& spec,
                  std::uint64_t seed, Tracer& tracer, bool& ok) {
  std::vector<std::vector<NodeId>> peers(g.node_count());
  std::vector<NodeId> everyone(g.node_count());
  std::uint64_t expected = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    everyone[v] = v;
    for (const graph::Incidence& inc : g.incident(v)) {
      if (peers[v].size() == kFanout) break;
      peers[v].push_back(inc.peer);
    }
    expected += 2 * peers[v].size();
  }
  const auto net = scenario::make_network(g, spec, seed);
  PingPong proto(peers);
  return repeat_median(5, 0.2, [&] {
    const std::uint64_t before = net->metrics().messages;
    const double s = timed(tracer, "sim::Network::run",
                           [&] { net->run(proto, everyone); });
    const std::uint64_t sent = net->metrics().messages - before;
    ok = ok && sent == expected;
    return s * 1e9 / static_cast<double>(sent);
  });
}

double bcast_echo_probe(const WorkloadDef& def, std::uint64_t seed,
                        scenario::World& w, Tracer& tracer, bool& ok) {
  const auto net = scenario::make_network(w.graph(), def.net, seed);
  proto::TreeOps ops(*net, graph::TreeView(w.trees()));
  const proto::LocalFn one = [](NodeId, std::span<const std::uint64_t>) {
    return proto::Words{1};
  };
  const proto::CombineFn sum = proto::combine_sum();
  const std::size_t tree_size = w.trees().component_of(0).size();
  return repeat_median(5, 0.2, [&] {
    const std::uint64_t before = net->metrics().messages;
    proto::Words res;
    const double s = timed(tracer, "proto::TreeOps::broadcast_echo", [&] {
      res = ops.broadcast_echo(0, proto::Words{}, one, sum);
    });
    const std::uint64_t sent = net->metrics().messages - before;
    ok = ok && res.size() == 1 && res[0] == tree_size &&
         sent == 2 * (tree_size - 1);
    return s * 1e9 / static_cast<double>(sent);
  });
}

double odd_hash_probe(std::uint64_t seed, Tracer& tracer,
                      std::uint64_t& sink) {
  std::vector<std::uint64_t> keys(std::size_t{1} << 18);
  util::Rng rng(seed);
  for (std::uint64_t& k : keys) k = rng.next();
  int index = 0;
  return repeat_median(9, 0.1, [&] {
    // A fresh function each sample: no sample can reuse another's result.
    const auto h = hashing::OddHash::from_seed(seed, index++);
    bool parity = false;
    const double s = timed(tracer, "hashing::OddHash::parity", [&] {
      parity = h.parity(keys.begin(), keys.end());
    });
    sink += parity ? 1 : 0;
    return s * 1e9 / static_cast<double>(keys.size());
  });
}

}  // namespace

ProbeResult run_probes(const WorkloadDef& def, std::uint64_t seed,
                       scenario::World& world, Tracer& tracer,
                       HostSpeed& speed) {
  const Scope probes(tracer, "harness::probes");
  const graph::Graph& g = world.graph();
  const std::uint64_t net_seed = seed ^ scenario::kNetSeedSalt;
  ProbeResult p;
  std::uint64_t sink = 0;
  p.incident_ns_per_edge =
      speed.sample() * incident_probe(g, tracer, sink);
  p.premark_s = speed.sample() * premark_probe(g, tracer, p.ok);
  p.run_ns = speed.sample() * run_probe(g, def.net, net_seed, tracer, p.ok);
  p.sync_ns_per_msg = speed.sample() * bulk_probe(g, scenario::NetSpec::sync(),
                                                  net_seed, tracer, p.ok);
  p.async_ns_per_msg = speed.sample() * bulk_probe(
                           g, scenario::NetSpec::async(), net_seed, tracer, p.ok);
  p.bcast_echo_ns_per_msg =
      speed.sample() * bcast_echo_probe(def, net_seed, world, tracer, p.ok);
  p.odd_hash_ns = speed.sample() * odd_hash_probe(seed, tracer, sink);
  // The sink keeps the scans observable; it is never zero on a non-empty
  // graph.
  p.ok = p.ok && sink != 0;
  return p;
}

}  // namespace kkt::perfbench
