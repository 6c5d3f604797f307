#include "graph/io.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace kkt::graph {
namespace {

std::optional<Graph> fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return std::nullopt;
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << "# kkt-mst graph\n";
  os << "p " << g.node_count() << ' ' << g.edge_count() << '\n';
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "i " << v << ' ' << g.ext_id(v) << '\n';
  }
  for (EdgeIdx e : g.alive_edge_indices()) {
    const Edge& ed = g.edge(e);
    os << "e " << ed.u << ' ' << ed.v << ' ' << ed.weight << '\n';
  }
}

bool write_graph_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) return false;
  write_graph(out, g);
  return static_cast<bool>(out);
}

std::optional<Graph> read_graph(std::istream& is, util::Rng& rng,
                                std::string* error) {
  std::size_t n = 0, m = 0;
  bool have_header = false;
  std::vector<ExtId> ids;
  std::unordered_map<ExtId, NodeId> id_owner;  // distinctness check
  struct PendingEdge {
    NodeId u, v;
    Weight w;
  };
  std::vector<PendingEdge> edges;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    const auto bad = [&](const std::string& what) {
      return fail(error, "line " + std::to_string(lineno) + ": " + what);
    };
    if (kind == "p") {
      if (have_header) return bad("duplicate header");
      if (!(ls >> n >> m) || n == 0) return bad("malformed header");
      // The bound random_ext_ids draws default IDs under.
      if (n > kMaxExtId / 2) {
        return bad("node count exceeds " + std::to_string(kMaxExtId / 2));
      }
      have_header = true;
      ids.assign(n, 0);
    } else if (kind == "i") {
      if (!have_header) return bad("'i' before header");
      NodeId v = 0;
      ExtId id = 0;
      if (!(ls >> v >> id) || v >= n || id == 0 || id > kMaxExtId) {
        return bad("malformed id record");
      }
      if (ids[v] != 0) id_owner.erase(ids[v]);
      if (!id_owner.emplace(id, v).second) {
        return bad("duplicate external ID " + std::to_string(id));
      }
      ids[v] = id;
    } else if (kind == "e") {
      if (!have_header) return bad("'e' before header");
      NodeId u = 0, v = 0;
      Weight w = 0;
      if (!(ls >> u >> v >> w) || u >= n || v >= n || u == v || w == 0) {
        return bad("malformed edge record");
      }
      edges.push_back({u, v, w});
    } else {
      return bad("unknown record kind");
    }
  }
  if (!have_header) return fail(error, "missing 'p' header");
  if (edges.size() != m) {
    return fail(error, "edge count mismatch: header says " +
                           std::to_string(m) + ", found " +
                           std::to_string(edges.size()));
  }

  // Full ID assignment provided? Otherwise draw the default random IDs.
  bool all_ids = true;
  for (ExtId id : ids) all_ids &= (id != 0);
  std::optional<Graph> g;
  if (all_ids) {
    g.emplace(std::move(ids));
  } else {
    g.emplace(n, rng);
  }
  for (const PendingEdge& pe : edges) {
    if (g->find_edge(pe.u, pe.v).has_value()) {
      return fail(error, "duplicate edge {" + std::to_string(pe.u) + "," +
                             std::to_string(pe.v) + "}");
    }
    g->add_edge(pe.u, pe.v, pe.w);
  }
  return g;
}

std::optional<Graph> read_graph_file(const std::string& path, util::Rng& rng,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open " + path);
  return read_graph(in, rng, error);
}

}  // namespace kkt::graph
