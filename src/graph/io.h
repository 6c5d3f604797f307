// Plain-text graph (de)serialization, DIMACS-flavored.
//
// Format (one record per line, '#' comments allowed):
//   p <n> <m>            -- header: node count (1 <= n <= 2^30 - 1), edge
//                           count
//   i <node> <ext_id>    -- optional: external ID assignment, distinct and
//                           in [1, 2^31) (default: the usual random
//                           polynomial IDs)
//   e <u> <v> <w>        -- edge with raw weight w (u, v are 0-based)
// Used by the CLI lab tool and handy for pinning down regression cases.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/graph.h"

namespace kkt::graph {

// Writes g (alive edges only, with external IDs) to the stream.
void write_graph(std::ostream& os, const Graph& g);
bool write_graph_file(const std::string& path, const Graph& g);

// Parses a graph; returns nullopt (with a message in *error if non-null)
// on malformed input. When the file carries no `i` records, external IDs
// are drawn from rng.
std::optional<Graph> read_graph(std::istream& is, util::Rng& rng,
                                std::string* error = nullptr);
std::optional<Graph> read_graph_file(const std::string& path, util::Rng& rng,
                                     std::string* error = nullptr);

}  // namespace kkt::graph
