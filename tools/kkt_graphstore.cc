// kkt_graphstore CLI: pack graphs into the .kkg mmap store and inspect
// store files (format in graph/store.h and docs/GRAPH_STORE.md).
//
//   kkt_graphstore pack --family F --n N [--seed S] [--m M] [--aux A]
//                       [--param P] [--maxw W] --out FILE
//       Generate a scenario family (any name scenario::family_from_name
//       accepts, including the implicit families) and pack its alive edges.
//   kkt_graphstore pack --text graph.txt [--seed S] --out FILE
//       Pack a DIMACS-flavored text graph (graph/io.h).
//   kkt_graphstore info FILE
//       Print the header fields, then run the full loader validation and
//       report OK or the diagnostic. Exit 0 only for a valid store.
//
// Exit codes: 0 ok, 1 validation/pack failure, 2 usage error (including a
// malformed number, a size the family cannot take, or a --text file the
// loader rejects).
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/store.h"
#include "scenario/scenario.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

int usage() {
  std::cerr
      << "usage: kkt_graphstore pack --family F --n N [--seed S] [--m M]"
         " [--aux A] [--param P] [--maxw W] --out FILE\n"
         "       kkt_graphstore pack --text FILE [--seed S] --out FILE\n"
         "       kkt_graphstore info FILE\n";
  return 2;
}

std::uint64_t get_u32_at(const unsigned char* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

std::uint64_t get_u64_at(const unsigned char* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

int cmd_info(const std::string& path) {
  // Raw header dump first (works even for files the loader rejects), then
  // the loader's verdict.
  unsigned char header[kkt::graph::kStoreHeaderBytes] = {};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::cerr << "kkt_graphstore: cannot open " << path << "\n";
    return 1;
  }
  const std::size_t got = std::fread(header, 1, sizeof(header), f);
  std::fclose(f);
  if (got < sizeof(header)) {
    std::cerr << "kkt_graphstore: " << path << ": file shorter than a header ("
              << got << " bytes)\n";
    return 1;
  }
  std::cout << "file:      " << path << "\n";
  std::cout << "magic:     0x" << std::hex << get_u32_at(header) << std::dec
            << (get_u32_at(header) == kkt::graph::kStoreMagic ? " (KKTG)"
                                                              : " (BAD)")
            << "\n";
  std::cout << "version:   " << get_u32_at(header + 4) << "\n";
  std::cout << "flags:     " << get_u32_at(header + 8) << "\n";
  std::cout << "id_bits:   " << get_u32_at(header + 12) << "\n";
  std::cout << "n:         " << get_u64_at(header + 16) << "\n";
  std::cout << "m:         " << get_u64_at(header + 24) << "\n";
  std::cout << "ext_off:   " << get_u64_at(header + 32) << "\n";
  std::cout << "off_off:   " << get_u64_at(header + 40) << "\n";
  std::cout << "arena_off: " << get_u64_at(header + 48) << "\n";
  std::cout << "edges_off: " << get_u64_at(header + 56) << "\n";
  std::cout << "file_size: " << get_u64_at(header + 64) << "\n";

  std::string error;
  const auto store = kkt::graph::MappedStore::open(path, &error);
  if (store == nullptr) {
    std::cout << "valid:     NO -- " << error << "\n";
    return 1;
  }
  std::cout << "valid:     yes (" << store->node_count() << " nodes, "
            << store->edge_count() << " edges)\n";
  return 0;
}

// Generates the --family graph, or reads the --text one. A bad family, a
// size the family cannot take or a malformed text file is a usage error
// (exit 2).
kkt::graph::Graph build_from_args(const kkt::util::CliArgs& a) {
  const std::uint64_t seed = a.num("seed", 1);
  if (a.has("text")) {
    kkt::util::Rng rng(seed);
    std::string error;
    auto g = kkt::graph::read_graph_file(a.get("text", ""), rng, &error);
    if (!g) kkt::util::usage_error(error);
    return *std::move(g);
  }
  const std::string family = a.get("family", "");
  const auto fam = kkt::scenario::family_from_name(family);
  if (!fam) kkt::util::usage_error("unknown family '" + family + "'");
  kkt::scenario::GraphSpec spec;
  spec.family = *fam;
  spec.n = a.num("n", 0);
  spec.m = a.num("m", 0);
  spec.aux = a.num("aux", 0);
  spec.param = a.real("param", 0.0);
  spec.weights = {a.num("maxw", 1u << 20)};
  spec.clamp_m = true;
  // Materialised rows pack directly; the implicit backend would work too
  // (identical bytes), but the pack enumerates all edges anyway.
  if (kkt::scenario::family_is_implicit(*fam)) {
    spec.backend = kkt::scenario::GraphBackend::kAdjacency;
  }
  if (const auto err = kkt::scenario::graph_spec_error(spec)) {
    kkt::util::usage_error(*err);
  }
  return kkt::scenario::build_graph(spec, seed);
}

int cmd_pack(const kkt::util::CliArgs& a) {
  const std::string out = a.get("out", "");
  if (!a.positional().empty() || out.empty() ||
      a.has("family") == a.has("text") ||
      a.unknown_key({"family", "text", "out", "n", "m", "aux", "param",
                     "seed", "maxw"})) {
    return usage();
  }
  const kkt::graph::Graph g = build_from_args(a);
  std::string error;
  if (!kkt::graph::pack_store(out, g, &error)) {
    std::cerr << "kkt_graphstore: " << error << "\n";
    return 1;
  }
  std::cout << "packed " << g.node_count() << " nodes, " << g.edge_count()
            << " edges -> " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "info") {
    if (argc != 3) return usage();
    return cmd_info(argv[2]);
  }
  if (cmd != "pack") return usage();
  return cmd_pack(kkt::util::CliArgs(argc, argv, 2));
}
