// The frozen-graph layout: the CSR sections of a read-only graph, and the
// .kkg on-disk store that holds them behind a versioned binary header.
// A FrozenStore serves the sections to Graph::from_store (the kFrozen
// backend) and has one of two owners:
//  * FrozenStore::open maps a .kkg file, so a multi-gigabyte graph costs
//    page-cache pages instead of heap (CLI: `kkt_lab build --in FILE.kkg`,
//    `kkt_lab info FILE.kkg`);
//  * FrozenStore::adopt takes sections a generator built in memory
//    (igridlong / igeo, graph/generators.h) without copying them.
// `pack_store` writes any graph's sections to a file (CLI: `kkt_lab gen
// --out FILE.kkg`).
//
// Layout (all integers little-endian; all sections 8-byte aligned):
//
//   header (80 bytes)
//     u32 magic      "KKTG" (0x4754'4b4b)
//     u32 version    1
//     u32 flags      0 (reserved)
//     u32 id_bits    external-ID width, 1..31
//     u64 n          node count (>= 1)
//     u64 m          edge count (all alive; indices are dense in [0, m))
//     u64 ext_off    -> ExtId[n]
//     u64 off_off    -> u64[n + 1]      CSR row offsets, off[n] == 2m
//     u64 arena_off  -> Incidence[2m]   {u32 peer, u32 pad=0, u64 edge}
//     u64 edges_off  -> StoreEdge[m]    {u32 u, u32 v, u64 weight}
//     u64 file_size  total byte size (self-check)
//     u64 reserved   0
//
// Corruption policy: `open` validates the header, every section bound,
// offset monotonicity, arena cross-references (each row entry must point
// at an edge record containing the row's node and the entry's peer), edge
// endpoints/weights, and external-ID range/distinctness -- any violation
// returns null with a diagnostic, never undefined behaviour. Versioning:
// unknown magic/version/flags are rejected; format changes bump `version`.
// See docs/GRAPH_STORE.md.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace kkt::graph {

class Graph;

inline constexpr std::uint32_t kStoreMagic = 0x4754'4b4bu;  // "KKTG"
inline constexpr std::uint32_t kStoreVersion = 1;
inline constexpr std::size_t kStoreHeaderBytes = 80;

// Frozen edge record. Served in place; Edge (with its alive flag) is
// synthesized on access -- a frozen store is immutable, so every edge is
// alive.
struct StoreEdge {
  NodeId u;
  NodeId v;
  Weight weight;
};
static_assert(sizeof(StoreEdge) == 16);
static_assert(sizeof(Incidence) == 16 && alignof(Incidence) == 8);

// The four sections of a .kkg payload, held in memory.
struct FrozenSections {
  int id_bits = 0;
  std::vector<ExtId> ext_ids;          // n
  std::vector<std::uint64_t> offsets;  // n + 1 row offsets, offsets[n] == 2m
  std::unique_ptr<Incidence[]> arena;  // 2m
  std::unique_ptr<StoreEdge[]> edges;  // m
};

// Read-only CSR sections: a validated .kkg mapping or adopted generator
// output.
class FrozenStore {
 public:
  // Maps and fully validates `path`. Returns null (with a diagnostic in
  // *error when non-null) on any I/O or validation failure.
  static std::shared_ptr<const FrozenStore> open(const std::string& path,
                                                 std::string* error = nullptr);

  // Serves generated sections, moved in (no copy). The generator is trusted:
  // nothing is validated.
  static std::shared_ptr<const FrozenStore> adopt(FrozenSections sections);

  ~FrozenStore();
  FrozenStore(const FrozenStore&) = delete;
  FrozenStore& operator=(const FrozenStore&) = delete;

  std::size_t node_count() const noexcept { return n_; }
  std::size_t edge_count() const noexcept { return m_; }
  int id_bits() const noexcept { return id_bits_; }

  std::span<const ExtId> ext_ids() const noexcept { return ext_; }
  std::span<const std::uint64_t> offsets() const noexcept { return off_; }
  std::span<const Incidence> arena() const noexcept { return arena_; }
  std::span<const StoreEdge> edges() const noexcept { return edges_; }

 private:
  FrozenStore() = default;

  FrozenSections owned_;  // adopt(): the spans below point into it
  void* map_ = nullptr;   // open(): the mapping they point into
  std::size_t map_len_ = 0;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  int id_bits_ = 0;
  std::span<const ExtId> ext_;
  std::span<const std::uint64_t> off_;
  std::span<const Incidence> arena_;
  std::span<const StoreEdge> edges_;
};

// Packs the alive edges of `g` (any backend) into `path`, reindexed densely
// in ascending original index so a fresh graph round-trips with identical
// edge indices. Adjacency row order is preserved verbatim -- protocols run
// bit-identically on the frozen copy. Returns false with a diagnostic on
// I/O failure. The graph must be enumerable (see alive_edge_indices).
bool pack_store(const std::string& path, const Graph& g,
                std::string* error = nullptr);

}  // namespace kkt::graph
