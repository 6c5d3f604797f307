// .kkg store pins: pack -> mmap -> serve must round-trip a graph exactly
// (rows verbatim, edge indices dense-reindexed in ascending original order),
// and FrozenStore::open must reject every corrupted byte pattern with a
// diagnostic instead of undefined behaviour. The corruption cases below each
// take a valid packed file and break exactly one invariant the loader
// documents (docs/GRAPH_STORE.md); asan runs of this suite double as the
// no-UB check.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/build_mst.h"
#include "graph/generators.h"
#include "graph/implicit.h"
#include "graph/store.h"
#include "test_util.h"

namespace kkt::graph {
namespace {

std::vector<unsigned char> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  if (f != nullptr) {
    unsigned char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + got);
    }
    std::fclose(f);
  }
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

void poke_u32(std::vector<unsigned char>& b, std::size_t off,
              std::uint32_t x) {
  ASSERT_LE(off + 4, b.size());
  for (int i = 0; i < 4; ++i) b[off + i] = static_cast<unsigned char>(x >> (8 * i));
}

void poke_u64(std::vector<unsigned char>& b, std::size_t off,
              std::uint64_t x) {
  ASSERT_LE(off + 8, b.size());
  for (int i = 0; i < 8; ++i) b[off + i] = static_cast<unsigned char>(x >> (8 * i));
}

std::uint64_t peek_u64(const std::vector<unsigned char>& b, std::size_t off) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
  return x;
}

// Writes the mutated bytes to a fresh file and asserts the loader rejects
// them with a diagnostic containing `needle`.
void expect_reject(const std::vector<unsigned char>& bytes,
                   const std::string& name, const std::string& needle) {
  const std::string path = test::temp_store_path("bad_" + name);
  write_file(path, bytes);
  std::string error;
  const auto store = FrozenStore::open(path, &error);
  EXPECT_EQ(store, nullptr) << name;
  EXPECT_NE(error.find(needle), std::string::npos)
      << name << ": diagnostic was \"" << error << "\"";
  std::remove(path.c_str());
}

std::unique_ptr<Graph> make_source(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  return std::make_unique<Graph>(
      random_connected_gnm(32, 96, {1u << 12}, rng));
}

// Packs `g` and returns the file bytes (the file itself is removed).
std::vector<unsigned char> pack_bytes(const Graph& g, const std::string& tag) {
  const std::string path = test::temp_store_path(tag);
  std::string error;
  EXPECT_TRUE(pack_store(path, g, &error)) << error;
  std::vector<unsigned char> bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(Store, RoundTripServesIdenticalRows) {
  const std::string path = test::temp_store_path("roundtrip");
  const std::unique_ptr<Graph> src = make_source();
  std::string error;
  ASSERT_TRUE(pack_store(path, *src, &error)) << error;

  const auto store = FrozenStore::open(path, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->node_count(), src->node_count());
  EXPECT_EQ(store->edge_count(), src->edge_count());
  EXPECT_EQ(store->id_bits(), src->id_bits());

  const Graph g = Graph::from_store(store);
  EXPECT_EQ(g.backend(), Graph::Backend::kFrozen);
  ASSERT_EQ(g.node_count(), src->node_count());
  ASSERT_EQ(g.edge_slots(), src->edge_slots());  // fresh source: all alive
  EXPECT_EQ(g.edge_count(), src->edge_count());
  EXPECT_EQ(g.id_bits(), src->id_bits());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.ext_id(v), src->ext_id(v));
    const std::span<const Incidence> row = g.incident(v);
    const std::span<const Incidence> srow = src->incident(v);
    ASSERT_EQ(row.size(), srow.size()) << "v=" << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].peer, srow[i].peer) << "v=" << v << " i=" << i;
      EXPECT_EQ(row[i].edge, srow[i].edge) << "v=" << v << " i=" << i;
    }
    const std::span<const AugWeight> s = g.sorted_incident(v);
    const std::span<const AugWeight> ss = src->sorted_incident(v);
    ASSERT_EQ(s.size(), ss.size()) << "v=" << v;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i], ss[i]) << "v=" << v << " i=" << i;
    }
  }
  for (EdgeIdx e = 0; e < g.edge_slots(); ++e) {
    const Edge got = g.edge(e);
    const Edge want = src->edge(e);
    EXPECT_EQ(got.u, want.u) << "e=" << e;
    EXPECT_EQ(got.v, want.v) << "e=" << e;
    EXPECT_EQ(got.weight, want.weight) << "e=" << e;
    EXPECT_TRUE(g.alive(e));
    EXPECT_EQ(g.find_edge(got.u, got.v), std::optional<EdgeIdx>{e});
  }
  EXPECT_EQ(g.max_weight(), src->max_weight());
  EXPECT_EQ(g.max_edge_num(), src->max_edge_num());
  EXPECT_EQ(g.alive_edge_indices(), src->alive_edge_indices());
  std::remove(path.c_str());
}

TEST(Store, MappedGraphRunsProtocolsBitIdentically) {
  const std::string path = test::temp_store_path("protocol");
  {
    const std::unique_ptr<Graph> src = make_source();
    std::string error;
    ASSERT_TRUE(pack_store(path, *src, &error)) << error;
  }
  std::string error;
  const auto store = FrozenStore::open(path, &error);
  ASSERT_NE(store, nullptr) << error;
  auto mapped = std::make_unique<Graph>(Graph::from_store(store));

  test::World a = test::make_world(make_source(), 42);
  test::World b = test::make_world(std::move(mapped), 42);
  EXPECT_TRUE(core::build_mst(*a.net, *a.forest).spanning);
  EXPECT_TRUE(core::build_mst(*b.net, *b.forest).spanning);
  EXPECT_EQ(a.net->metrics(), b.net->metrics());
  EXPECT_EQ(a.forest->marked_edges(), b.forest->marked_edges());
  std::remove(path.c_str());
}

TEST(Store, RemovedEdgesPackDenselyReindexed) {
  const std::unique_ptr<Graph> src = make_source(9);
  const auto alive_before = src->alive_edge_indices();
  src->remove_edge(alive_before[3]);
  src->remove_edge(alive_before[40]);
  const std::string path = test::temp_store_path("reindex");
  std::string error;
  ASSERT_TRUE(pack_store(path, *src, &error)) << error;
  const auto store = FrozenStore::open(path, &error);
  ASSERT_NE(store, nullptr) << error;
  const Graph g = Graph::from_store(store);
  EXPECT_EQ(g.edge_count(), src->edge_count());
  EXPECT_EQ(g.edge_slots(), src->edge_count());  // dense: slots == alive
  // Packed index k is the k-th alive original edge, same record.
  const auto alive = src->alive_edge_indices();
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const Edge want = src->edge(alive[k]);
    const Edge got = g.edge(static_cast<EdgeIdx>(k));
    EXPECT_EQ(got.u, want.u) << "k=" << k;
    EXPECT_EQ(got.v, want.v) << "k=" << k;
    EXPECT_EQ(got.weight, want.weight) << "k=" << k;
  }
  // Rows keep the source's (post-removal) order, with translated indices.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::span<const Incidence> row = g.incident(v);
    const std::span<const Incidence> srow = src->incident(v);
    ASSERT_EQ(row.size(), srow.size()) << "v=" << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].peer, srow[i].peer) << "v=" << v << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

// Backend invisibility extends to the pack: every seeded family serves rows
// in the same order as its adjacency clone, so both produce byte-identical
// .kkg files (which is why `kkt_lab gen --out X.kkg` packs the default
// backend as it is).
TEST(Store, PackIsByteIdenticalAcrossBackends) {
  const Graph grid = igridlong(25, 2, 11);
  const Graph geo = igeo(64, 8.0, 11);
  const Graph complete = make_implicit_graph({25, 11});
  for (const Graph* g : {&grid, &geo, &complete}) {
    EXPECT_EQ(pack_bytes(g->clone(), "pk_adj"), pack_bytes(*g, "pk_own"))
        << "backend " << static_cast<int>(g->backend());
  }
}

// --- corruption policy -------------------------------------------------------

class StoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::unique_ptr<Graph> src = make_source(7);
    bytes_ = pack_bytes(*src, "corruption_base");
    ASSERT_GE(bytes_.size(), kStoreHeaderBytes);
    off_off_ = peek_u64(bytes_, 40);
    arena_off_ = peek_u64(bytes_, 48);
    edges_off_ = peek_u64(bytes_, 56);
  }

  std::vector<unsigned char> bytes_;
  std::uint64_t off_off_ = 0;
  std::uint64_t arena_off_ = 0;
  std::uint64_t edges_off_ = 0;
};

TEST_F(StoreCorruption, MissingFile) {
  std::string error;
  EXPECT_EQ(FrozenStore::open(test::temp_store_path("never_written"), &error),
            nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST_F(StoreCorruption, TruncatedBeforeHeaderEnd) {
  auto b = bytes_;
  b.resize(kStoreHeaderBytes / 2);
  expect_reject(b, "short_header", "truncated");
}

TEST_F(StoreCorruption, TruncatedPayload) {
  auto b = bytes_;
  b.resize(b.size() - 8);  // header intact, file_size now disagrees
  expect_reject(b, "short_payload", "file_size mismatch");
}

TEST_F(StoreCorruption, BadMagic) {
  auto b = bytes_;
  poke_u32(b, 0, 0xDEADBEEFu);
  expect_reject(b, "magic", "bad magic");
}

TEST_F(StoreCorruption, UnsupportedVersion) {
  auto b = bytes_;
  poke_u32(b, 4, kStoreVersion + 1);
  expect_reject(b, "version", "unsupported version");
}

TEST_F(StoreCorruption, UnknownFlags) {
  auto b = bytes_;
  poke_u32(b, 8, 0x80000000u);
  expect_reject(b, "flags", "unknown flags");
}

TEST_F(StoreCorruption, IdBitsOutOfRange) {
  auto b = bytes_;
  poke_u32(b, 12, 0);
  expect_reject(b, "idbits_low", "id_bits out of range");
  poke_u32(b, 12, 32);
  expect_reject(b, "idbits_high", "id_bits out of range");
}

TEST_F(StoreCorruption, NodeCountOutOfRange) {
  auto b = bytes_;
  poke_u64(b, 16, 0);
  expect_reject(b, "zero_nodes", "node count out of range");
}

TEST_F(StoreCorruption, EdgeCountExceedsFile) {
  auto b = bytes_;
  poke_u64(b, 24, b.size());  // m * 16 bytes cannot possibly fit
  expect_reject(b, "huge_m", "edge count exceeds file size");
}

TEST_F(StoreCorruption, NonzeroReserved) {
  auto b = bytes_;
  poke_u64(b, 72, 1);
  expect_reject(b, "reserved", "reserved");
}

TEST_F(StoreCorruption, MisalignedSection) {
  auto b = bytes_;
  poke_u64(b, 32, kStoreHeaderBytes + 4);  // ext_ids off the 8-byte grid
  expect_reject(b, "misaligned", "misaligned section ext_ids");
}

TEST_F(StoreCorruption, SectionOutOfBounds) {
  auto b = bytes_;
  poke_u64(b, 56, (b.size() + 0xFFF8u) & ~std::uint64_t{7});
  expect_reject(b, "oob_section", "section edges out of bounds");
}

TEST_F(StoreCorruption, SectionOverlapsHeader) {
  auto b = bytes_;
  poke_u64(b, 32, 0);  // ext_ids inside the header
  expect_reject(b, "overlap", "section ext_ids out of bounds");
}

TEST_F(StoreCorruption, OffsetsMustCoverArena) {
  auto b = bytes_;
  poke_u64(b, static_cast<std::size_t>(off_off_), 1);  // off[0] != 0
  expect_reject(b, "cover", "offsets do not cover the arena");
}

TEST_F(StoreCorruption, OffsetsMustBeMonotone) {
  auto b = bytes_;
  const std::uint64_t off2 = peek_u64(b, static_cast<std::size_t>(off_off_) + 16);
  poke_u64(b, static_cast<std::size_t>(off_off_) + 8, off2 + 1);
  expect_reject(b, "monotone", "offsets not monotone");
}

TEST_F(StoreCorruption, ArenaPeerOutOfBounds) {
  auto b = bytes_;
  poke_u32(b, static_cast<std::size_t>(arena_off_), 0xFFFFFFF0u);
  expect_reject(b, "arena_peer", "arena entry out of bounds");
}

TEST_F(StoreCorruption, ArenaEdgeCrossReferenceChecked) {
  // Point the first row entry's peer at the row's own node: no edge record
  // can contain (v, v), so the cross-reference must trip.
  auto b = bytes_;
  std::size_t row0 = static_cast<std::size_t>(arena_off_);
  poke_u32(b, row0, 0);  // node 0's first peer := 0
  expect_reject(b, "arena_xref", "disagrees with edge table");
}

TEST_F(StoreCorruption, BadEdgeRecord) {
  auto b = bytes_;
  poke_u64(b, static_cast<std::size_t>(edges_off_) + 8, 0);  // weight 0
  expect_reject(b, "edge_weight", "bad edge record");
}

TEST_F(StoreCorruption, ExtIdOutOfRange) {
  auto b = bytes_;
  poke_u32(b, kStoreHeaderBytes, 0);  // IDs start at 1
  expect_reject(b, "ext_zero", "external ID out of range");
}

TEST_F(StoreCorruption, DuplicateExtIds) {
  auto b = bytes_;
  const std::uint32_t first =
      static_cast<std::uint32_t>(peek_u64(b, kStoreHeaderBytes) & 0xFFFFFFFFu);
  poke_u32(b, kStoreHeaderBytes + 4, first);
  expect_reject(b, "ext_dup", "duplicate external IDs");
}

}  // namespace
}  // namespace kkt::graph
