#include "graph/store.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "graph/graph.h"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace kkt::graph {

namespace {

void put_u32(std::vector<unsigned char>& out, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<unsigned char>(x >> (8 * i)));
}
void put_u64(std::vector<unsigned char>& out, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<unsigned char>(x >> (8 * i)));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return x;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

std::shared_ptr<const FrozenStore> reject(std::string* error,
                                          const std::string& msg) {
  if (error != nullptr) *error = msg;
  return nullptr;
}

}  // namespace

FrozenStore::~FrozenStore() {
#ifndef _WIN32
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
}

std::shared_ptr<const FrozenStore> FrozenStore::open(const std::string& path,
                                                     std::string* error) {
#ifdef _WIN32
  return reject(error, "kkg store: mmap is not supported on this platform");
#else
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return reject(error, "kkg store: cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return reject(error, "kkg store: cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kStoreHeaderBytes) {
    ::close(fd);
    return reject(error, "kkg store: file truncated (no header)");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return reject(error, "kkg store: mmap failed");

  // From here on the mapping must be released on any rejection.
  auto store = std::shared_ptr<FrozenStore>(new FrozenStore());
  store->map_ = map;
  store->map_len_ = size;

  const auto* base = static_cast<const unsigned char*>(map);
  if (get_u32(base) != kStoreMagic) {
    return reject(error, "kkg store: bad magic (not a .kkg file)");
  }
  const std::uint32_t version = get_u32(base + 4);
  if (version != kStoreVersion) {
    return reject(error, "kkg store: unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kStoreVersion) + ")");
  }
  if (get_u32(base + 8) != 0) {
    return reject(error, "kkg store: unknown flags");
  }
  const std::uint32_t id_bits = get_u32(base + 12);
  if (id_bits < 1 || id_bits > 31) {
    return reject(error, "kkg store: id_bits out of range");
  }
  const std::uint64_t n = get_u64(base + 16);
  const std::uint64_t m = get_u64(base + 24);
  if (n < 1 || n > 0xFFFF'FFFEull) {
    return reject(error, "kkg store: node count out of range");
  }
  if (m > size / sizeof(StoreEdge)) {
    return reject(error, "kkg store: edge count exceeds file size");
  }
  if (get_u64(base + 64) != size) {
    return reject(error, "kkg store: file_size mismatch (truncated?)");
  }
  if (get_u64(base + 72) != 0) {
    return reject(error, "kkg store: nonzero reserved field");
  }

  struct Section {
    const char* name;
    std::uint64_t off;
    std::uint64_t bytes;
  };
  const Section sections[] = {
      {"ext_ids", get_u64(base + 32), n * sizeof(ExtId)},
      {"offsets", get_u64(base + 40), (n + 1) * sizeof(std::uint64_t)},
      {"arena", get_u64(base + 48), 2 * m * sizeof(Incidence)},
      {"edges", get_u64(base + 56), m * sizeof(StoreEdge)},
  };
  std::uint64_t prev_end = kStoreHeaderBytes;
  for (const Section& s : sections) {
    if (s.off % 8 != 0) {
      return reject(error,
                    std::string("kkg store: misaligned section ") + s.name);
    }
    if (s.off < prev_end || s.off > size || s.bytes > size - s.off) {
      return reject(error, std::string("kkg store: section ") + s.name +
                               " out of bounds");
    }
    prev_end = s.off + s.bytes;
  }

  store->n_ = static_cast<std::size_t>(n);
  store->m_ = static_cast<std::size_t>(m);
  store->id_bits_ = static_cast<int>(id_bits);
  store->ext_ = {reinterpret_cast<const ExtId*>(base + sections[0].off),
                 store->n_};
  store->off_ = {reinterpret_cast<const std::uint64_t*>(base + sections[1].off),
                 store->n_ + 1};
  store->arena_ = {reinterpret_cast<const Incidence*>(base + sections[2].off),
                   2 * store->m_};
  store->edges_ = {reinterpret_cast<const StoreEdge*>(base + sections[3].off),
                   store->m_};

  // Offsets: dense CSR rows covering the arena exactly.
  if (store->off_[0] != 0 || store->off_[store->n_] != 2 * m) {
    return reject(error, "kkg store: offsets do not cover the arena");
  }
  for (std::size_t v = 0; v < store->n_; ++v) {
    if (store->off_[v] > store->off_[v + 1]) {
      return reject(error, "kkg store: offsets not monotone at node " +
                               std::to_string(v));
    }
  }
  // Arena: every row entry must reference an edge record that contains the
  // row's node and the entry's peer.
  for (std::size_t v = 0; v < store->n_; ++v) {
    for (std::uint64_t i = store->off_[v]; i < store->off_[v + 1]; ++i) {
      const Incidence inc = store->arena_[i];
      if (inc.peer >= n || inc.edge >= m) {
        return reject(error, "kkg store: arena entry out of bounds at node " +
                                 std::to_string(v));
      }
      const StoreEdge ed = store->edges_[inc.edge];
      const auto node = static_cast<NodeId>(v);
      const bool consistent = (ed.u == node && ed.v == inc.peer) ||
                              (ed.v == node && ed.u == inc.peer);
      if (!consistent) {
        return reject(error,
                      "kkg store: arena entry disagrees with edge table at "
                      "node " +
                          std::to_string(v));
      }
    }
  }
  // Edge table sanity.
  const ExtId ext_limit = id_bits >= 31
                              ? kMaxExtId
                              : static_cast<ExtId>((ExtId{1} << id_bits) - 1);
  for (std::size_t e = 0; e < store->m_; ++e) {
    const StoreEdge ed = store->edges_[e];
    if (ed.u >= n || ed.v >= n || ed.u == ed.v || ed.weight < 1) {
      return reject(error,
                    "kkg store: bad edge record " + std::to_string(e));
    }
  }
  // External IDs: in range for id_bits and pairwise distinct.
  std::vector<ExtId> ids(store->ext_.begin(), store->ext_.end());
  for (const ExtId id : ids) {
    if (id < 1 || id > ext_limit) {
      return reject(error, "kkg store: external ID out of range");
    }
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return reject(error, "kkg store: duplicate external IDs");
  }
  return store;
#endif
}

std::shared_ptr<const FrozenStore> FrozenStore::adopt(
    FrozenSections sections) {
  auto store = std::shared_ptr<FrozenStore>(new FrozenStore());
  store->owned_ = std::move(sections);
  const FrozenSections& s = store->owned_;
  store->n_ = s.ext_ids.size();
  store->m_ = s.offsets.back() / 2;
  store->id_bits_ = s.id_bits;
  store->ext_ = s.ext_ids;
  store->off_ = s.offsets;
  store->arena_ = {s.arena.get(), 2 * store->m_};
  store->edges_ = {s.edges.get(), store->m_};
  return store;
}

bool pack_store(const std::string& path, const Graph& g, std::string* error) {
  const std::size_t n = g.node_count();
  if (n < 1) return fail(error, "kkg store: empty graph");
  // Alive edges, ascending original index; position = packed index.
  const std::vector<EdgeIdx> alive = g.alive_edge_indices();
  const std::uint64_t m = alive.size();
  const auto packed_idx = [&alive](EdgeIdx e) -> std::uint64_t {
    const auto it = std::lower_bound(alive.begin(), alive.end(), e);
    return static_cast<std::uint64_t>(it - alive.begin());
  };

  const auto align8 = [](std::uint64_t x) { return (x + 7) & ~std::uint64_t{7}; };
  const std::uint64_t ext_off = kStoreHeaderBytes;
  const std::uint64_t off_off = align8(ext_off + n * sizeof(ExtId));
  const std::uint64_t arena_off = off_off + (n + 1) * sizeof(std::uint64_t);
  const std::uint64_t edges_off = arena_off + 2 * m * sizeof(Incidence);
  const std::uint64_t file_size = edges_off + m * sizeof(StoreEdge);

  std::vector<unsigned char> buf;
  buf.reserve(static_cast<std::size_t>(file_size));
  put_u32(buf, kStoreMagic);
  put_u32(buf, kStoreVersion);
  put_u32(buf, 0);  // flags
  put_u32(buf, static_cast<std::uint32_t>(g.id_bits()));
  put_u64(buf, n);
  put_u64(buf, m);
  put_u64(buf, ext_off);
  put_u64(buf, off_off);
  put_u64(buf, arena_off);
  put_u64(buf, edges_off);
  put_u64(buf, file_size);
  put_u64(buf, 0);  // reserved

  for (NodeId v = 0; v < n; ++v) put_u32(buf, g.ext_id(v));
  while (buf.size() < off_off) buf.push_back(0);  // alignment pad

  std::uint64_t running = 0;
  put_u64(buf, 0);
  for (NodeId v = 0; v < n; ++v) {
    running += g.incident(v).size();
    put_u64(buf, running);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const Incidence& inc : g.incident(v)) {
      put_u32(buf, inc.peer);
      put_u32(buf, 0);  // struct padding, pinned to zero on disk
      put_u64(buf, packed_idx(inc.edge));
    }
  }
  for (const EdgeIdx e : alive) {
    const Edge ed = g.edge(e);
    put_u32(buf, ed.u);
    put_u32(buf, ed.v);
    put_u64(buf, ed.weight);
  }
  if (buf.size() != file_size) {
    return fail(error, "kkg store: internal size accounting error");
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(error, "kkg store: cannot write " + path);
  const std::size_t wrote = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (wrote != buf.size() || !closed) {
    return fail(error, "kkg store: short write to " + path);
  }
  return true;
}

}  // namespace kkt::graph
