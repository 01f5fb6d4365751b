#include "graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#define CLB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "support/expect.hpp"

namespace congestlb::graph {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "n " << g.num_nodes() << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) != 1) os << "w " << v << ' ' << g.weight(v) << '\n';
  }
  for (const auto& b : g.implicit_blocks()) {
    switch (b.kind) {
      case BlockKind::kClique:
        os << "b clique " << b.a_begin << ' ' << b.a_end << '\n';
        break;
      case BlockKind::kBiclique:
        os << "b biclique " << b.a_begin << ' ' << b.a_end << ' ' << b.b_begin
           << ' ' << b.b_end << '\n';
        break;
      case BlockKind::kAntiMatchingGrid:
        os << "b grid " << b.base << ' ' << b.stride << ' ' << b.rows << ' '
           << b.row_len << '\n';
        break;
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.explicit_neighbors(u)) {
      if (u < v) os << "e " << u << ' ' << v << '\n';
    }
  }
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  Graph g;
  EdgeList edges;
  bool have_n = false;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    char kind = 0;
    ss >> kind;
    auto fail = [&](const char* why) {
      throw InvariantError("read_edge_list: " + std::string(why) + " at line " +
                           std::to_string(lineno));
    };
    if (kind == 'n') {
      std::size_t n = 0;
      if (!(ss >> n)) fail("bad node count");
      if (have_n) fail("duplicate 'n' line");
      g = Graph(n);
      have_n = true;
    } else if (kind == 'w') {
      std::size_t v = 0;
      Weight w = 0;
      if (!have_n) fail("'w' before 'n'");
      if (!(ss >> v >> w) || v >= g.num_nodes()) fail("bad weight line");
      g.set_weight(v, w);
    } else if (kind == 'b') {
      std::string bkind;
      if (!have_n) fail("'b' before 'n'");
      if (!(ss >> bkind)) fail("bad block line");
      try {
        if (bkind == "clique") {
          std::size_t a0 = 0, a1 = 0;
          if (!(ss >> a0 >> a1)) fail("bad clique block");
          g.add_implicit_block(ImplicitBlock::clique(a0, a1));
        } else if (bkind == "biclique") {
          std::size_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
          if (!(ss >> a0 >> a1 >> b0 >> b1)) fail("bad biclique block");
          g.add_implicit_block(ImplicitBlock::biclique(a0, a1, b0, b1));
        } else if (bkind == "grid") {
          std::size_t base = 0, stride = 0, rows = 0, row_len = 0;
          if (!(ss >> base >> stride >> rows >> row_len)) {
            fail("bad grid block");
          }
          g.add_implicit_block(
              ImplicitBlock::anti_matching_grid(base, stride, rows, row_len));
        } else {
          fail("unknown block kind");
        }
      } catch (const InvariantError&) {
        fail("invalid block parameters");
      }
    } else if (kind == 'e') {
      std::size_t u = 0, v = 0;
      if (!have_n) fail("'e' before 'n'");
      if (!(ss >> u >> v) || u >= g.num_nodes() || v >= g.num_nodes() || u == v) {
        fail("bad edge line");
      }
      edges.emplace_back(u, v);
    } else {
      fail("unknown record kind");
    }
  }
  CLB_EXPECT(have_n, "read_edge_list: missing 'n' line");
  g.add_edges(edges);
  return g;
}

void write_dot(std::ostream& os, const Graph& g, const DotOptions& opts) {
  os << "graph " << opts.graph_name << " {\n";
  os << "  node [shape=circle];\n";

  // Group nodes by cluster.
  std::map<std::string, std::vector<NodeId>> groups;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto it = opts.cluster.find(v);
    groups[it == opts.cluster.end() ? std::string{} : it->second].push_back(v);
  }
  auto emit_node = [&](NodeId v, const char* indent) {
    os << indent << 'n' << v << " [label=\"";
    if (!g.label(v).empty()) {
      os << g.label(v);
    } else {
      os << v;
    }
    if (opts.show_weights && g.weight(v) != 1) os << "\\nw=" << g.weight(v);
    os << "\"];\n";
  };
  std::size_t cluster_idx = 0;
  for (const auto& [name, nodes] : groups) {
    if (name.empty()) {
      for (NodeId v : nodes) emit_node(v, "  ");
    } else {
      os << "  subgraph cluster_" << cluster_idx++ << " {\n";
      os << "    label=\"" << name << "\";\n";
      for (NodeId v : nodes) emit_node(v, "    ");
      os << "  }\n";
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.explicit_neighbors(u)) {
      if (u < v) os << "  n" << u << " -- n" << v << ";\n";
    }
  }
  for (const auto& b : g.implicit_blocks()) {
    b.for_each_edge([&](NodeId u, NodeId v) {
      os << "  n" << u << " -- n" << v << ";\n";
    });
  }
  os << "}\n";
}

// ---------------------------------------------------------------------------
// StreamingCsrBuilder

StreamingCsrBuilder::StreamingCsrBuilder(std::size_t n)
    : StreamingCsrBuilder(n, Options{}) {}

StreamingCsrBuilder::StreamingCsrBuilder(std::size_t n, Options opts)
    : n_(n), opts_(std::move(opts)), degree_(n, 0) {
  CLB_EXPECT(opts_.chunk_edges > 0, "chunk_edges must be positive");
  chunk_.reserve(opts_.chunk_edges);
  if (!opts_.spill_path.empty()) {
    spill_ = std::fopen(opts_.spill_path.c_str(), "wb+");
    CLB_EXPECT(spill_ != nullptr, "cannot open CSR spill file");
  }
}

StreamingCsrBuilder::~StreamingCsrBuilder() {
  if (spill_ != nullptr) {
    std::fclose(spill_);
    std::remove(opts_.spill_path.c_str());
  }
}

void StreamingCsrBuilder::add_edge(NodeId u, NodeId v) {
  CLB_EXPECT(!finished_, "builder already finished");
  CLB_EXPECT(u < n_ && v < n_, "edge endpoint out of range");
  CLB_EXPECT(u != v, "self-loops are not allowed");
  ++degree_[u];
  ++degree_[v];
  ++num_edges_;
  chunk_.emplace_back(u, v);
  if (chunk_.size() >= opts_.chunk_edges) flush_chunk();
}

void StreamingCsrBuilder::flush_chunk() {
  if (chunk_.empty()) return;
  if (spill_ != nullptr) {
    const std::size_t wrote = std::fwrite(
        chunk_.data(), sizeof(chunk_[0]), chunk_.size(), spill_);
    CLB_EXPECT(wrote == chunk_.size(), "CSR spill write failed");
  } else {
    spilled_chunks_.push_back(std::move(chunk_));
    chunk_ = {};
    chunk_.reserve(opts_.chunk_edges);
  }
  chunk_.clear();
}

Csr StreamingCsrBuilder::finish() {
  CLB_EXPECT(!finished_, "builder already finished");
  finished_ = true;
  CsrScatter scatter(std::move(degree_));
  if (spill_ != nullptr) {
    std::rewind(spill_);
    std::vector<std::pair<NodeId, NodeId>> buf(opts_.chunk_edges);
    std::size_t got = 0;
    while ((got = std::fread(buf.data(), sizeof(buf[0]), buf.size(),
                             spill_)) > 0) {
      scatter.scatter({buf.data(), got});
    }
  } else {
    for (const auto& c : spilled_chunks_) scatter.scatter(c);
    spilled_chunks_.clear();
  }
  scatter.scatter(chunk_);
  chunk_.clear();
  chunk_.shrink_to_fit();
  Csr csr = scatter.finish();
  for (std::size_t v = 0; v < n_; ++v) {
    const auto row = csr.row(v);
    CLB_EXPECT(std::adjacent_find(row.begin(), row.end()) == row.end(),
               "duplicate edge in streamed CSR input");
  }
  return csr;
}

// ---------------------------------------------------------------------------
// Topology snapshots
//
// Native-endian binary cache format (not interchange):
//   u64 magic
//   u64 n, m, implicit_edges, num_blocks
//   num_blocks x 9 u64 block records
//   then, each padded to a 64-byte file offset:
//     offsets   (n+1) x u64
//     targets    2m   x u64
//     reverse    2m   x u32
//     weights     n   x i64

namespace {

constexpr std::uint64_t kSnapshotMagic = 0x31504e53424c43ULL;  // "CLBSNP1"
constexpr std::size_t kAlign = 64;

static_assert(sizeof(std::size_t) == 8 && sizeof(NodeId) == 8 &&
                  sizeof(Weight) == 8,
              "snapshot layout assumes 64-bit ids and weights");

std::size_t aligned_up(std::size_t off) {
  return (off + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

void write_topology_snapshot(const std::string& path, const MappedCsr& snap) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CLB_EXPECT(f != nullptr, "cannot open snapshot file for writing");
  std::size_t pos = 0;
  const auto put = [&](const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    CLB_EXPECT(std::fwrite(data, 1, bytes, f) == bytes,
               "snapshot write failed");
    pos += bytes;
  };
  const auto pad = [&] {
    static const char zeros[kAlign] = {};
    const std::size_t target = aligned_up(pos);
    put(zeros, target - pos);
  };
  const std::uint64_t header[5] = {kSnapshotMagic, snap.n, snap.m,
                                   snap.implicit_edges, snap.blocks.size()};
  put(header, sizeof(header));
  for (const auto& b : snap.blocks) {
    const std::uint64_t rec[9] = {
        static_cast<std::uint64_t>(b.kind), b.a_begin, b.a_end, b.b_begin,
        b.b_end, b.base, b.stride, b.rows, b.row_len};
    put(rec, sizeof(rec));
  }
  pad();
  put(snap.offsets.data(), snap.offsets.size_bytes());
  pad();
  put(snap.targets.data(), snap.targets.size_bytes());
  pad();
  put(snap.reverse_slot.data(), snap.reverse_slot.size_bytes());
  pad();
  put(snap.weights.data(), snap.weights.size_bytes());
  CLB_EXPECT(std::fclose(f) == 0, "snapshot close failed");
}

MappedCsr map_topology_snapshot(const std::string& path) {
  std::shared_ptr<const void> keepalive;
  const char* data = nullptr;
  std::size_t size = 0;
#ifdef CLB_HAVE_MMAP
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    CLB_EXPECT(fd >= 0, "cannot open snapshot file");
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      CLB_EXPECT(false, "cannot stat snapshot file");
    }
    size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping outlives the descriptor
    if (map != MAP_FAILED) {
      data = static_cast<const char*>(map);
      keepalive = std::shared_ptr<const void>(
          map, [size](const void* p) {
            ::munmap(const_cast<void*>(p), size);
          });
    }
  }
#endif
  if (data == nullptr) {
    // Heap fallback: read the whole file. Correct everywhere; loses only
    // the demand-paging benefit.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    CLB_EXPECT(f != nullptr, "cannot open snapshot file");
    std::fseek(f, 0, SEEK_END);
    size = static_cast<std::size_t>(std::ftell(f));
    std::rewind(f);
    auto buf = std::shared_ptr<char[]>(new char[size]);
    CLB_EXPECT(std::fread(buf.get(), 1, size, f) == size,
               "snapshot read failed");
    std::fclose(f);
    data = buf.get();
    keepalive = std::shared_ptr<const void>(buf, buf.get());
  }

  MappedCsr snap;
  snap.keepalive = std::move(keepalive);
  std::size_t pos = 0;
  const auto take = [&](std::size_t bytes) {
    CLB_EXPECT(pos + bytes <= size, "snapshot file truncated");
    const char* p = data + pos;
    pos += bytes;
    return p;
  };
  std::uint64_t header[5];
  std::memcpy(header, take(sizeof(header)), sizeof(header));
  CLB_EXPECT(header[0] == kSnapshotMagic, "not a topology snapshot file");
  snap.n = header[1];
  snap.m = header[2];
  snap.implicit_edges = header[3];
  const std::size_t num_blocks = header[4];
  snap.blocks.reserve(num_blocks);
  for (std::size_t i = 0; i < num_blocks; ++i) {
    std::uint64_t rec[9];
    std::memcpy(rec, take(sizeof(rec)), sizeof(rec));
    CLB_EXPECT(rec[0] <= static_cast<std::uint64_t>(
                             BlockKind::kAntiMatchingGrid),
               "snapshot block kind out of range");
    ImplicitBlock b;
    b.kind = static_cast<BlockKind>(rec[0]);
    b.a_begin = rec[1];
    b.a_end = rec[2];
    b.b_begin = rec[3];
    b.b_end = rec[4];
    b.base = rec[5];
    b.stride = rec[6];
    b.rows = rec[7];
    b.row_len = rec[8];
    snap.blocks.push_back(b);
  }
  const auto array = [&](std::size_t count, std::size_t elem) {
    pos = aligned_up(pos);
    return take(count * elem);
  };
  snap.offsets = {reinterpret_cast<const std::size_t*>(
                      array(snap.n + 1, sizeof(std::size_t))),
                  snap.n + 1};
  snap.targets = {
      reinterpret_cast<const NodeId*>(array(2 * snap.m, sizeof(NodeId))),
      2 * snap.m};
  snap.reverse_slot = {reinterpret_cast<const std::uint32_t*>(
                           array(2 * snap.m, sizeof(std::uint32_t))),
                       2 * snap.m};
  snap.weights =
      {reinterpret_cast<const Weight*>(array(snap.n, sizeof(Weight))), snap.n};
  return snap;
}

}  // namespace congestlb::graph
