// Randomized round-trip and differential ("fuzz-style") tests: every
// serialization layer and bit-twiddling structure is driven with random
// inputs against an independent reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <deque>
#include <iterator>
#include <sstream>
#include <string>

#include "comm/blackboard.hpp"
#include "congest/approx_mis.hpp"
#include "congest/blackboard_mis.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "maxis/bitset.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/traffic.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb {
namespace {

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, MessageBitPackingMatchesReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    // Random field layout.
    const std::size_t fields = 1 + rng.below(12);
    std::vector<std::pair<std::uint64_t, std::size_t>> layout;
    std::vector<bool> reference_bits;
    congest::MessageWriter w;
    for (std::size_t f = 0; f < fields; ++f) {
      const std::size_t width = 1 + rng.below(64);
      const std::uint64_t value =
          width == 64 ? rng.next() : rng.below(1ULL << width);
      layout.emplace_back(value, width);
      w.put(value, width);
      for (std::size_t b = 0; b < width; ++b) {
        reference_bits.push_back((value >> b) & 1);
      }
    }
    const congest::Message m = std::move(w).finish();
    ASSERT_EQ(m.bits, reference_bits.size());
    // Byte-level check against the reference bit string.
    for (std::size_t b = 0; b < m.bits; ++b) {
      const bool bit =
          (static_cast<unsigned>(m.data[b / 8]) >> (b % 8)) & 1u;
      ASSERT_EQ(bit, reference_bits[b]) << "bit " << b;
    }
    // Field-level read-back.
    congest::MessageReader r(m);
    for (auto [value, width] : layout) {
      ASSERT_EQ(r.get(width), value);
    }
  }
}

TEST_P(FuzzSweep, EdgeListRoundTripOnRandomGraphs) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = graph::gnp_random(rng, 1 + rng.below(60),
                               rng.uniform() * 0.6, 9);
    std::stringstream ss;
    graph::write_edge_list(ss, g);
    ASSERT_TRUE(graph::read_edge_list(ss) == g);
  }
}

/// A random block mix over dedicated id ranges: an anti-matching grid whose
/// rows may also be clique blocks, a hub in several one-node bicliques whose
/// partner ranges may also be cliques (so many nodes sit in >= 2 blocks),
/// uncovered ids before, between and after the blocks, and random explicit
/// edges anywhere that no block already implies.
graph::Graph random_block_mix(Rng& rng) {
  const std::size_t lead = rng.below(4);
  const std::size_t rows = 2 + rng.below(3);
  const std::size_t row_len = 2 + rng.below(4);
  const std::size_t stride = row_len + rng.below(2);
  const graph::NodeId grid_end = lead + (rows - 1) * stride + row_len;
  const graph::NodeId hub = grid_end + rng.below(3);
  const std::size_t partners = 1 + rng.below(4);
  const std::size_t part_len = 2 + rng.below(3);
  const graph::NodeId first_part = hub + 1 + rng.below(2);
  const std::size_t n = first_part + partners * part_len + rng.below(5);

  graph::Graph g(n);
  g.set_implicit_block_threshold(1);
  g.add_anti_matching_grid(lead, stride, rows, row_len);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.below(2) == 0) continue;
    std::vector<graph::NodeId> row(row_len);
    for (std::size_t c = 0; c < row_len; ++c) row[c] = lead + i * stride + c;
    g.add_clique(row);
  }
  for (std::size_t p = 0; p < partners; ++p) {
    const graph::NodeId b0 = first_part + p * part_len;
    g.add_implicit_block(
        graph::ImplicitBlock::biclique(hub, hub + 1, b0, b0 + part_len));
    if (rng.below(2) == 0) {
      g.add_implicit_block(graph::ImplicitBlock::clique(b0, b0 + part_len));
    }
  }
  graph::EdgeList extra;
  for (std::size_t e = rng.below(2 * n); e > 0; --e) {
    const graph::NodeId u = rng.below(n), v = rng.below(n);
    if (u != v && !g.has_edge(u, v)) extra.emplace_back(u, v);
  }
  g.add_edges(extra);
  return g;
}

/// The merged view of `g` against its materialized twin: size, every
/// select, full iteration, adjacency, degree and the shard prefix cost.
void expect_view_matches_twin(const graph::Graph& g) {
  const graph::Graph dense = g.materialized();
  const std::size_t n = g.num_nodes();
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto want = dense.explicit_neighbors(v);
    const graph::NeighborsView nb = g.neighbors(v);
    ASSERT_EQ(nb.size(), want.size()) << "node " << v;
    ASSERT_EQ(g.degree(v), want.size()) << "node " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(nb[i], want[i]) << "node " << v << " slot " << i;
    }
    EXPECT_THROW(nb[want.size()], InvariantError) << "node " << v;
    ASSERT_TRUE(std::equal(nb.begin(), nb.end(), want.begin(), want.end()))
        << "node " << v;
    for (graph::NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(g.has_edge(v, u), dense.has_edge(v, u))
          << "pair " << v << ' ' << u;
    }
  }
  for (graph::NodeId v = 0; v <= n; ++v) {
    ASSERT_EQ(g.degree_prefix(v), dense.degree_prefix(v)) << "prefix " << v;
  }
  for (std::size_t shards : {1, 3, 8}) {
    ASSERT_EQ(congest::edge_tiled_shards(g, shards),
              congest::edge_tiled_shards(dense, shards));
  }
}

TEST_P(FuzzSweep, MergedNeighborViewMatchesMaterializedTwin) {
  Rng rng(GetParam() + 150);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    const graph::Graph g = random_block_mix(rng);
    ASSERT_TRUE(g.has_implicit_blocks());
    expect_view_matches_twin(g);
    // A valid mix passes the reader's edge-disjointness check.
    std::stringstream ss;
    graph::write_edge_list(ss, g);
    ASSERT_TRUE(graph::read_edge_list(ss) == g);
  }
  expect_view_matches_twin(graph::Graph(1 + rng.below(6)));  // edgeless
}

TEST_P(FuzzSweep, BitsetMatchesReferenceVectorBool) {
  Rng rng(GetParam() + 200);
  const std::size_t n = 1 + rng.below(300);
  maxis::Bitset bs(n);
  std::vector<bool> ref(n, false);
  for (int op = 0; op < 400; ++op) {
    const std::size_t i = rng.below(n);
    if (rng.chance(0.5)) {
      bs.set(i);
      ref[i] = true;
    } else {
      bs.reset(i);
      ref[i] = false;
    }
    if (op % 37 == 0) {
      // Cross-check aggregate queries.
      std::size_t ref_count = 0, ref_first = n;
      for (std::size_t j = 0; j < n; ++j) {
        if (ref[j]) {
          ++ref_count;
          if (ref_first == n) ref_first = j;
        }
      }
      ASSERT_EQ(bs.count(), ref_count);
      ASSERT_EQ(bs.first(), ref_first);
      ASSERT_EQ(bs.any(), ref_count > 0);
    }
  }
  // Word-parallel ops against element-wise reference.
  maxis::Bitset other(n);
  std::vector<bool> ref_other(n, false);
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.chance(0.5)) {
      other.set(j);
      ref_other[j] = true;
    }
  }
  maxis::Bitset anded = bs & other;
  maxis::Bitset notted = bs;
  notted.and_not(other);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(anded.test(j), ref[j] && ref_other[j]);
    ASSERT_EQ(notted.test(j), ref[j] && !ref_other[j]);
  }
}

TEST_P(FuzzSweep, BlackboardTranscriptRoundTrip) {
  Rng rng(GetParam() + 300);
  const std::size_t players = 2 + rng.below(5);
  comm::Blackboard board(players);
  std::vector<std::pair<std::uint64_t, std::size_t>> uints;
  std::vector<std::vector<std::uint8_t>> bitvecs;
  std::vector<bool> is_uint;
  std::size_t expected_bits = 0;
  for (int e = 0; e < 60; ++e) {
    const std::size_t who = rng.below(players);
    if (rng.chance(0.5)) {
      const std::size_t width = 1 + rng.below(64);
      const std::uint64_t value =
          width == 64 ? rng.next() : rng.below(1ULL << width);
      board.post_uint(who, value, width);
      uints.emplace_back(value, width);
      is_uint.push_back(true);
      expected_bits += width;
    } else {
      std::vector<std::uint8_t> bits(1 + rng.below(40));
      for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
      board.post_bits(who, bits);
      expected_bits += bits.size();
      bitvecs.push_back(std::move(bits));
      is_uint.push_back(false);
    }
  }
  ASSERT_EQ(board.total_bits(), expected_bits);
  std::size_t ui = 0, bi = 0;
  std::size_t by_player_sum = 0;
  for (std::size_t p = 0; p < players; ++p) by_player_sum += board.bits_by(p);
  ASSERT_EQ(by_player_sum, expected_bits);
  for (std::size_t e = 0; e < is_uint.size(); ++e) {
    const auto& entry = board.transcript()[e];
    if (is_uint[e]) {
      ASSERT_EQ(comm::Blackboard::read_uint(entry), uints[ui].first);
      ASSERT_EQ(entry.bits, uints[ui].second);
      ++ui;
    } else {
      ASSERT_EQ(comm::Blackboard::read_bits(entry), bitvecs[bi]);
      ++bi;
    }
  }
}

// ----------------------------------------------- upper-bound algorithm zoo --

/// Hostile topologies for the approximation programs: traffic-pattern
/// graphs (rings with adversarial chords), stars (one cut vertex), and two
/// cliques joined by a bridge (carve elections meet at the bottleneck).
graph::Graph hostile_topology(Rng& rng) {
  const std::size_t shape = rng.below(3);
  if (shape == 0) {
    const auto pattern = sim::kAllTrafficPatterns[rng.below(
        std::size(sim::kAllTrafficPatterns))];
    return sim::traffic_graph(pattern, 4 + rng.below(12), rng.next());
  }
  if (shape == 1) {
    const std::size_t n = 3 + rng.below(12);
    graph::Graph g(n);
    for (graph::NodeId v = 1; v < n; ++v) g.add_edge(0, v);
    for (graph::NodeId v = 0; v < n; ++v) {
      g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(8)));
    }
    return g;
  }
  const std::size_t half = 3 + rng.below(5);
  graph::Graph g(2 * half);
  for (graph::NodeId u = 0; u < half; ++u) {
    for (graph::NodeId v = u + 1; v < half; ++v) {
      g.add_edge(u, v);
      g.add_edge(half + u, half + v);
    }
  }
  g.add_edge(half - 1, half);  // the bridge
  for (graph::NodeId v = 0; v < 2 * half; ++v) {
    g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(8)));
  }
  return g;
}

TEST_P(FuzzSweep, ApproxMisSurvivesHostileTopologies) {
  // Under any hostile topology: every node finishes, the In-nodes are
  // independent, and the whole run replays bit-identically from its seed.
  Rng rng(GetParam() + 1000);
  const auto solver = [](const graph::Graph& g) {
    return maxis::solve_exact(g).nodes;
  };
  for (int trial = 0; trial < 4; ++trial) {
    const auto g = hostile_topology(rng);
    graph::Weight max_w = 1;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      max_w = std::max(max_w, g.weight(v));
    }
    congest::NetworkConfig cfg;
    cfg.seed = rng.next();
    cfg.bits_per_edge = congest::approx_mis_local_bits(g.num_nodes(), max_w);
    cfg.max_rounds = 200000;

    congest::Network net(g, congest::approx_mis_factory(solver), cfg);
    const auto stats = net.run();
    ASSERT_LT(stats.rounds, cfg.max_rounds)
        << "did not terminate, fuzz seed " << cfg.seed;
    ASSERT_TRUE(stats.all_finished) << "fuzz seed " << cfg.seed;

    const auto outs = net.outputs();
    ASSERT_TRUE(g.is_independent_set(net.selected_nodes()))
        << "fuzz seed " << cfg.seed;

    congest::Network replay(g, congest::approx_mis_factory(solver), cfg);
    const auto again = replay.run();
    ASSERT_EQ(again, stats) << "fuzz seed " << cfg.seed;
    ASSERT_EQ(replay.outputs(), outs) << "fuzz seed " << cfg.seed;
  }
}

TEST_P(FuzzSweep, BlackboardMisSurvivesHostileGraphsAndSeeds) {
  // The protocols self-verify maximality and independence (CLB_EXPECT) —
  // the fuzz property is that no topology or seed trips them and the bit
  // budgets hold: exactly 2 m log n for full revelation, at most 2 n log n
  // for Luby.
  Rng rng(GetParam() + 1100);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = hostile_topology(rng);
    const std::size_t n = g.num_nodes();
    const std::size_t id_bits = static_cast<std::size_t>(
        std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
    const std::size_t players = 2 + rng.below(5);

    comm::Blackboard full_board(players);
    const auto full = congest::full_revelation_mis(g, players, full_board);
    ASSERT_EQ(full.bits_posted, g.num_edges() * 2 * id_bits);

    comm::Blackboard luby_board(players);
    const auto luby =
        congest::luby_blackboard_mis(g, players, luby_board, rng.next());
    ASSERT_LE(luby.bits_posted, 2 * n * id_bits);
    ASSERT_LE(luby.blackboard_rounds, 2 * n);
  }
}

// ---------------------------------------------------------- observability --

/// Minimal recursive-descent JSON validator: accepts iff the input is one
/// well-formed JSON value. Independent of the exporter's writer, so it
/// catches escaping and structure bugs rather than mirroring them.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

obs::TraceEvent random_event(Rng& rng) {
  obs::TraceEvent ev;
  ev.kind = static_cast<obs::EventKind>(
      rng.below(1 + static_cast<std::uint64_t>(
                        obs::EventKind::kBlackboardPost)));
  ev.round = static_cast<std::uint32_t>(rng.below(1000));
  ev.a = rng.chance(0.1) ? obs::TraceEvent::kNone
                         : static_cast<std::uint32_t>(rng.below(64));
  ev.b = rng.chance(0.3) ? obs::TraceEvent::kNone
                         : static_cast<std::uint32_t>(rng.below(64));
  ev.value = rng.below(1ULL << 40);
  return ev;
}

TEST_P(FuzzSweep, TracerRingMatchesDequeReference) {
  // The ring + staging discipline against an obvious model: a deque that
  // drops from the front past capacity, and per-(phase, shard) stage lists
  // that drain phase-major, shard-ascending on seal.
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "CONGESTLB_TRACE=0";
  Rng rng(GetParam() + 600);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t capacity = 1 + rng.below(32);
    const std::size_t shards = 1 + rng.below(4);
    const std::size_t stage_cap = 1 + rng.below(6);
    obs::Tracer tracer({.capacity = capacity});
    tracer.bind(shards, stage_cap);

    std::deque<obs::TraceEvent> model;
    std::uint64_t model_recorded = 0, model_dropped = 0;
    std::vector<std::vector<obs::TraceEvent>> stage(2 * shards);
    auto model_push = [&](const obs::TraceEvent& ev) {
      ++model_recorded;
      model.push_back(ev);
      if (model.size() > capacity) {
        model.pop_front();
        ++model_dropped;
      }
    };

    for (int op = 0; op < 200; ++op) {
      const obs::TraceEvent ev = random_event(rng);
      const double dice = rng.uniform();
      if (dice < 0.4) {
        tracer.emit(ev);
        model_push(ev);
      } else if (dice < 0.9) {
        const std::size_t phase = rng.below(2);
        const std::size_t shard = rng.below(shards);
        tracer.emit_shard(phase, shard, ev);
        auto& st = stage[phase * shards + shard];
        if (st.size() < stage_cap) {
          st.push_back(ev);
        } else {
          ++model_dropped;
        }
      } else {
        tracer.seal_round();
        for (auto& st : stage) {
          for (const auto& staged : st) model_push(staged);
          st.clear();
        }
      }
    }
    tracer.seal_round();
    for (auto& st : stage) {
      for (const auto& staged : st) model_push(staged);
      st.clear();
    }

    ASSERT_EQ(tracer.recorded(), model_recorded) << "trial " << trial;
    ASSERT_EQ(tracer.dropped(), model_dropped) << "trial " << trial;
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), model.size()) << "trial " << trial;
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(events[i], model[i]) << "trial " << trial << " event " << i;
    }
  }
}

TEST_P(FuzzSweep, ChromeTraceExportIsAlwaysValidJson) {
  // Arbitrary event soup — including kinds in positions the engine never
  // produces (truncated rings cut streams mid-round) — must still export
  // as well-formed JSON.
  Rng rng(GetParam() + 700);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<obs::TraceEvent> events;
    const std::size_t count = rng.below(120);
    for (std::size_t i = 0; i < count; ++i) {
      events.push_back(random_event(rng));
    }
    obs::ChromeTraceOptions opt;
    opt.ticks_per_round = 1 + rng.below(2000);
    const std::size_t cuts = rng.below(4);
    for (std::size_t i = 0; i < cuts; ++i) {
      opt.cut_edges.emplace_back(static_cast<std::uint32_t>(rng.below(64)),
                                 static_cast<std::uint32_t>(rng.below(64)));
    }
    std::ostringstream os;
    obs::write_chrome_trace(os, events, opt);
    const std::string json = os.str();
    ASSERT_TRUE(JsonValidator(json).valid())
        << "trial " << trial << " produced invalid JSON (" << json.size()
        << " bytes)";
  }
}

TEST_P(FuzzSweep, MetricsExportEscapesHostileNames) {
  // Metric names with quotes, backslashes, and control characters must be
  // escaped, never emitted raw.
  Rng rng(GetParam() + 800);
  obs::MetricsRegistry reg(2);
  const std::string hostile_chars = "\"\\\n\t\x01{}[],:";
  for (int i = 0; i < 12; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    name += '.';
    const std::size_t len = 1 + rng.below(8);
    for (std::size_t j = 0; j < len; ++j) {
      name += hostile_chars[rng.below(hostile_chars.size())];
    }
    reg.counter(name).add(rng.below(1000), rng.below(2));
    if (rng.chance(0.5)) reg.gauge(name + "/g").set(-5);
    if (rng.chance(0.5)) {
      reg.histogram(name + "/h", {4, 16}).observe(rng.below(40));
    }
  }
  std::ostringstream os;
  obs::write_metrics_json(os, reg);
  ASSERT_TRUE(JsonValidator(os.str()).valid())
      << "metrics JSON invalid: " << os.str();
}

TEST_P(FuzzSweep, SamplingBoundariesMatchModuloModel) {
  Rng rng(GetParam() + 900);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t period = 1 + rng.below(16);
    obs::Tracer t({.capacity = 8, .sample_period = period});
    for (int probe = 0; probe < 40; ++probe) {
      const std::size_t round = rng.below(1ULL << 30);
      const bool expect =
          obs::trace_compiled_in() && round % period == 0;
      ASSERT_EQ(t.sampled(round), expect)
          << "period " << period << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace congestlb
