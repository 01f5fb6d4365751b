// Golden-trace regression test: the canonical serialization of a traced
// Theorem-5 reduction (linear family, t = 3, seed 7, YES branch, first
// kGoldenRounds rounds) must match tests/golden/theorem5_t3_seed7.trace
// byte for byte.
//
// This pins the *entire* observable pipeline at once — fault-free engine
// scheduling, event staging order, blackboard post mirroring, and the
// canonical text format. Any intentional change to one of those layers
// shows up as a diff here and must be reviewed, then the golden refreshed:
//
//   CLB_UPDATE_GOLDEN=1 ./tests/golden_trace_test
//
// (run from the build directory; the file is written in-tree via the
// CLB_GOLDEN_DIR compile definition, so commit the result).
//
// The trace stops after three rounds and carries no payloads, so a second
// test pins whole runs: a digest of every charged blackboard delivery
// (player, bits, payload bytes, and the "msg <from>-><to>" text of its cut
// edge), the round count and the selected set of full universal-program
// reductions, against constants recorded from the code before the
// program's token state was compacted, when the board held one entry per
// cut edge. The board now holds one record per boundary sender per round;
// the test expands each record into its cut edges to reach the same
// digests.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "comm/blackboard.hpp"
#include "comm/instances.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/network.hpp"
#include "delivery_log.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/trace.hpp"
#include "sim/reduction.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

#ifndef CLB_GOLDEN_DIR
#error "CLB_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace congestlb {
namespace {

constexpr std::size_t kGoldenT = 3;
constexpr std::uint64_t kGoldenSeed = 7;
constexpr std::size_t kGoldenRounds = 3;

std::string golden_path() {
  return std::string(CLB_GOLDEN_DIR) + "/theorem5_t3_seed7.trace";
}

/// The exact run the golden file captures. Bounded to kGoldenRounds so the
/// file stays reviewable; determinism over a prefix implies determinism of
/// the full run (every event is a pure function of the prefix state).
std::string render_trace() {
  const auto p = lb::GadgetParams::for_linear_separation(kGoldenT, 1);
  const lb::LinearConstruction c(p, kGoldenT);
  Rng rng(kGoldenSeed);
  const auto inst = comm::make_uniquely_intersecting(p.k, kGoldenT, rng);
  comm::Blackboard board(kGoldenT);
  // Deliveries alone fix the accounting; sends would double the file size
  // without pinning anything sends-specific the property suite misses.
  obs::Tracer tracer(
      {.capacity = std::size_t{1} << 20, .record_sends = false});
  congest::NetworkConfig cfg;
  cfg.tracer = &tracer;
  cfg.bits_per_edge = congest::universal_required_bits(
      c.num_nodes(), static_cast<graph::Weight>(p.ell));
  cfg.max_rounds = kGoldenRounds;
  sim::run_linear_reduction(
      c, inst,
      congest::universal_maxis_factory([](const graph::Graph& g) {
        return maxis::solve_exact(g).nodes;
      }),
      board, cfg);
  EXPECT_EQ(tracer.dropped(), 0u) << "golden run must be lossless";
  std::ostringstream os;
  obs::write_canonical(os, tracer.events());
  return std::move(os).str();
}

TEST(GoldenTrace, Theorem5ReductionMatchesByteForByte) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "tracer compiled out (CONGESTLB_TRACE=0)";
  }
  const std::string got = render_trace();
  ASSERT_FALSE(got.empty());

  if (std::getenv("CLB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << got;
    GTEST_SKIP() << "golden refreshed at " << golden_path() << " ("
                 << got.size() << " bytes); commit the new file";
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path()
                  << "; regenerate with CLB_UPDATE_GOLDEN=1 "
                     "./tests/golden_trace_test";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string want = buf.str();

  if (got != want) {
    std::size_t line = 1, col = 0;
    const std::size_t limit = std::min(got.size(), want.size());
    std::size_t i = 0;
    for (; i < limit && got[i] == want[i]; ++i) {
      if (got[i] == '\n') {
        ++line;
        col = 0;
      } else {
        ++col;
      }
    }
    FAIL() << "golden trace diverges at byte " << i << " (line " << line
           << ", col " << col << "); got " << got.size() << " bytes, golden "
           << want.size()
           << ". If the change is intentional, regenerate with "
              "CLB_UPDATE_GOLDEN=1 ./tests/golden_trace_test and commit.";
  }
}

/// Digest of one full universal-program reduction on G_xbar: every charged
/// board delivery, then the round count, then the selected set.
std::uint64_t full_run_digest(std::size_t t, bool intersecting,
                              std::uint64_t seed) {
  const auto p = lb::GadgetParams::for_linear_separation(t, 1);
  const lb::LinearConstruction c(p, t);
  Rng rng(seed);
  const auto inst = intersecting
                        ? comm::make_uniquely_intersecting(p.k, t, rng)
                        : comm::make_pairwise_disjoint(p.k, t, rng);
  comm::Blackboard board(t);
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::universal_required_bits(
      c.num_nodes(), static_cast<graph::Weight>(p.ell));
  // Every node learns the same graph, solved once for the run; keep the
  // answer.
  std::vector<graph::NodeId> selected;
  const auto rep = sim::run_linear_reduction(
      c, inst,
      congest::universal_maxis_factory([&selected](const graph::Graph& g) {
        selected = maxis::solve_exact(g).nodes;
        return selected;
      }),
      board, cfg);
  EXPECT_TRUE(rep.algorithm_finished);
  EXPECT_TRUE(rep.correct);
  const graph::Graph gx = c.instantiate(inst);
  std::vector<std::size_t> owner(gx.num_nodes());
  for (graph::NodeId v = 0; v < owner.size(); ++v) owner[v] = c.owner(v);
  std::uint64_t h = hash_mix64(t);
  for (const auto& d : congest::expand_board(board, gx, owner)) {
    h = hash_combine(h, d.player);
    h = hash_combine(h, d.bits);
    h = hash_combine(h, fnv1a64({reinterpret_cast<const char*>(d.data.data()),
                                 d.data.size()}));
    h = hash_combine(h, fnv1a64("msg " + std::to_string(d.from) + "->" +
                                std::to_string(d.to)));
  }
  h = hash_combine(h, rep.rounds);
  h = hash_combine(h, selected.size());
  for (graph::NodeId v : selected) h = hash_combine(h, v);
  return h;
}

TEST(GoldenTranscript, FullUniversalRunsMatchPinnedDigests) {
  struct Case {
    std::size_t t;
    bool intersecting;
    std::uint64_t digest;
  };
  for (const Case& k : {Case{2, true, 0xdf17176bcf86c70fULL},
                        Case{2, false, 0xe53e1c19db8d76d9ULL},
                        Case{3, true, 0xd2d6862068056b3bULL}}) {
    const std::uint64_t got = full_run_digest(k.t, k.intersecting, kGoldenSeed);
    EXPECT_EQ(got, k.digest) << "t=" << k.t
                             << (k.intersecting ? " YES" : " NO") << " digest 0x"
                             << std::hex << got;
  }
}

}  // namespace
}  // namespace congestlb
