// Golden-file regression test for the BENCH_approx.json row schema.
//
// The shared writer (campaign/approx_sweep.hpp) serializes the gap-sandwich
// rows bench_approx writes and the regression gate
// (scripts/check_bench_regression.py) reads. This test renders one gadget
// through every variant of the real measurement path and compares the
// document byte for byte against
// tests/golden/bench_approx_rows.json, so any schema drift (renamed key,
// reordered field, changed type) or algorithm-output drift shows up as a
// reviewable diff. Refresh after an intentional change:
//
//   CLB_UPDATE_GOLDEN=1 ./tests/approx_bench_golden_test
//
// (run from the build directory; the file is written in-tree via the
// CLB_GOLDEN_DIR compile definition, so commit the result).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/approx_sweep.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"

#ifndef CLB_GOLDEN_DIR
#error "CLB_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace congestlb {
namespace {

std::string golden_path() {
  return std::string(CLB_GOLDEN_DIR) + "/bench_approx_rows.json";
}

/// The rows the golden file captures: one gadget instance through every
/// variant. Measurement functions leave ns_per_round at 0, so the bytes are
/// a pure function of the algorithms.
std::vector<campaign::ApproxBenchRow> golden_rows() {
  std::vector<campaign::ApproxBenchRow> rows;
  const auto params = lb::GadgetParams::from_l_alpha(2, 1);
  const lb::LinearConstruction c(params, 2);
  rows.push_back(campaign::measure_approx_row(
      c.fixed_graph(), "gadget/ell=2,alpha=1,t=2", 1, 4, /*seed=*/7));
  for (auto& row : campaign::measure_blackboard_rows(
           c.fixed_graph(), "gadget/ell=2,alpha=1,t=2", /*players=*/2,
           /*seed=*/7)) {
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_document(const std::vector<campaign::ApproxBenchRow>& rows) {
  std::ostringstream os;
  campaign::write_approx_bench_json(os, rows, "golden");
  return std::move(os).str();
}

TEST(ApproxBenchGolden, RowSchemaMatchesByteForByte) {
  const std::string got = render_document(golden_rows());
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
                     "./tests/approx_bench_golden_test";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string want = buf.str();

  if (got != want) {
    std::size_t i = 0;
    const std::size_t limit = std::min(got.size(), want.size());
    while (i < limit && got[i] == want[i]) ++i;
    FAIL() << "BENCH_approx row schema diverges at byte " << i << "; got "
           << got.size() << " bytes, golden " << want.size()
           << ". If the change is intentional, regenerate with "
              "CLB_UPDATE_GOLDEN=1 ./tests/approx_bench_golden_test and "
              "commit.";
  }
}

/// Every row the golden document carries must also hold its contract —
/// the golden file can never pin a violating run as the expected state.
TEST(ApproxBenchGolden, GoldenRowsHoldTheirContracts) {
  const auto rows = golden_rows();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_TRUE(row.holds) << row.name << " [" << row.variant << "]";
  }
  EXPECT_GE(rows.front().opt_exact, 0) << "24-node gadget must be certified";
}

}  // namespace
}  // namespace congestlb
