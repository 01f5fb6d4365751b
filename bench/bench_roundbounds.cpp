// Experiments T1, T2: the round lower bounds of Theorems 1 and 2 as
// concrete curves.
//
// Theorem 1: (1/2+eps)-approx MaxIS needs Omega(n / log^3 n) rounds.
// Theorem 2: (3/4+eps)-approx MaxIS needs Omega(n^2 / log^3 n) rounds.
//
// For each n we instantiate the full chain: eps -> t -> paper-regime
// (ell, alpha, k) -> cut -> CKS bits -> Corollary 1 rounds, and print the
// reference curves n/log^3 n and n^2/log^3 n next to the computed bound.
// Absolute constants are implementation-specific; the *shape* (near-linear
// vs near-quadratic growth, quadratic >> linear) is the reproduced result.
// The last table compares the two bounds at equal n. `clb bounds <eps> <n>`
// prints the same chain for any other target approximation.

#include <cmath>
#include <iostream>

#include "lowerbound/framework.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "support/math.hpp"
#include "support/table.hpp"

namespace clb = congestlb;
using clb::Table;

int main() {
  std::cout << "=== bench_roundbounds: Theorems 1 and 2 ===\n";

  const double eps1 = 0.25, eps2 = 0.2;
  clb::print_heading(
      std::cout,
      "T1 — Omega(n / log^3 n) rounds for (1/2+0.25)-approximation");
  {
    Table t({"n", "t", "CC bits", "cut", "bound rounds", "n/log^3 n",
             "bound * log^3/n"});
    for (std::size_t e = 12; e <= 26; e += 2) {
      const std::size_t n = std::size_t{1} << e;
      const auto rb = clb::lb::theorem1_bound(n, eps1);
      const double ref = static_cast<double>(n) / (e * e * e);
      t.row(n, clb::lb::linear_players_for_epsilon(eps1),
            clb::fmt_double(rb.cc_bits, 0), rb.cut_edges,
            clb::fmt_double(rb.rounds, 6), clb::fmt_double(ref, 1),
            clb::fmt_double(rb.rounds / ref, 6));
    }
    t.print(std::cout);
  }

  clb::print_heading(
      std::cout,
      "T2 — Omega(n^2 / log^3 n) rounds for (3/4+0.2)-approximation");
  {
    Table t({"n", "t", "CC bits", "cut", "bound rounds", "n^2/log^3 n",
             "bound * log^3/n^2"});
    for (std::size_t e = 12; e <= 26; e += 2) {
      const std::size_t n = std::size_t{1} << e;
      const auto rb = clb::lb::theorem2_bound(n, eps2);
      const double ref =
          static_cast<double>(n) * static_cast<double>(n) / (e * e * e);
      t.row(n, clb::lb::quadratic_players_for_epsilon(eps2),
            clb::fmt_double(rb.cc_bits, 0), rb.cut_edges,
            clb::fmt_double(rb.rounds, 3), clb::fmt_double(ref, 0),
            clb::fmt_double(rb.rounds / ref, 6));
    }
    t.print(std::cout);
  }

  clb::print_heading(std::cout,
                     "who wins: quadratic vs linear bound at equal n");
  {
    Table t({"n", "T1 rounds", "T2 rounds", "T2 / T1"});
    for (std::size_t e = 14; e <= 24; e += 2) {
      const std::size_t n = std::size_t{1} << e;
      const auto r1 = clb::lb::theorem1_bound(n, eps1);
      const auto r2 = clb::lb::theorem2_bound(n, eps2);
      t.row(n, clb::fmt_double(r1.rounds, 6), clb::fmt_double(r2.rounds, 3),
            clb::fmt_double(r2.rounds / r1.rounds, 0));
    }
    t.print(std::cout);
  }

  std::cout << "\nRound-bound experiments completed.\n";
  return 0;
}
