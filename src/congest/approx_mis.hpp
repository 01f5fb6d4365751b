// Round-synchronous (1+eps)-approximate maximum-weight independent set, in
// the ball-carving style of Kawarabayashi–Khoury–Schild–Schwartzman
// (arXiv:1906.11524).
//
// The algorithm the paper cites as the LOCAL-model counterpoint to its
// CONGEST lower bounds: nodes flood monotone knowledge tokens (node, edge,
// decision facts), and in geometrically growing epochs, locally-minimal
// undecided nodes *carve* — grow a ball B(0) ⊆ B(1) ⊆ ... around
// themselves until the exact local optimum stops growing by more than a
// (1+eps) factor, commit OPT(B(r)) into the output set, and discard the
// shell B(r+1). Charging every optimal vertex to the carve that removed it
// gives w(ALG) >= OPT/(1+eps); concurrent carves are kept disjoint by an
// id-based election over live distance, and the commit itself goes through
// a pending-in handshake: a node finalizes In only in a round where every
// neighbor is known-final or spoke a valid frame that very round, so the
// output is an independent set. Frames and tokens carry fold_checksum
// fields; the engine delivers them intact, and the bits stay because they
// are part of the message layout — dropping them would change every
// message size and hence the recorded round and bit counts. Every round a
// node sends one frame (its status and its next tokens) to all neighbors,
// so the program is a CONGEST-Broadcast algorithm.
//
// Bandwidth scaling makes the LOCAL/CONGEST separation quantitative: with
// approx_mis_local_bits() per edge every token moves one hop per round and
// the round count is O((n + log_{1+eps} W)^2); at CONGEST bandwidth the
// same algorithm still converges to the same guarantee, but the epoch
// schedule stretches by the token-serialization factor sigma ~ (n + m) /
// tokens-per-message — exactly the congestion Theorem 2 says is
// unavoidable. The epoch schedule is a pure function of (n, bits_per_edge),
// so runs are bit-identical across thread counts like every engine program.
//
// Complexity envelopes (validated by tests/approx_contract.hpp): a run
// terminates within approx_mis_round_bound(...) rounds and satisfies
// w(ALG) * (den+num) >= OPT * den for eps = num/den. A node still
// undecided at its round deadline reports failed() instead of spinning.

#pragma once

#include <cstdint>

#include "congest/algorithms/universal_maxis.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace congestlb::congest {

struct ApproxMisConfig {
  /// eps = eps_num / eps_den > 0 (integers keep the carve stopping rule and
  /// the contract ratio check exact — no floating-point thresholds).
  std::size_t eps_num = 1;
  std::size_t eps_den = 4;
  /// Round deadline after which an unconverged node reports failed();
  /// 0 = auto from approx_mis_round_bound over the weight discovered so far.
  std::size_t deadline = 0;
};

/// Minimum per-edge bandwidth: one status frame plus one knowledge token
/// per round (the CONGEST floor; the epoch schedule stretches by sigma).
std::size_t approx_mis_required_bits(std::size_t n, graph::Weight max_weight);

/// Bandwidth at which every pending token forwards every round (sigma = 1):
/// the LOCAL-model regime where the (1+eps) guarantee costs no congestion
/// slowdown. This is what the contract tests and gadget sweeps run with.
std::size_t approx_mis_local_bits(std::size_t n, graph::Weight max_weight);

/// The token-serialization factor for an n-node network at this bandwidth:
/// worst-case pending tokens divided by tokens forwarded per edge-round.
std::size_t approx_mis_sigma(std::size_t n, std::size_t bits_per_edge);

/// Upper bound on the rounds a run takes: the epoch schedule
/// summed to the epoch by which every component must have been fully
/// carved (total_weight bounds the log_{1+eps} ball-growth plateau count).
std::size_t approx_mis_round_bound(std::size_t n, graph::Weight total_weight,
                                   std::size_t eps_num, std::size_t eps_den,
                                   std::size_t bits_per_edge);

/// One program per node; `solver` is the exact local MaxIS oracle used on
/// carved balls (deterministic, shared by all nodes — the same injection
/// seam as universal_maxis_factory, so congest never links the solver
/// engine). The network's bits_per_edge must be at least
/// approx_mis_required_bits(...).
ProgramFactory approx_mis_factory(LocalMaxIsSolver solver,
                                  ApproxMisConfig cfg = {});

}  // namespace congestlb::congest
