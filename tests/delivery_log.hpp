// Per-edge views of the engine's per-sender hand-over: the network hands
// NetworkConfig::on_cut_sends one (sender, cut multiplicity, message) entry
// per boundary sender per round, and a reduction's board holds one record
// per such entry. Tests that compare deliveries edge by edge (threads,
// blocked vs materialized twins, owner cuts, pinned transcripts) expand
// each entry themselves: the sender's message goes to each of its
// neighbors with another owner, in ascending order — the order the
// network's per-edge accounting uses.
//
// Header-only test infrastructure, like approx_contract.hpp.

#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "comm/blackboard.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace congestlb::congest {

/// One directed delivery, payload bytes included.
struct Delivery {
  std::size_t round;
  graph::NodeId from;
  graph::NodeId to;
  std::size_t bits;
  std::vector<std::byte> data;

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// The neighbors of `from` in `g` with another owner, ascending; with an
/// empty owner table (every node its own owner), all of them.
inline std::vector<graph::NodeId> cut_neighbors(
    const graph::Graph& g, std::span<const std::size_t> owner,
    graph::NodeId from) {
  std::vector<graph::NodeId> out;
  for (const graph::NodeId v : g.neighbors(from)) {
    if (owner.empty() || owner[v] != owner[from]) out.push_back(v);
  }
  return out;
}

/// The hook to install: cfg.on_cut_sends = log_deliveries(log, g, owner),
/// with cfg.owner = owner. Each entry is expanded into its cut deliveries
/// and its multiplicity checked against their count. `log`, `g` and the
/// owner table must outlive the Network.
inline CutSendsHook log_deliveries(std::vector<Delivery>& log,
                                   const graph::Graph& g,
                                   std::span<const std::size_t> owner = {}) {
  return [&log, &g, owner](std::size_t round, std::span<const CutSend> sends) {
    for (const CutSend& s : sends) {
      const std::vector<graph::NodeId> to = cut_neighbors(g, owner, s.from);
      EXPECT_EQ(s.multiplicity, to.size()) << "sender " << s.from;
      for (const graph::NodeId v : to) {
        log.push_back({round, s.from, v, s.msg->bits,
                       std::vector<std::byte>(s.msg->data.begin(),
                                              s.msg->data.end())});
      }
    }
  };
}

/// One charged board post of a reduction, expanded from its record.
struct BoardDelivery {
  std::size_t player;
  graph::NodeId from;
  graph::NodeId to;
  std::size_t bits;
  std::vector<std::byte> data;

  friend bool operator==(const BoardDelivery&, const BoardDelivery&) = default;
};

/// Every record of `board` (all posted by post_broadcast on `g` with this
/// owner table) expanded into its cut deliveries, in posting order; each
/// record's multiplicity is checked against their count.
inline std::vector<BoardDelivery> expand_board(
    const comm::Blackboard& board, const graph::Graph& g,
    std::span<const std::size_t> owner) {
  std::vector<BoardDelivery> out;
  for (const comm::BoardEntry e : board.transcript()) {
    EXPECT_NE(e.sender, comm::BoardEntry::kNoSender);
    if (e.sender == comm::BoardEntry::kNoSender) continue;
    const std::vector<graph::NodeId> to = cut_neighbors(g, owner, e.sender);
    EXPECT_EQ(e.multiplicity, to.size()) << "sender " << e.sender;
    for (const graph::NodeId v : to) {
      out.push_back({e.player, e.sender, v, e.bits,
                     std::vector<std::byte>(e.data.begin(), e.data.end())});
    }
  }
  return out;
}

}  // namespace congestlb::congest
