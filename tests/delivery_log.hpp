// One observed delivery, payload bytes included, and the on_message
// observer that logs them: the shared record every engine contract test
// compares (threads, layouts, blocked vs materialized twins, owner cuts).
//
// Header-only test infrastructure, like approx_contract.hpp.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "congest/message.hpp"
#include "congest/network.hpp"

namespace congestlb::congest {

struct Delivery {
  std::size_t round;
  graph::NodeId from;
  graph::NodeId to;
  std::size_t bits;
  std::vector<std::byte> data;

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// The observer to install: cfg.on_message = log_deliveries(log). `log`
/// must outlive the Network.
inline std::function<void(std::size_t, NodeId, NodeId, const Message&)>
log_deliveries(std::vector<Delivery>& log) {
  return [&log](std::size_t round, NodeId from, NodeId to, const Message& m) {
    log.push_back({round, from, to, m.bits,
                   std::vector<std::byte>(m.data.begin(), m.data.end())});
  };
}

}  // namespace congestlb::congest
