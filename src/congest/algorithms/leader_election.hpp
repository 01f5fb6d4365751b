// Leader election by maximum-id flooding.
//
// Every node tracks the largest id it has seen (initially its own) and
// re-broadcasts whenever the value improves; after n rounds the value has
// stabilized network-wide (any id travels at most D < n hops), so nodes
// stop. O(n) rounds worst case, O(D) until stabilization; one O(log n)-bit
// message per improvement.

#pragma once

#include "congest/network.hpp"

namespace congestlb::congest {

/// output(): 1 for the elected leader (the maximum id in the node's
/// connected component), 0 otherwise — so Network::selected_nodes()
/// returns exactly the leaders.
ProgramFactory leader_election_factory();

}  // namespace congestlb::congest
