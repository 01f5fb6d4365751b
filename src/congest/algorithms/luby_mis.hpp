// Luby-style randomized distributed MIS.
//
// Each phase, every undecided node draws a fresh random key and joins the
// MIS if its key strictly beats the keys of all undecided neighbors (ties
// broken by id, which neighbors know per slot). Runs in O(log n) phases with
// high probability; each message is 2 state bits + the key, well within the
// O(log n) CONGEST budget. Paper context: fast MIS algorithms exist, but an
// MIS can be a factor-Delta-poor approximation of *maximum* IS — which is
// exactly the regime the paper's lower bounds address.

#pragma once

#include "congest/network.hpp"

namespace congestlb::congest {

/// One LubyMisProgram per node. Key width defaults to 2*ceil(log2 n) + 2
/// bits, clamped so the whole message fits the network's per-edge budget.
ProgramFactory luby_mis_factory();

}  // namespace congestlb::congest
