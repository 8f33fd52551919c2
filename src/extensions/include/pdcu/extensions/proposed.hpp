// The paper's future-work agenda, implemented (§III.E, §IV): proposed new
// unplugged activities that fill the coverage holes the paper names —
// distributed systems, cloud computing, power consumption, communication
// constructs, parallel prefix, higher-level races, web search, and
// peer-to-peer — each with an executable simulation.
//
// These are deliberately NOT part of the 38-activity snapshot curation
// (which reproduces the paper's statistics exactly); they model the next
// batch of community contributions. Their only source is
// data/proposed/activities/*.md, compiled in (see core/embedded.hpp).
#pragma once

#include <vector>

#include "pdcu/core/activity.hpp"

namespace pdcu::ext {

/// The eight proposed activities targeting the paper's named gaps, in
/// file-name (= slug) order.
const std::vector<core::Activity>& proposed_activities();

/// Lookup by slug; nullptr when absent.
const core::Activity* find_proposed(std::string_view slug);

}  // namespace pdcu::ext
