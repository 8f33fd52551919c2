// The PDCunplugged curation: 38 unique unplugged activities reconstructed
// from the papers the paper cites ([3], [8]–[14], [17]–[33], [35]–[37]).
// Its only source is data/activities/*.md, compiled in (see embedded.hpp).
//
// The live pdcunplugged.org dataset is not published in the paper; only its
// aggregate statistics are (Tables I and II, §III.A, §III.D). This curation
// is engineered so that every reported aggregate is reproduced exactly by
// the coverage analyzer; see DESIGN.md §2 and EXPERIMENTS.md.
#pragma once

#include <vector>

#include "pdcu/core/activity.hpp"

namespace pdcu::core {

/// The built-in curation, in file-name (= slug) order: the order
/// Repository::load("data") produces.
const std::vector<Activity>& curation();

/// Looks up a curated activity by slug; nullptr when absent.
const Activity* find_activity(std::string_view slug);

}  // namespace pdcu::core
