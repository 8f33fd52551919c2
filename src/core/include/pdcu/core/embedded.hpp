// Content compiled into the binary. The builtin curation and the proposed
// activities are the Markdown files under data/; src/embed_markdown.cmake
// copies them into generated translation units at configure time, and
// parse_embedded turns them into activities with the same parser
// Repository::load uses, so the two can never disagree.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "pdcu/core/activity.hpp"

namespace pdcu::core {

/// One embedded content file.
struct EmbeddedFile {
  std::string_view name;  ///< file name, e.g. "findsmallestcard.md"
  std::string_view text;  ///< the file's bytes
};

/// Parses embedded content files, keeping their order. Embedded content
/// that does not parse is a build bug, so this aborts naming the file.
std::vector<Activity> parse_embedded(std::span<const EmbeddedFile> files);

}  // namespace pdcu::core
