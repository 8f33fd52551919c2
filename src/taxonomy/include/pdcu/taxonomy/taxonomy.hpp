// The taxonomy system: the reason the paper chose Hugo (§II.B).
//
// A taxonomy is a named classification axis (e.g. `cs2013`, `senses`); each
// page lists a subset of the taxonomy's terms in its front matter, and the
// engine groups pages by term so every term gets a listing page.
//
// PDCunplugged defines seven taxonomies: four visible in the activity header
// (cs2013, tcpp, courses, senses) and three hidden ones used to build views
// (cs2013details, tcppdetails, medium).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pdcu::tax {

/// Display color assigned to a taxonomy's chips ("Each taxonomy is assigned
/// a different color", §II.B).
struct Color {
  std::string name;      ///< human name, e.g. "teal"
  std::string hex;       ///< CSS hex, e.g. "#1f8a8c"
  int ansi256 = 7;       ///< ANSI-256 code for terminal chips
};

/// A taxonomy definition.
struct Taxonomy {
  std::string key;          ///< front-matter key, e.g. "cs2013"
  std::string display_name; ///< e.g. "CS2013"
  bool hidden = false;      ///< hidden taxonomies don't render in headers
  Color color;

  bool operator==(const Taxonomy& other) const { return key == other.key; }
};

/// The fixed PDCunplugged taxonomy configuration.
class TaxonomyConfig {
 public:
  /// Builds the seven-taxonomy PDCunplugged configuration.
  static TaxonomyConfig pdcunplugged();

  /// All taxonomies, visible first, in stable order.
  const std::vector<Taxonomy>& all() const { return taxonomies_; }

  /// Taxonomies rendered in the activity header (non-hidden), in order.
  std::vector<Taxonomy> visible() const;

  /// Lookup by front-matter key.
  std::optional<Taxonomy> find(std::string_view key) const;

  bool is_taxonomy_key(std::string_view key) const {
    for (const auto& t : taxonomies_) {
      if (t.key == key) return true;
    }
    return false;
  }

  void add(Taxonomy taxonomy) { taxonomies_.push_back(std::move(taxonomy)); }

 private:
  std::vector<Taxonomy> taxonomies_;
};

/// Canonical keys for the PDCunplugged taxonomies.
namespace keys {
inline constexpr std::string_view kCs2013 = "cs2013";
inline constexpr std::string_view kTcpp = "tcpp";
inline constexpr std::string_view kCourses = "courses";
inline constexpr std::string_view kSenses = "senses";
inline constexpr std::string_view kCs2013Details = "cs2013details";
inline constexpr std::string_view kTcppDetails = "tcppdetails";
inline constexpr std::string_view kMedium = "medium";
}  // namespace keys

}  // namespace pdcu::tax
