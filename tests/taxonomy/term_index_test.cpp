#include "pdcu/taxonomy/term_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pdcu/core/repository.hpp"

namespace tax = pdcu::tax;

namespace {

tax::TermIndex make_index() {
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  index.add_page({"alpha", "Alpha"},
                 {{"courses", {"CS1", "CS2"}}, {"senses", {"visual"}}});
  index.add_page({"beta", "Beta"},
                 {{"courses", {"CS2"}}, {"senses", {"visual", "touch"}}});
  index.add_page({"gamma", "Gamma"}, {{"courses", {"CS1", "CS2", "DSA"}}});
  return index;
}

}  // namespace

TEST(TermIndex, GroupsPagesByTerm) {
  auto index = make_index();
  EXPECT_EQ(index.count("courses", "CS1"), 2u);
  EXPECT_EQ(index.count("courses", "CS2"), 3u);
  EXPECT_EQ(index.count("courses", "DSA"), 1u);
  EXPECT_EQ(index.count("senses", "touch"), 1u);
}

TEST(TermIndex, PagesKeepInsertionOrder) {
  auto index = make_index();
  auto pages = index.pages("courses", "CS2");
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0].slug, "alpha");
  EXPECT_EQ(pages[1].slug, "beta");
  EXPECT_EQ(pages[2].slug, "gamma");
}

TEST(TermIndex, TermsAreSorted) {
  auto index = make_index();
  auto terms = index.terms("courses");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "CS1");
  EXPECT_EQ(terms[1], "CS2");
  EXPECT_EQ(terms[2], "DSA");
}

TEST(TermIndex, UnknownTaxonomyKeysAreIgnored) {
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  index.add_page({"x", "X"}, {{"title", {"not-a-taxonomy"}}});
  EXPECT_TRUE(index.terms("title").empty());
  EXPECT_EQ(index.page_count(), 1u);
}

TEST(TermIndex, DuplicateTermsOnOnePageIndexOnce) {
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  index.add_page({"x", "X"}, {{"courses", {"CS1", "CS1"}}});
  EXPECT_EQ(index.count("courses", "CS1"), 1u);
}

TEST(TermIndex, UnknownTermIsEmpty) {
  auto index = make_index();
  EXPECT_TRUE(index.pages("courses", "PhD").empty());
  EXPECT_EQ(index.count("nope", "CS1"), 0u);
}

TEST(TermIndex, PagesWithAnyDeduplicates) {
  auto index = make_index();
  auto pages = index.pages_with_any("courses", {"CS1", "CS2"});
  EXPECT_EQ(pages.size(), 3u);  // alpha, beta, gamma without duplicates
}

TEST(TermIndex, PagesWithAllIntersects) {
  auto index = make_index();
  auto pages = index.pages_with_all("courses", {"CS1", "CS2"});
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].slug, "alpha");
  EXPECT_EQ(pages[1].slug, "gamma");
  EXPECT_TRUE(index.pages_with_all("courses", {}).empty());
}

TEST(TermIndexResolve, ExactAndCaseInsensitiveMatches) {
  const auto& index = pdcu::core::Repository::builtin().index();
  EXPECT_EQ(index.resolve_term("cs2013", "PD_ParallelAlgorithms"),
            std::optional<std::string>("PD_ParallelAlgorithms"));
  EXPECT_EQ(index.resolve_term("cs2013", "pd_parallelalgorithms"),
            std::optional<std::string>("PD_ParallelAlgorithms"));
  EXPECT_EQ(index.resolve_term("courses", "cs2"),
            std::optional<std::string>("CS2"));
}

TEST(TermIndexResolve, HyphenAndUnderscoreAreInterchangeable) {
  const auto& index = pdcu::core::Repository::builtin().index();
  EXPECT_EQ(index.resolve_term("cs2013", "PD-ParallelAlgorithms"),
            std::optional<std::string>("PD_ParallelAlgorithms"));
}

TEST(TermIndexResolve, UniquePrefixResolvesAmbiguousDoesNot) {
  const auto& index = pdcu::core::Repository::builtin().index();
  // "PD-Communication" is a strict prefix of exactly one cs2013 term.
  EXPECT_EQ(index.resolve_term("cs2013", "PD-Communication"),
            std::optional<std::string>("PD_CommunicationCoordination"));
  // "PD_Parallel" prefixes several terms -> ambiguous.
  EXPECT_EQ(index.resolve_term("cs2013", "PD_Parallel"), std::nullopt);
}

TEST(TermIndexResolve, UnknownInputsResolveToNothing) {
  const auto& index = pdcu::core::Repository::builtin().index();
  EXPECT_EQ(index.resolve_term("cs2013", "NoSuchTerm"), std::nullopt);
  EXPECT_EQ(index.resolve_term("notataxonomy", "CS2"), std::nullopt);
  EXPECT_EQ(index.resolve_term("cs2013", ""), std::nullopt);
}

TEST(TermIndex, FindPagesReturnsPointerWithoutCopying) {
  auto index = make_index();
  const auto* pages = index.find_pages("courses", "CS1");
  ASSERT_NE(pages, nullptr);
  EXPECT_EQ(pages->size(), 2u);
  EXPECT_EQ((*pages)[0].slug, "alpha");
  EXPECT_EQ((*pages)[1].slug, "gamma");
  // Two lookups see the same underlying storage, not clones.
  EXPECT_EQ(pages, index.find_pages("courses", "CS1"));

  EXPECT_EQ(index.find_pages("courses", "NoSuchTerm"), nullptr);
  EXPECT_EQ(index.find_pages("notataxonomy", "CS1"), nullptr);
}

TEST(TermIndex, RepeatedSlugListsUnderATermOnce) {
  // Two distinct pages share the slug "dup". A term lists the slug once,
  // as the first page that carried it; a term only the second page
  // carries lists the second page.
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  const tax::PageTags first = {{"courses", {"CS1", "CS2"}}};
  index.add_page({"dup", "First"}, first);
  index.add_page({"other", "Other"}, {{"courses", {"CS1"}}});
  index.add_page({"dup", "Second"}, {{"courses", {"CS1", "DSA", "DSA"}}},
                 first);

  const auto cs1 = index.pages("courses", "CS1");
  ASSERT_EQ(cs1.size(), 2u);
  EXPECT_EQ(cs1[0].title, "First");
  EXPECT_EQ(cs1[1].slug, "other");
  const auto cs2 = index.pages("courses", "CS2");
  ASSERT_EQ(cs2.size(), 1u);
  EXPECT_EQ(cs2[0].title, "First");
  const auto dsa = index.pages("courses", "DSA");
  ASSERT_EQ(dsa.size(), 1u);
  EXPECT_EQ(dsa[0].title, "Second");
  EXPECT_EQ(index.page_count(), 3u);
}

namespace {

using Lists = std::map<std::pair<std::string, std::string>,
                       std::vector<std::pair<std::string, std::string>>>;

/// (taxonomy, term) -> (slug, title) of every listed page, built by the
/// plain scan the index must agree with: a page joins a term's list
/// unless a page with its slug is already on it.
Lists scanned_lists(const std::vector<pdcu::core::Activity>& activities) {
  const auto config = tax::TaxonomyConfig::pdcunplugged();
  Lists lists;
  for (const auto& activity : activities) {
    for (const auto& [key, terms] : activity.tags()) {
      if (!config.is_taxonomy_key(key)) continue;
      for (const auto& term : terms) {
        auto& pages = lists[{key, term}];
        const bool listed =
            std::any_of(pages.begin(), pages.end(), [&](const auto& page) {
              return page.first == activity.slug;
            });
        if (!listed) pages.emplace_back(activity.slug, activity.title);
      }
    }
  }
  return lists;
}

Lists indexed_lists(const tax::TermIndex& index) {
  Lists lists;
  for (const auto& taxonomy : index.config().all()) {
    for (const auto& term : index.terms(taxonomy.key)) {
      auto& pages = lists[{taxonomy.key, term}];
      for (const auto& page : index.pages(taxonomy.key, term)) {
        pages.emplace_back(page.slug, page.title);
      }
    }
  }
  return lists;
}

}  // namespace

TEST(TermIndex, RepositoryWithRepeatedSlugsMatchesAPlainScan) {
  // Content loaded from disk derives slugs from titles, so distinct files
  // can share one. Repeat every fourth activity's slug on a page carrying
  // the next activity's tags (overlapping and new terms), and one more
  // time as an exact copy.
  std::vector<pdcu::core::Activity> activities =
      pdcu::core::Repository::builtin().activities();
  const std::size_t n = activities.size();
  for (std::size_t i = 0; i + 1 < n; i += 4) {
    pdcu::core::Activity repeat = activities[i + 1];
    repeat.slug = activities[i].slug;
    repeat.title = activities[i].title + " (copy)";
    activities.push_back(std::move(repeat));
  }
  activities.push_back(activities.front());

  const Lists expected = scanned_lists(activities);
  const pdcu::core::Repository repo(activities);
  EXPECT_EQ(indexed_lists(repo.index()), expected);
  EXPECT_EQ(repo.index().page_count(), activities.size());
}
