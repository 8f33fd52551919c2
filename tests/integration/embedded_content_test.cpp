// The builtin curation and the proposed activities are data/*.md compiled
// in, not a second copy: they must equal what Repository::load reads from
// the same directories, field for field and in the same order, and
// everything built from them (site, search index) must be byte-identical.
#include <gtest/gtest.h>

#include <string>

#include "pdcu/core/repository.hpp"
#include "pdcu/extensions/proposed.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/serialize.hpp"
#include "pdcu/site/site.hpp"

#ifndef PDCU_DATA_DIR
#define PDCU_DATA_DIR "data"
#endif

namespace core = pdcu::core;
namespace ext = pdcu::ext;
namespace site = pdcu::site;
namespace search = pdcu::search;

namespace {

core::Repository load(const std::string& dir) {
  auto loaded = core::Repository::load(dir);
  EXPECT_TRUE(loaded.has_value()) << (loaded ? "" : loaded.error().message);
  return loaded ? std::move(loaded).value()
                : core::Repository(std::vector<core::Activity>{});
}

/// Every field of Activity, compared one by one so a mismatch names it.
void expect_same_activity(const core::Activity& embedded,
                          const core::Activity& loaded) {
  SCOPED_TRACE(loaded.slug);
  EXPECT_EQ(embedded.title, loaded.title);
  EXPECT_EQ(embedded.slug, loaded.slug);
  EXPECT_TRUE(embedded.date == loaded.date);
  EXPECT_EQ(embedded.year, loaded.year);
  EXPECT_EQ(embedded.authors, loaded.authors);
  EXPECT_EQ(embedded.origin_url, loaded.origin_url);
  EXPECT_EQ(embedded.details, loaded.details);
  EXPECT_EQ(embedded.accessibility, loaded.accessibility);
  EXPECT_EQ(embedded.assessment, loaded.assessment);
  EXPECT_TRUE(embedded.variations == loaded.variations);
  EXPECT_TRUE(embedded.citations == loaded.citations);
  EXPECT_EQ(embedded.cs2013, loaded.cs2013);
  EXPECT_EQ(embedded.cs2013details, loaded.cs2013details);
  EXPECT_EQ(embedded.tcpp, loaded.tcpp);
  EXPECT_EQ(embedded.tcppdetails, loaded.tcppdetails);
  EXPECT_EQ(embedded.courses, loaded.courses);
  EXPECT_EQ(embedded.senses, loaded.senses);
  EXPECT_EQ(embedded.mediums, loaded.mediums);
  EXPECT_EQ(embedded.simulation, loaded.simulation);
}

void expect_same_repository(const core::Repository& embedded,
                            const core::Repository& loaded) {
  ASSERT_EQ(embedded.activities().size(), loaded.activities().size());
  for (std::size_t i = 0; i < loaded.activities().size(); ++i) {
    expect_same_activity(embedded.activities()[i], loaded.activities()[i]);
  }
}

void expect_same_builds(const core::Repository& embedded,
                        const core::Repository& loaded) {
  const site::Site a = site::build_site(embedded);
  const site::Site b = site::build_site(loaded);
  ASSERT_EQ(a.pages.size(), b.pages.size());
  for (std::size_t i = 0; i < a.pages.size(); ++i) {
    EXPECT_EQ(a.pages[i].path, b.pages[i].path);
    EXPECT_TRUE(a.pages[i].html == b.pages[i].html) << a.pages[i].path;
  }
  EXPECT_TRUE(search::serialize_index(search::SearchIndex::build(embedded)) ==
              search::serialize_index(search::SearchIndex::build(loaded)));
}

}  // namespace

TEST(EmbeddedContent, BuiltinIsTheDataDirectoryInLoadOrder) {
  const core::Repository loaded = load(PDCU_DATA_DIR);
  ASSERT_EQ(loaded.activities().size(), 38u);
  expect_same_repository(core::Repository::builtin(), loaded);
}

TEST(EmbeddedContent, ProposedIsTheProposedDirectoryInLoadOrder) {
  const core::Repository loaded = load(PDCU_DATA_DIR "/proposed");
  ASSERT_EQ(loaded.activities().size(), 8u);
  expect_same_repository(core::Repository(ext::proposed_activities()),
                         loaded);
}

TEST(EmbeddedContent, BuiltinSiteAndSearchIndexAreByteIdentical) {
  expect_same_builds(core::Repository::builtin(), load(PDCU_DATA_DIR));
}

TEST(EmbeddedContent, ProposedSiteAndSearchIndexAreByteIdentical) {
  expect_same_builds(core::Repository(ext::proposed_activities()),
                     load(PDCU_DATA_DIR "/proposed"));
}
