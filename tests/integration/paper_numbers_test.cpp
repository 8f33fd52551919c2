// One end-to-end test per headline claim in the paper's abstract and
// introduction, checked against the shipped data/ directory (the exported
// curation), not just the in-memory one.
#include <gtest/gtest.h>

#include <filesystem>

#include "pdcu/activities/registry.hpp"
#include "pdcu/core/repository.hpp"

namespace core = pdcu::core;

#ifndef PDCU_DATA_DIR
#define PDCU_DATA_DIR "data"
#endif

namespace {

const core::Repository& shipped() {
  static const core::Repository kRepo = [] {
    auto loaded = core::Repository::load(PDCU_DATA_DIR);
    EXPECT_TRUE(loaded.has_value())
        << "data/activities missing or unloadable — it is the curation's "
           "only copy; restore it from version control";
    return loaded.has_value() ? std::move(loaded).value()
                              : core::Repository::builtin();
  }();
  return kRepo;
}

}  // namespace

TEST(PaperNumbers, NearlyFortyUniqueActivities) {
  EXPECT_EQ(shipped().activities().size(), 38u);
}

TEST(PaperNumbers, ThirtyYearsOfLiterature) {
  auto [lo, hi] = shipped().stats().year_range();
  EXPECT_GE(hi - lo, 29);
}

TEST(PaperNumbers, SpansAllKnowledgeUnitsAndTopicAreas) {
  // Abstract: the curation "spans all the CS2013 knowledge units [and] the
  // TCPP topic areas".
  for (const auto& row : shipped().coverage().cs2013_table()) {
    EXPECT_GE(row.total_activities, 1u) << row.unit_name;
    EXPECT_GE(row.covered_outcomes, 1u) << row.unit_name;
  }
  for (const auto& row : shipped().coverage().tcpp_table()) {
    EXPECT_GE(row.total_activities, 1u) << row.area_name;
  }
}

TEST(PaperNumbers, SpansAllCoreCourses) {
  for (const auto& [course, count] : shipped().stats().course_counts()) {
    EXPECT_GE(count, 1u) << course;
  }
}

TEST(PaperNumbers, TableOneFromShippedData) {
  auto rows = shipped().coverage().cs2013_table();
  ASSERT_EQ(rows.size(), 9u);
  const std::size_t covered[] = {2, 5, 6, 6, 7, 6, 1, 1, 1};
  const std::size_t totals[] = {2, 21, 9, 12, 9, 10, 2, 3, 1};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(rows[i].covered_outcomes, covered[i]) << rows[i].unit_name;
    EXPECT_EQ(rows[i].total_activities, totals[i]) << rows[i].unit_name;
  }
}

TEST(PaperNumbers, TableTwoFromShippedData) {
  auto rows = shipped().coverage().tcpp_table();
  ASSERT_EQ(rows.size(), 4u);
  const std::size_t covered[] = {10, 19, 13, 7};
  const std::size_t totals[] = {9, 24, 22, 8};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rows[i].covered_topics, covered[i]) << rows[i].area_name;
    EXPECT_EQ(rows[i].total_activities, totals[i]) << rows[i].area_name;
  }
}

TEST(PaperNumbers, SectionThreeDFromShippedData) {
  auto stats = shipped().stats();
  EXPECT_EQ(stats.sense_percent("visual"), "71.05%");
  EXPECT_EQ(stats.sense_percent("touch"), "26.32%");
  auto mediums = stats.medium_counts();
  EXPECT_EQ(mediums[0].second, 11u);  // analogies
  EXPECT_EQ(mediums[1].second, 11u);  // role-plays
  EXPECT_EQ(mediums[2].second, 4u);   // games
}

TEST(PaperNumbers, EverySimulationLinkInShippedDataRuns) {
  for (const auto& activity : shipped().activities()) {
    if (activity.simulation.empty()) continue;
    const auto* sim = pdcu::act::find_simulation(activity.simulation);
    ASSERT_NE(sim, nullptr) << activity.slug;
  }
}
