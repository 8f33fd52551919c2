// Unit tests for binary index persistence: round-trip fidelity, header
// validation, checksum detection, and truncation safety.
#include "pdcu/search/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/support/hash.hpp"

namespace search = pdcu::search;
namespace core = pdcu::core;
namespace rt = pdcu::rt;

namespace {

const search::SearchIndex& index() {
  static const search::SearchIndex kIndex =
      search::SearchIndex::build(core::Repository::builtin());
  return kIndex;
}

}  // namespace

TEST(IndexSerialize, RoundTripIsIdentical) {
  const std::string bytes = search::serialize_index(index());
  const auto loaded = search::deserialize_index(bytes);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_TRUE(loaded.value() == index());
}

TEST(IndexSerialize, RoundTripProducesIdenticalRankings) {
  const auto loaded =
      search::deserialize_index(search::serialize_index(index()));
  ASSERT_TRUE(loaded.has_value());
  const auto& taxonomy = core::Repository::builtin().index();
  for (const char* input :
       {"message passing", "sorting cs2013:PD-Algorithms", "course:CS2",
        "byzantine generals", "race condition"}) {
    const auto query = search::parse_query(input);
    const auto before = index().search(query, &taxonomy, 20);
    const auto after = loaded.value().search(query, &taxonomy, 20);
    ASSERT_EQ(before.size(), after.size()) << input;
    for (std::size_t h = 0; h < before.size(); ++h) {
      EXPECT_EQ(before[h].slug, after[h].slug) << input;
      EXPECT_EQ(before[h].score, after[h].score) << input;
      EXPECT_EQ(before[h].snippet.text, after[h].snippet.text) << input;
    }
  }
}

TEST(IndexSerialize, SaveAndLoadThroughTheFilesystem) {
  const auto path = std::filesystem::temp_directory_path() /
                    "pdcu_serialize_test.idx";
  ASSERT_TRUE(search::save_index(index(), path).has_value());
  const auto loaded = search::load_index(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_TRUE(loaded.value() == index());
  std::filesystem::remove(path);
}

TEST(IndexSerialize, RejectsForeignBytes) {
  const auto result = search::deserialize_index("not an index at all");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "search.index.magic");
}

TEST(IndexSerialize, RejectsWrongVersion) {
  std::string bytes = search::serialize_index(index());
  bytes[8] = 99;  // version field follows the 8-byte magic
  const auto result = search::deserialize_index(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "search.index.version");
}

TEST(IndexSerialize, DetectsCorruption) {
  std::string bytes = search::serialize_index(index());
  bytes[bytes.size() / 2] ^= 0x5a;  // flip payload bits
  const auto result = search::deserialize_index(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "search.index.checksum");
}

TEST(IndexSerialize, DetectsTruncation) {
  const std::string bytes = search::serialize_index(index());
  // Every truncation point must fail cleanly (either checksum or size),
  // never crash. Sample a few points including just-past-the-header.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{19}, std::size_t{21},
        bytes.size() / 2, bytes.size() - 1}) {
    const auto result = search::deserialize_index(bytes.substr(0, keep));
    EXPECT_FALSE(result.has_value()) << "kept " << keep;
  }
}

TEST(IndexSerialize, EmptyIndexRoundTrips) {
  const search::SearchIndex empty;
  const auto loaded =
      search::deserialize_index(search::serialize_index(empty));
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded.value().doc_count(), 0u);
  EXPECT_EQ(loaded.value().term_count(), 0u);
}

namespace {

/// FNV-1a of the serialized index built from `repo` serially and on pools
/// of 2 and 4 workers; every build must produce the same bytes.
std::uint64_t serialized_fnv(const core::Repository& repo) {
  const std::uint64_t serial = pdcu::hash::fnv1a_64(
      search::serialize_index(search::SearchIndex::build(repo)));
  for (unsigned threads : {2u, 4u}) {
    rt::ThreadPool pool(threads);
    EXPECT_EQ(pdcu::hash::fnv1a_64(search::serialize_index(
                  search::SearchIndex::build(repo, &pool))),
              serial)
        << threads << " workers";
  }
  return serial;
}

}  // namespace

// The on-disk bytes of a built index are pinned: a change to the index
// builder must reproduce them exactly. The builtin value moves only with
// a deliberate edit of data/activities/*.md.
TEST(IndexSerialize, BuiltinBytesArePinned) {
  EXPECT_EQ(serialized_fnv(core::Repository::builtin()),
            0x4df50b5f63d16806ull);
}

TEST(IndexSerialize, SyntheticCorpusBytesArePinned) {
  EXPECT_EQ(serialized_fnv(search::corpus::synthetic_repository({2000, 7})),
            0xd2dc6b98c49b4cc9ull);
}
