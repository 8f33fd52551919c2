// The benchmark's own tests: request lists are a pure function of the
// seed, percentiles are exact order statistics, and every workload passes
// a short end-to-end run of the benchmark binary.
//
//   cmake -S perfbench -B build-perfbench -DPERFBENCH_TESTS=ON
//   cmake --build build-perfbench && ctest --test-dir build-perfbench
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace pb = perfbench;

namespace {

std::vector<std::string> targets(
    const std::vector<pb::loadgen::ScheduledRequest>& requests) {
  std::vector<std::string> out;
  for (const auto& request : requests) out.push_back(request.target);
  return out;
}

pb::core::Repository small_corpus() {
  std::vector<pb::core::Activity> docs;
  for (int i = 0; i < 50; ++i) {
    pb::core::Activity activity;
    activity.title = "Doc " + std::to_string(i);
    activity.slug = "doc-" + std::to_string(i);
    activity.cs2013 = {i % 2 == 0 ? "PD_1" : "PD_2"};
    docs.push_back(activity);
  }
  return pb::core::Repository(docs);
}

}  // namespace

TEST(Requests, SameSeedSameListOtherSeedOtherList) {
  const auto repo = small_corpus();
  for (const auto& workload : pb::workloads()) {
    const auto a = pb::make_requests(workload, repo, 500.0, 4.0, 7);
    const auto b = pb::make_requests(workload, repo, 500.0, 4.0, 7);
    const auto c = pb::make_requests(workload, repo, 500.0, 4.0, 8);
    ASSERT_EQ(a.size(), 2000u) << workload.name;
    EXPECT_EQ(targets(a), targets(b)) << workload.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].offset_ns, b[i].offset_ns);
    }
    EXPECT_NE(targets(a), targets(c)) << workload.name;
  }
}

TEST(Requests, GeneratedQueriesMostlyMissAFiveHundredEntryCache) {
  const auto repo = small_corpus();
  const auto* search = pb::find_workload("search");
  ASSERT_NE(search, nullptr);
  const auto requests = pb::make_requests(*search, repo, 1000.0, 10.0, 3);
  std::set<std::string> distinct;
  std::size_t searches = 0;
  std::size_t filtered = 0;
  for (const auto& request : requests) {
    const std::string q = pb::search_query_of(request.target);
    if (q.empty()) continue;
    ++searches;
    distinct.insert(q);
    if (q.find("cs2013:") != std::string::npos) ++filtered;
    const auto terms = std::count(q.begin(), q.end(), ' ') + 1 -
                       (q.find("cs2013:") != std::string::npos ? 1 : 0);
    EXPECT_GE(terms, 2) << q;
    EXPECT_LE(terms, 3) << q;
  }
  EXPECT_GT(searches, 7000u);  // search=8 of 10
  EXPECT_GT(distinct.size(), 10 * 512u);
  EXPECT_GT(filtered, searches / 8);
  EXPECT_LT(filtered, searches / 2);
}

TEST(Percentile, MatchesSortedOracleAndNeverExceedsMax) {
  pdcu::Rng rng(11);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u}) {
    std::vector<float> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<float>(rng.below(1'000'000)) / 7.0f);
    }
    std::vector<double> sorted(samples.begin(), samples.end());
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      // Oracle: the smallest value with at least q*n samples at or below.
      double oracle = sorted.back();
      for (const double value : sorted) {
        const auto at_or_below = static_cast<double>(
            std::upper_bound(sorted.begin(), sorted.end(), value) -
            sorted.begin());
        if (at_or_below >= q * static_cast<double>(n) - 1e-9) {
          oracle = value;
          break;
        }
      }
      const double got = pb::percentile(samples, q);
      EXPECT_EQ(got, oracle) << "n=" << n << " q=" << q;
      EXPECT_LE(got, sorted.back());
    }
  }
  EXPECT_EQ(pb::percentile(std::vector<double>{}, 0.5), 0.0);
}

TEST(Windows, QuieterHalfDropsTheWindowsACoTenantTook) {
  const std::vector<double> steal = {3, 40, 0, 0, 55, 2, 1};
  EXPECT_EQ(pb::quieter_half(steal), (std::vector<std::size_t>{2, 3, 6, 5}));

  // Two windows of one second: 10 fast samples, then 10 slow ones.
  std::vector<float> latency;
  std::vector<float> at;
  for (int i = 0; i < 20; ++i) {
    latency.push_back(i < 10 ? 10.0f : 1000.0f);
    at.push_back(static_cast<float>(i) / 10.0f);
  }
  EXPECT_EQ(pb::windowed_percentile(latency, at, 2.0, 2, 0.99, {0}), 10.0);
  EXPECT_EQ(pb::windowed_percentile(latency, at, 2.0, 2, 0.99, {1}), 1000.0);
  EXPECT_EQ(pb::windowed_rate(at, 2.0, 2, {0, 1}), 10.0);
}

// Runs the built binary for one second per workload: it must exit 0 and
// end its output with a correct result.
TEST(Binary, EveryWorkloadPassesAShortRun) {
  for (const auto& workload : pb::workloads()) {
    for (const char* trace : {"0", "1"}) {
      const std::string command = std::string(PERFBENCH_BINARY) +
                                  " --workload " + workload.name +
                                  " --seed 5 --seconds 1 --trace " + trace +
                                  " --workdir " PERFBENCH_WORKDIR
                                  " 2>/dev/null";
      FILE* pipe = ::popen(command.c_str(), "r");
      ASSERT_NE(pipe, nullptr);
      std::string output;
      char buffer[1 << 16];  // a traced result line is a few KiB
      while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
        output = buffer;  // keep the last line
      }
      const int status = ::pclose(pipe);
      EXPECT_EQ(status, 0) << workload.name << " trace " << trace;
      EXPECT_EQ(output.rfind("{\"correct\": true", 0), 0u)
          << workload.name << " trace " << trace << ": " << output;
    }
  }
}
