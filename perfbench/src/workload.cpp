#include "workload.hpp"

#include <algorithm>

#include "pdcu/search/corpus.hpp"
#include "pdcu/server/http.hpp"

namespace perfbench {

namespace search = pdcu::search;
namespace server = pdcu::server;

namespace {

// Open-loop rates sit well below each workload's closed-loop capacity on a
// 4-CPU host, so the open-loop percentiles show service time plus the
// queueing that bursts cause, not a saturated queue. They are stated in
// BENCHMARK.json's workload descriptions; keep the two in step.
const std::vector<Workload> kWorkloads = {
    {.name = "browse",
     .mix = "page=6:catalog=1:activity=2:search=1",
     .open_rate = 4000.0},
    {.name = "search",
     .corpus_docs = 10'000,
     .mix = "search=8:page=1:activity=1",
     .open_rate = 1000.0,
     .generated_queries = true},
    {.name = "front",
     .mix = "page=6:catalog=1:activity=2:search=1",
     .open_rate = 2000.0,
     .front = true},
};

/// Query terms follow the corpus bodies' own Zipf skew over the whole
/// generator vocabulary (4096 words, exponent 1.07; see search/corpus.cpp).
constexpr std::size_t kVocabularyRanks = 4096;
constexpr double kTermExponent = 1.07;
constexpr double kFilteredShare = 0.25;

/// Multi-term search queries over a corpus, as the `q` parameter value
/// (URL-encoded, '+' for spaces). Deterministic per (repo, seed).
class QueryGenerator {
 public:
  QueryGenerator(const core::Repository& repo, std::uint64_t seed);
  std::string next();

 private:
  const core::Repository& repo_;
  pdcu::Rng rng_;
  loadgen::ZipfSampler terms_;
};

QueryGenerator::QueryGenerator(const core::Repository& repo,
                               std::uint64_t seed)
    : repo_(repo),
      rng_(seed ^ 0x9e3779b97f4a7c15ULL),
      terms_(std::min(kVocabularyRanks,
                      search::corpus::vocabulary().size()),
             kTermExponent) {}

std::string QueryGenerator::next() {
  const std::size_t count = rng_.chance(1.0 / 3.0) ? 3 : 2;
  std::vector<std::size_t> ranks;
  while (ranks.size() < count) {
    const std::size_t rank = terms_.sample(rng_);
    if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
      ranks.push_back(rank);
    }
  }
  std::string q;
  for (const std::size_t rank : ranks) {
    if (!q.empty()) q += '+';
    q += search::corpus::term_at_rank(rank);
  }
  if (rng_.chance(kFilteredShare) && !repo_.activities().empty()) {
    const auto& doc = repo_.activities()[rng_.below(repo_.activities().size())];
    // Filter values are single tokens; a spaced one would split into
    // free-text words, so such a draw stays unfiltered.
    if (!doc.cs2013.empty() &&
        doc.cs2013.front().find(' ') == std::string::npos) {
      q += "+cs2013:" + doc.cs2013.front();
    }
  }
  return q;
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<loadgen::ScheduledRequest> make_requests(
    const Workload& workload, const core::Repository& repo, double rate,
    double duration_s, std::uint64_t seed) {
  loadgen::ScheduleOptions options;
  options.rate = rate;
  options.duration_s = duration_s;
  options.seed = seed;
  options.zipf_exponent = 1.1;
  options.keep_alive_ratio = 1.0;
  options.mix = loadgen::parse_mix(workload.mix).value();
  std::vector<std::string> slugs;
  slugs.reserve(repo.activities().size());
  for (const auto& activity : repo.activities()) slugs.push_back(activity.slug);

  auto requests = loadgen::build_schedule(options, slugs);
  if (workload.generated_queries) {
    QueryGenerator queries(repo, seed);
    for (auto& request : requests) {
      if (request.route == loadgen::Route::kSearch) {
        request.target = "/api/search?q=" + queries.next() + "&limit=10";
      }
    }
  }
  return requests;
}

std::string search_query_of(const std::string& target) {
  const auto mark = target.find('?');
  if (target.compare(0, mark, "/api/search") != 0 ||
      mark == std::string::npos) {
    return {};
  }
  for (const auto& [key, value] :
       server::parse_query_params(std::string_view(target).substr(mark + 1))) {
    if (key == "q") return value;
  }
  return {};
}

}  // namespace perfbench
