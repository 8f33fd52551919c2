// The benchmark's named workloads and the request lists they send. A
// workload fixes the content (the builtin curation or a synthetic corpus),
// the traffic mix, the open-loop rate, and whether a front tier sits in
// the path. Every request list is a pure function of (workload, content,
// seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/loadgen/schedule.hpp"

namespace perfbench {

namespace core = pdcu::core;
namespace loadgen = pdcu::loadgen;

struct Workload {
  std::string name;
  /// Synthetic corpus size; 0 serves the builtin 38-activity curation.
  std::size_t corpus_docs = 0;
  std::string mix;         ///< loadgen::parse_mix spelling
  double open_rate = 0.0;  ///< open-loop arrivals per second
  /// Search requests carry generated multi-term (sometimes filtered)
  /// queries instead of loadgen's single-term lexicon.
  bool generated_queries = false;
  bool front = false;   ///< traffic goes through a two-replica front tier
};

/// browse, search, front.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Builds `rate * duration_s` requests with loadgen::build_schedule (the
/// workload's mix, Zipf 1.1 slug popularity in catalog order, keep-alive
/// connections). For workloads with generated queries every search target
/// is rewritten: 2 or 3 terms drawn Zipf-style from the synthetic-corpus
/// vocabulary, a quarter of them restricted by the cs2013 tag of a random
/// document. `seed` selects the whole list.
std::vector<loadgen::ScheduledRequest> make_requests(
    const Workload& workload, const core::Repository& repo, double rate,
    double duration_s, std::uint64_t seed);

/// The `q` value of a /api/search target, URL-decoded; empty otherwise.
std::string search_query_of(const std::string& target);

}  // namespace perfbench
