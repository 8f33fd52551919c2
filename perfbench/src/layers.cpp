#include "layers.hpp"

#include <algorithm>
#include <chrono>

#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/server/http.hpp"
#include "pdcu/site/site.hpp"
#include "stats.hpp"

namespace perfbench {

namespace search = pdcu::search;
namespace site = pdcu::site;
namespace rt = pdcu::rt;

namespace {

using Clock = std::chrono::steady_clock;

/// Replays stop at this many samples or this much wall time, whichever
/// comes first; a 10k-document search costs a few hundred microseconds.
constexpr std::size_t kMaxReplays = 4000;
constexpr std::size_t kMaxQueries = 600;
constexpr std::chrono::milliseconds kReplayBudget{1500};

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Adds `<name>.p50` and `<name>.p99` for one timing.
void add_timing(Report& report, const std::string& name,
                std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  report.add(name + ".p50", nearest_rank(samples, 0.50), "us");
  report.add(name + ".p99", nearest_rank(samples, 0.99), "us");
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

server::Request get_request(const std::string& target) {
  server::Request request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

/// The same request head loadgen::Connection sends.
std::string wire_request(const std::string& target) {
  return "GET " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: pdcu-loadgen\r\n\r\n";
}

/// A filter for queries that carry none: the cs2013 tag of a document
/// picked by the query's position, so every workload times filtering.
search::Filter some_filter(const core::Repository& repo, std::size_t i) {
  const auto& docs = repo.activities();
  for (std::size_t step = 0; step < docs.size(); ++step) {
    const auto& doc = docs[(i * 7919 + step) % docs.size()];
    if (!doc.cs2013.empty()) return {"cs2013", doc.cs2013.front()};
  }
  return {"cs2013", "PD_1"};
}

}  // namespace

void report_net_counters(Stack& stack, Report& report) {
  std::uint64_t writes = 0;
  std::uint64_t partial = 0;
  std::uint64_t requests = 0;
  std::uint64_t accepted = 0;
  std::vector<std::uint64_t> by_shard(kNetShards, 0);
  for (auto& replica : stack.replicas()) {
    const auto& net = replica->http->net_metrics();
    writes += net.writev_calls_total();
    partial += net.partial_writes_total();
    requests += net.requests_total();
    accepted += net.accepted_total();
    for (unsigned s = 0; s < kNetShards; ++s) {
      by_shard[s] += net.accepted_by_shard(s);
    }
  }
  report.add("net.writev_per_request", share(writes, requests), "ratio");
  report.add("net.partial_writes", static_cast<double>(partial), "count");
  for (unsigned s = 0; s < kNetShards; ++s) {
    report.add("net.accepts_shard" + std::to_string(s),
               static_cast<double>(by_shard[s]), "count");
  }
  report.add("net.shard_accept_max_share",
             share(*std::max_element(by_shard.begin(), by_shard.end()),
                   accepted),
             "ratio");
}

void report_request_layers(
    Stack& stack, const std::vector<loadgen::ScheduledRequest>& requests,
    const Phase& traced, Report& report) {
  const auto router = stack.replicas().front()->http->router();
  std::vector<double> parse_us;
  std::vector<double> cache_us;
  std::vector<double> route_us;
  std::vector<double> net_self_us;
  std::size_t fast = 0;
  const auto budget_end = Clock::now() + kReplayBudget;
  const std::size_t replays = std::min(traced.index.size(), kMaxReplays);
  for (std::size_t j = 0; j < replays && Clock::now() < budget_end; ++j) {
    const std::string wire = wire_request(requests[traced.index[j]].target);
    const auto t0 = Clock::now();
    const server::ParseResult parsed = server::parse_request(wire);
    const auto t1 = Clock::now();
    const auto hit = router->try_fast(parsed.request);
    const auto t2 = Clock::now();
    double server_us = micros(t0, t2);
    parse_us.push_back(micros(t0, t1));
    if (hit.has_value()) {
      ++fast;
      cache_us.push_back(micros(t1, t2));
    } else {
      const server::Response response = router->handle(parsed.request);
      const auto t3 = Clock::now();
      route_us.push_back(micros(t2, t3));
      server_us = micros(t0, t3);
    }
    net_self_us.push_back(traced.latency_us[j] - server_us);
  }
  const std::size_t replayed = parse_us.size();
  add_timing(report, "net.self_us", net_self_us);
  add_timing(report, "server.parse_us", parse_us);
  add_timing(report, "server.cache_us", cache_us);
  add_timing(report, "server.route_us", route_us);
  report.add("server.fast_path_ratio", share(fast, replayed), "ratio");

  // Search layer: the workload's own queries, one call per timing.
  const search::SearchIndex& index = router->index();
  const auto* taxonomy = &stack.repo().index();
  std::vector<double> parse_query_us;
  std::vector<double> wand_us;
  std::vector<double> snippets_us;
  std::vector<double> filter_us;
  const auto search_end = Clock::now() + kReplayBudget;
  for (std::size_t i = 0; i < requests.size() && wand_us.size() < kMaxQueries &&
                          Clock::now() < search_end;
       ++i) {
    const std::string q = search_query_of(requests[i].target);
    if (q.empty()) continue;
    const auto t0 = Clock::now();
    const search::Query query = search::parse_query(q);
    const auto t1 = Clock::now();
    parse_query_us.push_back(micros(t0, t1));
    search::Query ranked = query;
    ranked.filters.clear();
    if (ranked.terms.empty()) continue;
    search::Query filtered = ranked;
    filtered.filters = query.filters.empty()
                           ? std::vector<search::Filter>{some_filter(
                                 stack.repo(), i)}
                           : query.filters;

    search::SearchOptions options;
    options.snippets = false;
    const auto t2 = Clock::now();
    index.search(ranked, taxonomy, options);
    const auto t3 = Clock::now();
    options.snippets = true;
    index.search(ranked, taxonomy, options);
    const auto t4 = Clock::now();
    // filter_cache stays null: every filtered call resolves its filter
    // cold, as the first query of a fresh snapshot does.
    options.snippets = false;
    index.search(filtered, taxonomy, options);
    const auto t5 = Clock::now();
    wand_us.push_back(micros(t2, t3));
    snippets_us.push_back(micros(t3, t4) - micros(t2, t3));
    filter_us.push_back(micros(t4, t5) - micros(t2, t3));
  }
  add_timing(report, "search.query_parse_us", parse_query_us);
  add_timing(report, "search.wand_us", wand_us);
  add_timing(report, "search.snippets_us", snippets_us);
  add_timing(report, "search.filter_us", filter_us);
}

bool report_cluster_layer(
    Stack& stack, const std::vector<loadgen::ScheduledRequest>& requests,
    const Phase& traced, unsigned connections, double seconds,
    Report& report) {
  cluster::FrontTier* front = stack.front();
  std::unique_ptr<cluster::FrontTier> own_front;
  if (front == nullptr) {
    cluster::FrontOptions options;
    options.gossip_interval = std::chrono::milliseconds(0);
    own_front = std::make_unique<cluster::FrontTier>(
        options, std::vector<cluster::ReplicaTarget>{
                     {"replica-0", "127.0.0.1",
                      stack.replicas().front()->http->port()}});
    if (!own_front->start()) return false;
    own_front->probe_once();
    front = own_front.get();
  }

  std::vector<double> proxy_us;
  const auto budget_end = Clock::now() + kReplayBudget;
  for (std::size_t i = 0;
       i < requests.size() && i < kMaxReplays && Clock::now() < budget_end;
       ++i) {
    const server::Request request = get_request(requests[i].target);
    const auto t0 = Clock::now();
    front->proxy(request);
    proxy_us.push_back(micros(t0, Clock::now()));
  }
  add_timing(report, "cluster.proxy_us", proxy_us);

  // The traced closed loop went through the stack's serving port; the
  // other side of the comparison is a short closed loop on the other path.
  const std::uint16_t other_port = own_front
                                       ? own_front->port()
                                       : stack.replicas().front()->http->port();
  Phase other = run_closed(other_port, requests, connections, 0.2, seconds);
  const auto& through = own_front ? other.latency_us : traced.latency_us;
  const auto& direct = own_front ? traced.latency_us : other.latency_us;
  report.add("cluster.self_us",
             percentile(through, 0.5) - percentile(direct, 0.5), "us");
  report.add("cluster.retries", static_cast<double>(front->metrics().retries()),
             "count");
  report.add("cluster.failovers",
             static_cast<double>(front->metrics().failovers()), "count");
  report.add("cluster.upstream_errors",
             static_cast<double>(front->metrics().upstream_errors()), "count");
  if (own_front) own_front->stop();
  return other.ok == other.attempted;
}

bool report_build_layers(Stack& stack, const std::string& slug,
                         const std::string& marker_prefix, int edits,
                         Report& report) {
  // A BuildCache primed on the current content, so the timed rebuild is
  // incremental exactly as a reload's is.
  site::SiteOptions site_options;
  site_options.pool = &rt::default_pool();
  site::BuildCache cache;
  {
    auto loaded = core::Repository::load_lenient(stack.content_dir());
    if (!loaded) return false;
    site::rebuild(loaded.value().repository, cache, site_options);
  }
  std::vector<double> visible_ms, reload_ms, load_ms, rebuild_ms, index_ms,
      router_ms;
  double pages_rendered = 0.0;
  bool all_visible = true;
  for (int e = 0; e < edits; ++e) {
    const auto published =
        stack.publish(slug, marker_prefix + std::to_string(e));
    if (!published) {
      all_visible = false;
      continue;
    }
    visible_ms.push_back(published.value().visible_ms);
    reload_ms.push_back(published.value().reload_ms);

    const auto t0 = Clock::now();
    auto loaded = core::Repository::load_lenient(stack.content_dir());
    const auto t1 = Clock::now();
    if (!loaded) return false;
    const core::Repository& repo = loaded.value().repository;
    site::BuildStats stats;
    const site::Site built = site::rebuild(repo, cache, site_options, &stats);
    const auto t2 = Clock::now();
    auto index = search::SearchIndex::build(repo, &rt::default_pool());
    const auto t3 = Clock::now();
    const server::Router router(built, repo, std::move(index));
    const auto t4 = Clock::now();
    load_ms.push_back(millis(t0, t1));
    rebuild_ms.push_back(millis(t1, t2));
    index_ms.push_back(millis(t2, t3));
    router_ms.push_back(millis(t3, t4));
    pages_rendered = static_cast<double>(stats.pages_rendered);
  }
  report.add("wall.publish_p50_ms", median(visible_ms), "ms");
  report.add("core.load_ms", median(load_ms), "ms");
  report.add("site.rebuild_ms", median(rebuild_ms), "ms");
  report.add("site.pages_rendered", pages_rendered, "count");
  report.add("search.index_ms", median(index_ms), "ms");
  report.add("server.router_build_ms", median(router_ms), "ms");
  report.add("server.reload_ms", median(reload_ms), "ms");
  return all_visible;
}

}  // namespace perfbench
