// pdcu_perfbench — the repository benchmark. One run builds a workload's
// serving stack in-process, drives it from this process, checks the
// replies, and prints one JSON line (see perfbench/README.md):
//
//   pdcu_perfbench --workload browse|search|front --seed N
//                  --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Diagnostics go to stderr; the result is the last line of stdout. The
// exit code is 0 only when every check passed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "drive.hpp"
#include "layers.hpp"
#include "pdcu/search/query.hpp"
#include "report.hpp"
#include "stack.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace pb = perfbench;
namespace search = pdcu::search;
namespace server = pdcu::server;
namespace loadgen = pdcu::loadgen;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups and publishes are repeated: at least kMinRepeats times, then
/// more until kMaxRepeats or kRepeatBudget. On the small site one takes
/// tens of milliseconds, so a single host preemption would move it by half;
/// at 10k documents one takes about a second.
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 25;
constexpr std::chrono::seconds kRepeatBudget{2};
constexpr std::size_t kChecks = 200;      ///< correctness samples per run
constexpr double kClosedWarmup = 0.5;
constexpr double kOpenWarmup = 1.0;
/// The wall.* figures are medians over windows of these lengths (seconds).
constexpr double kClosedWindow = 0.5;
constexpr double kOpenWindow = 1.0;
/// The servers' CPU time is sampled over open-loop windows of this length.
constexpr double kCpuWindow = 0.5;
/// publish_cpu_ms is this low percentile of the run's publishes.
/// Co-tenants on a shared host can only add to the CPU time of the same
/// work (they share its caches, cores and memory), so the quietest repeats
/// describe the program best; a regression raises every repeat.
constexpr double kQuietQuantile = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

unsigned client_connections() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The activity a run edits when it publishes, chosen by the seed.
std::string edit_slug(const pb::Stack& stack, const Args& args) {
  const auto& activities = stack.repo().activities();
  return activities[(args.seed * 7) % activities.size()].slug;
}

/// The `"slug":"..."` values of a search reply, in order.
std::vector<std::string> reply_slugs(const std::string& body) {
  std::vector<std::string> slugs;
  const std::string key = "{\"slug\":\"";
  for (auto at = body.find(key); at != std::string::npos;
       at = body.find(key, at)) {
    at += key.size();
    const auto end = body.find('"', at);
    slugs.push_back(body.substr(at, end - at));
  }
  return slugs;
}

/// Fetches `kChecks` requests spread over `requests` through the serving
/// port and compares each body byte for byte with what the serving
/// router's handle() returns in-process; search replies must also list
/// the slugs of an in-process SearchIndex::search, in order. Returns the
/// number of mismatches (each printed to stderr).
std::size_t check_replies(pb::Stack& stack,
                          const std::vector<loadgen::ScheduledRequest>& requests) {
  const auto router = stack.replicas().front()->http->router();
  std::size_t mismatches = 0;
  const std::size_t samples = std::min(kChecks, requests.size());
  for (std::size_t k = 0; k < samples; ++k) {
    const std::string& target = requests[k * requests.size() / samples].target;
    const auto reply = pb::http_get(stack.port(), target);
    server::Request request;
    request.method = "GET";
    request.target = target;
    request.version = "HTTP/1.1";
    const server::Response expected = router->handle(request);
    bool good = reply.has_value() && reply.value().status == expected.status &&
                reply.value().body == expected.body;
    const std::string q = pb::search_query_of(target);
    if (good && !q.empty()) {
      std::vector<std::string> want;
      for (const auto& hit : router->index().search(
               search::parse_query(q), &stack.repo().index(), 10)) {
        want.push_back(hit.slug);
      }
      good = reply_slugs(reply.value().body) == want;
    }
    if (!good) {
      ++mismatches;
      std::fprintf(stderr, "perfbench: MISMATCH on %s\n", target.c_str());
    }
  }
  return mismatches;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t mismatches = 0;
};

void count(Outcome& outcome, const pb::Phase& phase) {
  outcome.attempted += phase.attempted;
  outcome.failed += phase.attempted - phase.ok;
}

/// How many whole windows of about `window_s` a phase splits into.
int windows(const pb::Phase& phase, double window_s) {
  return std::max(1, static_cast<int>(phase.span_s / window_s + 0.5));
}

/// The windows of a phase to report over: the quieter half by steal.
std::vector<std::size_t> quiet_windows(const pb::StealMonitor& steal,
                                       const pb::Phase& phase, int windows) {
  std::vector<double> per_window;
  const double length = phase.span_s / windows;
  for (int w = 0; w < windows; ++w) {
    const auto from = phase.window_start +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(w * length));
    const auto to = from + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(length));
    per_window.push_back(steal.steal_between(from, to));
  }
  return pb::quieter_half(per_window);
}

/// Closed-loop capacity: requests completed per second, the median over
/// the quieter half of the phase's kClosedWindow windows.
double rps(const pb::StealMonitor& steal, const pb::Phase& phase) {
  const int n = windows(phase, kClosedWindow);
  return pb::windowed_rate(phase.at_s, phase.span_s, n,
                           quiet_windows(steal, phase, n));
}

/// The servers' CPU time per request in each kCpuWindow window of an open
/// loop: in microseconds, and in the window's reference round trips.
struct ServerCpu {
  std::vector<double> us_per_req;
  std::vector<double> rt_per_req;
};

ServerCpu server_cpu(const pb::Phase& open) {
  const int n = static_cast<int>(open.server_cpu_s.size());
  const auto due = pb::by_window(open.at_s, open.at_s, open.span_s, n);
  ServerCpu cpu;
  for (int w = 0; w < n; ++w) {
    if (due[w].empty()) continue;
    const double us =
        1e6 * open.server_cpu_s[w] / static_cast<double>(due[w].size());
    cpu.us_per_req.push_back(us);
    cpu.rt_per_req.push_back(us / open.reference_us[w]);
  }
  return cpu;
}

pb::Expected<std::unique_ptr<pb::Reference>> start_reference() {
  auto reference = pb::Reference::start();
  if (!reference) {
    std::fprintf(stderr, "perfbench: %s\n",
                 reference.error().message.c_str());
  }
  return reference;
}

/// Edits one activity kMinRepeats..kMaxRepeats times (see above) and
/// returns each publish; lost ones count as failed operations.
std::vector<pb::Published> publish_edits(pb::Stack& stack,
                                         const std::string& slug,
                                         const std::string& marker,
                                         Outcome& outcome) {
  std::vector<pb::Published> out;
  const auto start = Clock::now();
  for (int e = 0; e < kMaxRepeats; ++e) {
    if (e >= kMinRepeats && Clock::now() - start > kRepeatBudget) break;
    const auto published = stack.publish(slug, marker + std::to_string(e));
    ++outcome.attempted;
    if (published) {
      out.push_back(published.value());
    } else {
      ++outcome.failed;
      std::fprintf(stderr, "perfbench: %s\n",
                   published.error().message.c_str());
    }
  }
  return out;
}

/// The kQuietQuantile percentile of the publishes' CPU times.
double publish_cpu_ms(const std::vector<pb::Published>& publishes) {
  std::vector<double> values;
  for (const auto& published : publishes) values.push_back(published.cpu_ms);
  return values.empty() ? 0.0 : pb::percentile(values, kQuietQuantile);
}

std::string marker(const Args& args, const char* run) {
  return "pdcu-publish-" + std::to_string(args.seed) + "-" + run;
}

/// --trace 0: the gated end-to-end metrics, all CPU-time or memory figures
/// (see README.md for why): set-up work (repeated, median), the serving
/// cost over the fixed-rate open loop in reference round trips, the
/// write-path cost of publishes, peak memory; and the correctness checks.
int measured_run(const pb::Workload& workload, const Args& args,
                 const pb::Content& content) {
  std::vector<double> setup_s;
  std::unique_ptr<pb::Stack> stack;
  const auto setups_start = Clock::now();
  for (int i = 0; i < kMaxRepeats; ++i) {
    if (i >= kMinRepeats && Clock::now() - setups_start > kRepeatBudget) break;
    stack.reset();
    const double cpu_at_start = pb::process_cpu_s();
    auto built = pb::Stack::build(workload, content);
    if (!built) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   built.error().message.c_str());
      return 1;
    }
    stack = std::move(built).value();
    setup_s.push_back(pb::process_cpu_s() - cpu_at_start);
  }

  const auto schedule =
      pb::make_requests(workload, stack->repo(), workload.open_rate,
                        kOpenWarmup + args.seconds, args.seed * 2 + 2);

  auto reference = start_reference();
  if (!reference) return 1;
  Outcome outcome;
  const pb::Phase open = pb::run_open(stack->port(), schedule,
                                      client_connections(), kOpenWarmup,
                                      kCpuWindow, *reference.value());
  count(outcome, open);
  outcome.mismatches = check_replies(*stack, schedule);
  const auto publishes =
      publish_edits(*stack, edit_slug(*stack, args), marker(args, "q"),
                    outcome);
  stack.reset();

  pb::Report report;
  report.add("setup_s", pb::median(setup_s), "s");
  report.add("rss_mb", peak_rss_mb(), "MB");
  report.add("server_cpu_rt_per_req", pb::median(server_cpu(open).rt_per_req),
             "rt");
  report.add("publish_cpu_ms", publish_cpu_ms(publishes), "ms");
  const bool correct = outcome.mismatches == 0 && outcome.failed == 0;
  std::printf("%s\n",
              report.render(correct, outcome.attempted, outcome.failed).c_str());
  return correct ? 0 : 1;
}

/// --trace 1: one set-up; untraced and traced closed loops (their
/// throughput ratio is the tracing overhead) and an open loop, which also
/// give the wall-clock end-to-end figures; then the per-layer measurements.
int traced_run(const pb::Workload& workload, const Args& args,
               const pb::Content& content) {
  const auto setup_start = Clock::now();
  auto built = pb::Stack::build(workload, content);
  if (!built) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 built.error().message.c_str());
    return 1;
  }
  std::unique_ptr<pb::Stack> stack = std::move(built).value();
  const double setup_wall_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  const unsigned connections = client_connections();
  const auto closed_requests =
      pb::make_requests(workload, stack->repo(), 1000.0, 100.0, args.seed * 2 + 1);
  const auto open_schedule = pb::make_requests(
      workload, stack->repo(), workload.open_rate,
      kOpenWarmup + 0.4 * args.seconds, args.seed * 2 + 2);

  Outcome outcome;
  const pb::StealMonitor steal;
  const pb::Phase untraced =
      pb::run_closed(stack->port(), closed_requests, connections,
                     kClosedWarmup, 0.2 * args.seconds);
  const pb::Phase traced =
      pb::run_closed(stack->port(), closed_requests, connections, 0.2,
                     0.2 * args.seconds);
  auto reference = start_reference();
  if (!reference) return 1;
  const pb::Phase open =
      pb::run_open(stack->port(), open_schedule, connections, kOpenWarmup,
                   kCpuWindow, *reference.value());
  count(outcome, untraced);
  count(outcome, traced);
  count(outcome, open);
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for (auto& replica : stack->replicas()) {
    const auto router = replica->http->router();
    cache_hits += router->query_cache().hits();
    cache_misses += router->query_cache().misses();
  }
  outcome.mismatches = check_replies(*stack, open_schedule);

  pb::Report report;
  // Wall-clock end-to-end figures. Reported here, ungated: on a shared
  // host they move with co-tenant load far more than with the program
  // (see README.md), even as medians over the quieter half of windows.
  const int closed_windows = windows(untraced, kClosedWindow);
  const int open_windows = windows(open, kOpenWindow);
  const auto quiet_open = quiet_windows(steal, open, open_windows);
  report.add("wall.setup_s", setup_wall_s, "s");
  report.add("wall.throughput_rps", rps(steal, untraced), "req/s");
  report.add("wall.service_p99_us",
             pb::windowed_percentile(
                 untraced.latency_us, untraced.at_s, untraced.span_s,
                 closed_windows, 0.99,
                 quiet_windows(steal, untraced, closed_windows)),
             "us");
  for (const auto& [name, q] : {std::pair{"wall.latency_p50_us", 0.50},
                                {"wall.latency_p90_us", 0.90},
                                {"wall.latency_p99_us", 0.99}}) {
    report.add(name,
               pb::windowed_percentile(open.latency_us, open.at_s, open.span_s,
                                       open_windows, q, quiet_open),
               "us");
  }
  report.add("bench.generator_late_p99_us", pb::percentile(open.late_us, 0.99),
             "us");
  report.add("bench.warmup_s", open.warmup_s, "s");
  report.add("bench.reference_rt_us", pb::median(open.reference_us), "us");
  report.add("server.cpu_us_per_req", pb::median(server_cpu(open).us_per_req),
             "us");
  report.add("bench.trace_overhead_pct",
             100.0 * (1.0 - rps(steal, traced) /
                             std::max(rps(steal, untraced), 1e-9)), "%");
  pb::report_net_counters(*stack, report);
  report.add("server.query_cache_hit_ratio",
             cache_hits + cache_misses == 0
                 ? 0.0
                 : static_cast<double>(cache_hits) /
                       static_cast<double>(cache_hits + cache_misses),
             "ratio");
  pb::report_request_layers(*stack, closed_requests, traced, report);
  if (!pb::report_cluster_layer(*stack, closed_requests, traced, connections,
                                0.1 * args.seconds, report)) {
    ++outcome.failed;
  }
  if (!pb::report_build_layers(*stack, edit_slug(*stack, args),
                               marker(args, "b"), kMinRepeats, report)) {
    ++outcome.failed;
  }
  stack.reset();

  const bool correct = outcome.mismatches == 0 && outcome.failed == 0;
  std::printf("%s\n",
              report.render(correct, outcome.attempted, outcome.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pdcu_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const pb::Workload* workload = pb::find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const auto dir =
      args.workdir / (workload->name + "-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 1;
  }
  // The content is an input, written once before anything is timed.
  const auto content = pb::write_content(*workload, dir / "content");
  int rc = 1;
  if (!content) {
    std::fprintf(stderr, "perfbench: %s\n", content.error().message.c_str());
  } else {
    rc = args.trace ? traced_run(*workload, args, content.value())
                    : measured_run(*workload, args, content.value());
  }
  std::filesystem::remove_all(dir, ec);
  return rc;
}
