#include "pdcu/loadgen/loadgen.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <thread>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/client.hpp"
#include "pdcu/loadgen/epoll_client.hpp"
#include "pdcu/runtime/thread_pool.hpp"

namespace pdcu::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

/// Everything one worker accumulates; folded into the Result at the end.
struct WorkerTally {
  obs::Histogram latency_us;
  std::uint64_t max_latency_us = 0;
  std::uint64_t completed = 0;
  std::uint64_t status_2xx = 0, status_3xx = 0, status_4xx = 0,
                status_5xx = 0;
  std::uint64_t connect_errors = 0, send_errors = 0, read_errors = 0,
                timeouts = 0;
  Clock::time_point last_response;
};

/// One worker: walks schedule indices w, w+stride, ... in intended-time
/// order, sleeping until each request's arrival time and never skipping a
/// request it is late for — the lateness is the coordinated-omission wait
/// and belongs in the recorded latency.
void run_worker(const Options& options,
                const std::vector<ScheduledRequest>& schedule,
                std::size_t worker, std::size_t stride,
                Clock::time_point start, WorkerTally& tally) {
  Connection connection(options.host, options.port, options.timeout);
  tally.last_response = start;
  for (std::size_t i = worker; i < schedule.size(); i += stride) {
    const ScheduledRequest& request = schedule[i];
    const Clock::time_point intended =
        start + std::chrono::nanoseconds(request.offset_ns);
    std::this_thread::sleep_until(intended);  // returns at once when late
    if (request.fresh_connection) connection.close();

    const Exchange exchange = connection.get(request.target);
    const Clock::time_point now = Clock::now();
    switch (exchange.outcome) {
      case Outcome::kOk: {
        const auto latency = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - intended)
                .count());
        tally.latency_us.record(latency);
        tally.max_latency_us = std::max(tally.max_latency_us, latency);
        ++tally.completed;
        tally.last_response = now;
        if (exchange.status >= 200 && exchange.status < 300) {
          ++tally.status_2xx;
        } else if (exchange.status < 400) {
          ++tally.status_3xx;
        } else if (exchange.status < 500) {
          ++tally.status_4xx;
        } else {
          ++tally.status_5xx;
        }
        break;
      }
      case Outcome::kConnectError: ++tally.connect_errors; break;
      case Outcome::kSendError: ++tally.send_errors; break;
      case Outcome::kReadError: ++tally.read_errors; break;
      case Outcome::kTimeout: ++tally.timeouts; break;
    }
  }
}

}  // namespace

/// 64 blocked worker threads is where thread-per-connection stops being
/// a reasonable model; kAuto switches to the epoll client above it.
constexpr unsigned kAutoEpollThreshold = 64;

Result run(const Options& options,
           const std::vector<ScheduledRequest>& schedule) {
  if (options.client == ClientMode::kEpoll ||
      (options.client == ClientMode::kAuto &&
       options.connections > kAutoEpollThreshold)) {
    return run_epoll(options, schedule);
  }

  Result result;
  result.target_rate = options.schedule.rate;
  result.scheduled = schedule.size();
  if (schedule.empty()) return result;

  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(options.connections,
                                                     schedule.size()));
  // A worker occupies its pool thread for the entire run (blocking socket
  // I/O), so an undersized pool would serialize workers and destroy the
  // arrival schedule. Fall back to a private pool in that case.
  rt::ThreadPool* pool = options.pool;
  std::unique_ptr<rt::ThreadPool> private_pool;
  if (pool == nullptr || pool->size() < workers) {
    private_pool =
        std::make_unique<rt::ThreadPool>(static_cast<unsigned>(workers));
    pool = private_pool.get();
  }

  std::vector<WorkerTally> tallies(workers);
  // Small start offset so every worker is parked on its first
  // sleep_until before the first arrival fires.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::future<void>> done;
  done.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    done.push_back(pool->submit([&, w] {
      run_worker(options, schedule, w, workers, start, tallies[w]);
    }));
  }
  for (auto& future : done) future.get();

  Clock::time_point last_response = start;
  for (const WorkerTally& tally : tallies) {
    result.latency_us.merge(tally.latency_us.snapshot());
    result.max_latency_us =
        std::max(result.max_latency_us, tally.max_latency_us);
    result.completed += tally.completed;
    result.status_2xx += tally.status_2xx;
    result.status_3xx += tally.status_3xx;
    result.status_4xx += tally.status_4xx;
    result.status_5xx += tally.status_5xx;
    result.connect_errors += tally.connect_errors;
    result.send_errors += tally.send_errors;
    result.read_errors += tally.read_errors;
    result.timeouts += tally.timeouts;
    last_response = std::max(last_response, tally.last_response);
  }
  result.wall_s =
      std::chrono::duration<double>(last_response - start).count();
  if (result.wall_s > 0.0) {
    result.achieved_rate =
        static_cast<double>(result.completed) / result.wall_s;
  }
  // Each blocking worker owns exactly one connection for the whole run.
  result.peak_connections = workers;
  return result;
}

Expected<Result> run_against(const Options& options) {
  auto slugs =
      fetch_catalog_slugs(options.host, options.port, options.timeout);
  if (!slugs) return slugs.error();
  const auto schedule = build_schedule(options.schedule, slugs.value());
  if (schedule.empty()) {
    return Error::make("loadgen.schedule",
                       "empty schedule (rate and duration must be > 0)");
  }
  return run(options, schedule);
}

std::string render_result_json(const Result& result, std::string_view bench,
                               const Options& options) {
  BenchWriter writer(bench, "loadgen");
  writer.number("target_rate", result.target_rate);
  writer.number("achieved_rate", result.achieved_rate);
  writer.number("rps", result.achieved_rate);
  writer.number("duration_s", options.schedule.duration_s);
  writer.number("wall_s", result.wall_s);
  writer.open("requests");
  writer.integer("scheduled", result.scheduled);
  writer.integer("completed", result.completed);
  writer.integer("peak_connections", result.peak_connections);
  writer.close();
  writer.open("latency_us");
  writer.integer("p50", result.latency_quantile(0.50));
  writer.integer("p90", result.latency_quantile(0.90));
  writer.integer("p95", result.latency_quantile(0.95));
  writer.integer("p99", result.latency_quantile(0.99));
  writer.integer("p999", result.latency_quantile(0.999));
  writer.number("mean", result.latency_us.mean());
  writer.integer("max", result.max_latency_us);
  writer.close();
  writer.open("status");
  writer.integer("2xx", result.status_2xx);
  writer.integer("3xx", result.status_3xx);
  writer.integer("4xx", result.status_4xx);
  writer.integer("5xx", result.status_5xx);
  writer.close();
  writer.open("errors");
  writer.integer("connect", result.connect_errors);
  writer.integer("send", result.send_errors);
  writer.integer("read", result.read_errors);
  writer.integer("timeout", result.timeouts);
  // The roll-up a reader actually checks: without it, a run where the
  // server died mid-schedule still *looked* clean to anyone comparing
  // requests.completed against latency percentiles — the refused and
  // mid-body-disconnected requests vanished from the summary.
  writer.integer("total", result.errors_total());
  writer.close();
  writer.open("config");
  writer.text("host", options.host);
  writer.integer("connections", options.connections);
  writer.integer("seed", options.schedule.seed);
  writer.number("zipf_exponent", options.schedule.zipf_exponent);
  writer.number("keep_alive_ratio", options.schedule.keep_alive_ratio);
  writer.text("mix", render_mix(options.schedule.mix.empty()
                                    ? default_mix()
                                    : options.schedule.mix));
  writer.close();
  return writer.finish();
}

}  // namespace pdcu::loadgen
