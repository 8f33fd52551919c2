// pdcu::loadgen — an open-loop, coordinated-omission-safe HTTP load
// generator for the pdcu server.
//
// Closed-loop load tools (send, wait, send again) silently stop measuring
// whenever the server stalls: the requests that *would* have arrived
// during the stall are never sent, so the stall barely shows in the
// percentiles. This harness is open-loop instead: the whole request
// schedule — arrival times included — is fixed up front at the target
// rate, and every request's latency is measured from its *intended* send
// time. If the server stalls for 200 ms, every request scheduled inside
// that window is charged the wait, and the p99 says so.
//
// One thread drives every connection through non-blocking epoll state
// machines, so --connections can climb to tens of thousands without tens
// of thousands of blocked threads. Connection c walks schedule indices c,
// c+N, ... in intended-time order and never skips a request it is late
// for; the lateness is the coordinated-omission wait and belongs in the
// recorded latency. Latencies are kept as exact samples (their number is
// bounded by rate x duration), so every reported quantile is an observed
// value.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/schedule.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  unsigned connections = 4;  ///< connections walking the schedule
  std::chrono::milliseconds timeout{2000};  ///< per-exchange I/O timeout
  ScheduleOptions schedule;  ///< rate, duration, seed, zipf, mix
};

struct Result {
  double target_rate = 0.0;    ///< what the schedule asked for
  double achieved_rate = 0.0;  ///< completed responses / wall seconds
  double wall_s = 0.0;         ///< first intended send to last response
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;  ///< full responses read, any status
  std::uint64_t status_2xx = 0;
  std::uint64_t status_3xx = 0;
  std::uint64_t status_4xx = 0;
  std::uint64_t status_5xx = 0;
  std::uint64_t connect_errors = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t timeouts = 0;
  /// Every completed request's latency, in microseconds, measured from
  /// its intended send time (coordinated-omission-safe).
  Samples latency_us;
  /// Most connections simultaneously open during the run.
  std::uint64_t peak_connections = 0;

  std::uint64_t errors_total() const {
    return connect_errors + send_errors + read_errors + timeouts;
  }

  /// The no-silent-gaps invariant: every scheduled request lands in
  /// exactly one bucket — completed, or one of the error counters. False
  /// means the generator dropped requests from its own accounting (the
  /// failure mode that makes a dead server look like a fast one).
  bool fully_accounted() const {
    return completed + errors_total() == scheduled;
  }
};

/// Drives a prebuilt schedule against host:port. Blocks until every
/// scheduled request has been attempted.
Result run(const Options& options,
           const std::vector<ScheduledRequest>& schedule);

/// Fetches the served catalog's slugs, builds the schedule from
/// options.schedule, and runs it. Fails if the server is unreachable or
/// serves an empty catalog.
Expected<Result> run_against(const Options& options);

/// Renders a Result as one BENCH-schema JSON object (see bench_json.hpp).
/// `bench` names the trajectory file family, e.g. "serve".
std::string render_result_json(const Result& result, std::string_view bench,
                               const Options& options);

}  // namespace pdcu::loadgen
