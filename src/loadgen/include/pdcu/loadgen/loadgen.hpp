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
// N workers each own one connection and walk a round-robin slice of the
// schedule, recording latencies into a worker-local obs::Histogram; the
// snapshots merge lock-free at the end. Workers run on the provided
// thread pool when it is big enough, otherwise on a private pool sized to
// the connection count — a worker blocks in socket I/O for the whole run,
// so packing two workers onto one pool thread would corrupt the schedule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/obs/histogram.hpp"
#include "pdcu/loadgen/schedule.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::rt {
class ThreadPool;
}  // namespace pdcu::rt

namespace pdcu::loadgen {

/// How the generator drives its connections.
enum class ClientMode {
  /// kBlocking under 65 connections, kEpoll above — the blocking client's
  /// thread-per-connection model stops scaling right around there.
  kAuto,
  /// One worker thread per connection, blocking socket I/O. Simple, and
  /// exact for small connection counts.
  kBlocking,
  /// One thread multiplexing every connection through epoll state
  /// machines. Scales --connections to tens of thousands (the schedule
  /// semantics — per-connection slices, intended-time latency — are
  /// identical to the blocking mode).
  kEpoll,
};

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  unsigned connections = 4;  ///< worker connections walking the schedule
  ClientMode client = ClientMode::kAuto;
  std::chrono::milliseconds timeout{2000};  ///< per-exchange socket timeout
  ScheduleOptions schedule;  ///< rate, duration, seed, zipf, mix
  /// Workers run here when it has >= `connections` idle threads;
  /// otherwise a private pool is created for the run (see file comment).
  /// The epoll client ignores it (one thread drives everything).
  rt::ThreadPool* pool = nullptr;
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
  /// Merged per-worker latencies, in microseconds, measured from each
  /// request's intended send time (coordinated-omission-safe).
  obs::Histogram::Snapshot latency_us;
  std::uint64_t max_latency_us = 0;
  /// Most connections simultaneously open during the run (== worker count
  /// for the blocking client; the interesting number for the epoll one).
  std::uint64_t peak_connections = 0;

  std::uint64_t errors_total() const {
    return connect_errors + send_errors + read_errors + timeouts;
  }

  /// The q-quantile of latency_us clamped to max_latency_us. The
  /// histogram interpolates inside power-of-two buckets, so unclamped a
  /// p999 could report a bucket's upper edge above anything observed.
  /// Every reported latency quantile goes through this.
  std::uint64_t latency_quantile(double q) const {
    return std::min(latency_us.quantile(q), max_latency_us);
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
