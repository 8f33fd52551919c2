// Load generators over loadgen's Connection client. Both record every
// latency sample exactly (loadgen::Result only keeps log-bucketed
// histograms) and use one thread per connection.
//
//  * Closed loop: each connection sends its next request only after the
//    previous reply, so the numbers are capacity and per-request service
//    time with no queueing.
//  * Open loop: requests follow loadgen's fixed-rate schedule, and each
//    latency is charged from the request's intended send time, so a stall
//    is charged to every request scheduled behind it. How late the
//    generator itself sent is recorded separately.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/loadgen/schedule.hpp"
#include "pdcu/support/expected.hpp"

namespace perfbench {

namespace loadgen = pdcu::loadgen;
using pdcu::Error;
using pdcu::Expected;

struct Phase {
  // Per measured request. Floats keep the benchmark's own footprint small
  // next to the program's (rss_mb is the whole process).
  std::vector<float> latency_us;
  /// When the request was sent (closed loop) or due (open loop), in
  /// seconds since the measured window opened.
  std::vector<float> at_s;
  /// Closed loop: each request's position in the request list.
  std::vector<std::uint32_t> index;
  /// Open loop: how late the generator sent each request, measured from
  /// its intended time or, if later, the previous reply on its connection.
  std::vector<float> late_us;
  std::uint64_t attempted = 0;  ///< measured requests sent
  std::uint64_t ok = 0;         ///< ... answered 2xx
  std::chrono::steady_clock::time_point window_start;  ///< when it opened
  double span_s = 0.0;          ///< length of the measured window
  double warmup_s = 0.0;        ///< wall time excluded before it
  /// Open loop: CPU time the process spent outside the client threads and
  /// the benchmark's own threads in each of the equal windows the measured
  /// span was split into — the servers' (and front's) cost, window by window.
  std::vector<double> server_cpu_s;
  /// Open loop: Reference::round_trip_us measured at the start of each of
  /// those windows.
  std::vector<double> reference_us;
};

/// Closed loop over `requests` (cycled; connection c takes c, c+C, ...):
/// `warmup_s` of traffic is excluded, then requests started in the next
/// `measure_s` seconds are measured.
Phase run_closed(std::uint16_t port,
                 const std::vector<loadgen::ScheduledRequest>& requests,
                 unsigned connections, double warmup_s, double measure_s);

class Reference;

/// Open loop over a fixed-rate schedule (connection c walks c, c+C, ...).
/// Requests scheduled before `warmup_s` are sent but not measured. The
/// server CPU time is sampled over windows of about `cpu_window_s`, and
/// `reference` is run at the start of each.
Phase run_open(std::uint16_t port,
               const std::vector<loadgen::ScheduledRequest>& schedule,
               unsigned connections, double warmup_s, double cpu_window_s,
               Reference& reference);

/// Samples the host's steal time (CPU time the hypervisor gave to other
/// guests, from /proc/stat) every 50 ms on its own thread, so a phase's
/// time windows can be ranked by how much interference from outside the
/// process they saw.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Steal ticks (1/100 s, summed over CPUs) recorded in [from, to).
  double steal_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// CPU time of the whole process (every thread) so far, in seconds.
double process_cpu_s();

/// A fixed exchange that runs none of the program: a 128-byte request
/// answered with 4 KiB over a loopback TCP connection between the calling
/// thread and an echo thread of this process, much like one keep-alive
/// request to a server. Its CPU time per round trip tells how fast the
/// host runs this kind of work at that moment, so the program's CPU figures
/// can be stated in round trips: on a shared host the CPU time of the same
/// work drifts by up to 2x over minutes, the ratio far less (README.md).
class Reference {
 public:
  static Expected<std::unique_ptr<Reference>> start();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Runs `round_trips` exchanges and returns the CPU time they took on
  /// both threads, in microseconds per round trip.
  double round_trip_us(int round_trips);
  /// CPU seconds the echo thread has used so far.
  double echo_cpu_s() const;

 private:
  Reference() = default;
  int client_fd_ = -1;
  int echo_fd_ = -1;
  clockid_t echo_clock_{};
  std::thread echo_;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One GET on its own connection ("Connection: close", read to EOF).
/// Used for correctness samples and publish polling, never for timing.
Expected<HttpReply> http_get(std::uint16_t port, const std::string& target);

}  // namespace perfbench
