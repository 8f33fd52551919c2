#include "drive.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "pdcu/loadgen/client.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::milliseconds kTimeout{2000};
/// The open-loop generator sleeps until this close to a send time, then
/// spins: a sleeping thread wakes tens of microseconds late, which would be
/// charged to the server.
constexpr std::chrono::microseconds kSpin{40};
/// Reference round trips per open-loop CPU window: a few milliseconds.
constexpr int kReferenceRoundTrips = 200;
constexpr std::size_t kReferenceRequest = 128;
constexpr std::size_t kReferenceReply = 4096;

float micros(Clock::duration d) {
  return std::chrono::duration<float, std::micro>(d).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

bool ok(const loadgen::Exchange& exchange) {
  return exchange.outcome == loadgen::Outcome::kOk && exchange.status >= 200 &&
         exchange.status < 300;
}

/// Asks the kernel for exact sleep wake-ups on this thread (the default
/// 50 us timer slack would show up as generator lateness).
void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void wait_until(Clock::time_point when) {
  if (when - Clock::now() > kSpin) std::this_thread::sleep_until(when - kSpin);
  while (Clock::now() < when) {
  }
}

Phase merge(std::vector<Phase>& parts) {
  Phase all;
  for (Phase& part : parts) {
    all.latency_us.insert(all.latency_us.end(), part.latency_us.begin(),
                          part.latency_us.end());
    all.at_s.insert(all.at_s.end(), part.at_s.begin(), part.at_s.end());
    all.late_us.insert(all.late_us.end(), part.late_us.begin(),
                       part.late_us.end());
    all.index.insert(all.index.end(), part.index.begin(), part.index.end());
    all.attempted += part.attempted;
    all.ok += part.ok;
  }
  return all;
}

}  // namespace

Phase run_closed(std::uint16_t port,
                 const std::vector<loadgen::ScheduledRequest>& requests,
                 unsigned connections, double warmup_s, double measure_s) {
  const auto start = Clock::now();
  const auto window_start = start + seconds(warmup_s);
  const auto window_end = window_start + seconds(measure_s);
  std::vector<Phase> parts(connections);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      loadgen::Connection connection("127.0.0.1", port, kTimeout);
      Phase& part = parts[c];
      for (std::size_t i = c;; i += connections) {
        const std::size_t index = i % requests.size();
        const auto sent = Clock::now();
        if (sent >= window_end) break;
        const loadgen::Exchange exchange =
            connection.get(requests[index].target);
        const auto done = Clock::now();
        if (sent < window_start) continue;
        ++part.attempted;
        if (ok(exchange)) ++part.ok;
        part.latency_us.push_back(micros(done - sent));
        part.at_s.push_back(micros(sent - window_start) / 1e6f);
        part.index.push_back(static_cast<std::uint32_t>(index));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Phase all = merge(parts);
  all.window_start = window_start;
  all.span_s = measure_s;
  all.warmup_s = std::chrono::duration<double>(window_start - start).count();
  return all;
}

Phase run_open(std::uint16_t port,
               const std::vector<loadgen::ScheduledRequest>& schedule,
               unsigned connections, double warmup_s, double cpu_window_s,
               Reference& reference) {
  const auto warmup_ns = static_cast<std::uint64_t>(warmup_s * 1e9);
  double span_s = 0.0;
  if (schedule.size() > 1) {  // one interval past the last arrival
    span_s = static_cast<double>(schedule.back().offset_ns +
                                 schedule[1].offset_ns - warmup_ns) /
             1e9;
  }
  // A short head start so every thread is parked before the first send.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto window_start = start + std::chrono::nanoseconds(warmup_ns);
  std::vector<Phase> parts(connections);
  std::vector<Clock::time_point> first_send(connections, window_start);
  // Client threads stay alive, idle, until the last CPU sample is taken.
  std::atomic<bool> released{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      tighten_timer_slack();
      loadgen::Connection connection("127.0.0.1", port, kTimeout);
      Phase& part = parts[c];
      auto free_at = start;  // when this connection's last reply arrived
      for (std::size_t i = c; i < schedule.size(); i += connections) {
        const auto& request = schedule[i];
        const auto intended =
            start + std::chrono::nanoseconds(request.offset_ns);
        wait_until(intended);
        const auto sent = Clock::now();
        // The generator's own lateness: a send held back by the previous
        // reply on this connection is the server's delay, already charged
        // to the latency, not the generator's.
        const auto due = std::max(intended, free_at);
        if (i == c) first_send[c] = sent;
        if (request.fresh_connection) connection.close();
        const loadgen::Exchange exchange = connection.get(request.target);
        const auto done = Clock::now();
        free_at = done;
        if (request.offset_ns < warmup_ns) continue;
        ++part.attempted;
        if (ok(exchange)) ++part.ok;
        part.latency_us.push_back(micros(done - intended));
        part.at_s.push_back(static_cast<float>(request.offset_ns - warmup_ns) /
                            1e9f);
        part.late_us.push_back(micros(sent - due));
      }
      while (!released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  // The servers' CPU time: the process's minus the client threads', this
  // thread's and the reference's echo thread's.
  std::vector<clockid_t> client_clocks(connections);
  for (unsigned c = 0; c < connections; ++c) {
    ::pthread_getcpuclockid(threads[c].native_handle(), &client_clocks[c]);
  }
  const auto server_cpu_now = [&client_clocks, &reference] {
    double cpu = process_cpu_s() - cpu_seconds(CLOCK_THREAD_CPUTIME_ID) -
                 reference.echo_cpu_s();
    for (const clockid_t clock : client_clocks) cpu -= cpu_seconds(clock);
    return cpu;
  };
  const int windows =
      std::max(1, static_cast<int>(span_s / cpu_window_s + 0.5));
  std::vector<double> server_cpu_s;
  std::vector<double> reference_us;
  std::this_thread::sleep_until(window_start);
  double cpu_before = server_cpu_now();
  for (int w = 1; w <= windows; ++w) {
    reference_us.push_back(reference.round_trip_us(kReferenceRoundTrips));
    std::this_thread::sleep_until(window_start + seconds(w * span_s / windows));
    const double cpu = server_cpu_now();
    server_cpu_s.push_back(cpu - cpu_before);
    cpu_before = cpu;
  }
  released.store(true);
  for (auto& thread : threads) thread.join();
  Phase all = merge(parts);
  all.window_start = window_start;
  all.span_s = span_s;
  all.server_cpu_s = std::move(server_cpu_s);
  all.reference_us = std::move(reference_us);
  all.warmup_s =
      std::chrono::duration<double>(
          window_start - *std::min_element(first_send.begin(), first_send.end()))
          .count();
  return all;
}

double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Expected<std::unique_ptr<Reference>> Reference::start() {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) return Error::make("reference.socket", std::strerror(errno));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  socklen_t length = sizeof address;
  std::unique_ptr<Reference> reference(new Reference());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof address) ==
          0 &&
      ::listen(listener, 1) == 0 &&
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&address),
                    &length) == 0) {
    reference->client_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (reference->client_fd_ >= 0 &&
        ::connect(reference->client_fd_,
                  reinterpret_cast<sockaddr*>(&address), sizeof address) == 0) {
      reference->echo_fd_ = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    }
  }
  const int error = errno;
  ::close(listener);
  if (reference->echo_fd_ < 0) {
    return Error::make("reference.connect", std::strerror(error));
  }
  int one = 1;
  ::setsockopt(reference->client_fd_, IPPROTO_TCP, TCP_NODELAY, &one,
               sizeof one);
  ::setsockopt(reference->echo_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  reference->echo_ = std::thread([fd = reference->echo_fd_] {
    char request[kReferenceRequest];
    const std::string reply(kReferenceReply, 'x');
    while (recv_all(fd, request, sizeof request) &&
           send_all(fd, reply.data(), reply.size())) {
    }
  });
  ::pthread_getcpuclockid(reference->echo_.native_handle(),
                          &reference->echo_clock_);
  return reference;
}

Reference::~Reference() {
  if (client_fd_ >= 0) ::shutdown(client_fd_, SHUT_RDWR);
  if (echo_.joinable()) echo_.join();
  if (client_fd_ >= 0) ::close(client_fd_);
  if (echo_fd_ >= 0) ::close(echo_fd_);
}

double Reference::round_trip_us(int round_trips) {
  char request[kReferenceRequest] = {};
  char reply[kReferenceReply];
  const double start = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) + echo_cpu_s();
  for (int i = 0; i < round_trips; ++i) {
    send_all(client_fd_, request, sizeof request);
    recv_all(client_fd_, reply, sizeof reply);
  }
  const double cpu =
      cpu_seconds(CLOCK_THREAD_CPUTIME_ID) + echo_cpu_s() - start;
  return 1e6 * cpu / round_trips;
}

double Reference::echo_cpu_s() const { return cpu_seconds(echo_clock_); }

struct StealMonitor::State {
  mutable std::mutex mutex;
  std::vector<std::pair<Clock::time_point, double>> samples;
  std::atomic<bool> stopping{false};
  std::thread thread;
};

namespace {

/// The steal column of /proc/stat's aggregate cpu line; 0 where absent.
double read_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  return fields[7];
}

}  // namespace

StealMonitor::StealMonitor() : state_(std::make_unique<State>()) {
  state_->thread = std::thread([state = state_.get()] {
    while (!state->stopping.load()) {
      const double steal = read_steal_ticks();
      {
        std::lock_guard lock(state->mutex);
        state->samples.emplace_back(Clock::now(), steal);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

StealMonitor::~StealMonitor() {
  state_->stopping.store(true);
  state_->thread.join();
}

double StealMonitor::steal_between(Clock::time_point from,
                                   Clock::time_point to) const {
  std::lock_guard lock(state_->mutex);
  const auto& samples = state_->samples;
  // The last sample at or before each end (the first one if none is).
  const auto at = [&samples](Clock::time_point when) {
    double steal = samples.empty() ? 0.0 : samples.front().second;
    for (const auto& [time, value] : samples) {
      if (time > when) break;
      steal = value;
    }
    return steal;
  };
  return at(to) - at(from);
}

Expected<HttpReply> http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::make("http.socket", std::strerror(errno));
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    const Error error = Error::make("http.connect", std::strerror(errno));
    ::close(fd);
    return error;
  }
  const std::string wire = "GET " + target +
                           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                           "Connection: close\r\n\r\n";
  if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(wire.size())) {
    ::close(fd);
    return Error::make("http.send", target);
  }
  std::string raw;
  char chunk[16384];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (n < 0) return Error::make("http.recv", target);
  const auto head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    return Error::make("http.reply", "malformed reply to " + target);
  }
  HttpReply reply;
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

}  // namespace perfbench
