// A blocking HTTP/1.1 client connection: one socket that can be kept
// alive across requests or deliberately torn down to pay the cold-connect
// cost a schedule asks for. fetch_catalog_slugs() uses it to learn the
// served slugs before a load run, and perfbench's load loops
// (perfbench/src/drive.cpp) use it directly; the load generator itself
// multiplexes its connections through epoll (see loadgen.hpp). Responses are framed by Content-Length
// (the only framing the pdcu server emits), so a keep-alive exchange knows
// exactly where one response ends and leaves the socket clean for the
// next. Send/receive timeouts are enforced with SO_SNDTIMEO/SO_RCVTIMEO; a
// timed-out connection is closed, because the stream position is
// unknowable after an abandoned read.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

enum class Outcome {
  kOk,            ///< full response read; see `status`
  kConnectError,  ///< could not establish the TCP connection
  kSendError,     ///< connection died while writing the request
  kReadError,     ///< connection died or desynced while reading
  kTimeout,       ///< the read timeout expired mid-response
};

struct Exchange {
  Outcome outcome = Outcome::kReadError;
  int status = 0;              ///< HTTP status when outcome == kOk
  std::size_t body_bytes = 0;  ///< response body size when outcome == kOk
};

class Connection {
 public:
  Connection(std::string host, std::uint16_t port,
             std::chrono::milliseconds timeout);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connected() const { return fd_ >= 0; }
  void close();

  /// One GET exchange. Connects first if the socket is down (counted in
  /// the measured latency — a cold connect is part of what the user
  /// waits for). The request is sent keep-alive; the connection is closed
  /// afterwards only if the server said "Connection: close" or the
  /// exchange failed.
  Exchange get(const std::string& target);

 private:
  bool ensure_connected();
  bool read_more();  ///< appends to buffer_; false on EOF/error/timeout

  std::string host_;
  std::uint16_t port_;
  std::chrono::milliseconds timeout_;
  int fd_ = -1;
  bool timed_out_ = false;  ///< the last read_more failure was a timeout
  std::string buffer_;      ///< unconsumed response bytes
};

/// Case-insensitive lookup of a header value inside a response head
/// (start line + header lines). Returns the trimmed value, lower-cased,
/// or an empty string when absent. Shared by Connection and the load
/// generator so both frame responses identically.
std::string find_header_value(std::string_view head, std::string_view name);

/// Fetches /api/catalog.json from a running server and returns the slugs
/// in catalog order (which the Zipf sampler treats as popularity order).
Expected<std::vector<std::string>> fetch_catalog_slugs(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout);

}  // namespace pdcu::loadgen
