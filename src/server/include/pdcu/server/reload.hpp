// Live reload with last-known-good serving. A ReloadManager watches a
// content directory from a background thread: it fingerprints the
// activities/*.md listing (paths, sizes, mtimes) every poll interval and,
// when the fingerprint moves, reloads leniently (core::LoadReport),
// rebuilds the site incrementally through the carried site::BuildCache,
// and publishes a fresh Router snapshot via HttpServer::swap_router().
//
// Failure policy — the heart of it: a reload that cannot produce a
// serving site (unlistable directory, or *every* activity quarantined)
// never replaces the last-known-good snapshot. The manager records the
// failure in the shared HealthTracker/ReloadMetrics, then retries with
// capped exponential backoff until content heals, at which point the next
// clean rebuild swaps in and /healthz returns to "ok".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "pdcu/runtime/trace.hpp"
#include "pdcu/server/health.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::obs {
class SpanRegistry;
}  // namespace pdcu::obs

namespace pdcu::server {

/// Fingerprint of a content directory's activities/*.md listing: file
/// paths, sizes, and mtimes (content bytes are not read — a change of
/// bytes without a change of size or mtime is not a thing editors do).
/// Error when the listing itself fails.
Expected<std::uint64_t> content_fingerprint(
    const std::filesystem::path& content_dir);

struct ReloadOptions {
  std::chrono::milliseconds poll_interval{500};
  std::chrono::milliseconds backoff_initial{1000};  ///< after first failure
  std::chrono::milliseconds backoff_max{30000};     ///< doubling caps here
};

class ReloadManager {
 public:
  /// What one poll step did (returned by check_once, mostly for tests).
  enum class Step {
    kIdle,      ///< fingerprint unchanged, nothing to do
    kBackoff,   ///< a change is pending but the failure backoff holds
    kReloaded,  ///< a new snapshot was swapped in
    kFailed,    ///< the reload failed; last-known-good keeps serving
  };

  /// `cache` is the BuildCache that produced the currently-served site
  /// (so the first reload is incremental) and `fingerprint` is the
  /// content fingerprint that site was built from. `server`, `health`,
  /// and `metrics` must outlive the manager.
  ReloadManager(std::filesystem::path content_dir, HttpServer& server,
                HealthTracker& health, ReloadMetrics& metrics,
                site::BuildCache cache, std::uint64_t fingerprint,
                ReloadOptions options = {}, rt::TraceLog* trace = nullptr);
  ~ReloadManager();  ///< stops the watch thread if running

  ReloadManager(const ReloadManager&) = delete;
  ReloadManager& operator=(const ReloadManager&) = delete;

  /// Span registry for reload-built sites and indexes (site.* and
  /// search.build phase timings keep accumulating across reloads). The
  /// swapped-in router serves on /metrics whatever registry the live one
  /// was wired with, normally this one. Must outlive the manager. Call
  /// before start().
  void set_spans(obs::SpanRegistry* spans) { spans_ = spans; }

  /// Starts the background poll thread. Idempotent.
  void start();
  /// Stops and joins the poll thread. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One poll step, run on the caller's thread. Exposed so tests can
  /// drive the reload loop deterministically (no sleeping, no thread).
  /// Not safe concurrently with a start()ed thread.
  Step check_once();

 private:
  Step attempt_reload(const Expected<std::uint64_t>& fingerprint);
  Step fail(const Error& error);

  std::filesystem::path content_dir_;
  HttpServer& server_;
  HealthTracker& health_;
  ReloadMetrics& metrics_;
  ReloadOptions options_;
  rt::TraceLog* trace_;
  obs::SpanRegistry* spans_ = nullptr;

  // Touched only from the polling thread (or check_once callers).
  site::BuildCache cache_;
  std::uint64_t last_fingerprint_;
  std::chrono::milliseconds backoff_{0};
  std::optional<std::chrono::steady_clock::time_point> next_attempt_;
  bool last_failed_ = false;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace pdcu::server
