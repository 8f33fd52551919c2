#include "pdcu/server/reload.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "pdcu/core/repository.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/hash.hpp"

namespace pdcu::server {

Expected<std::uint64_t> content_fingerprint(
    const std::filesystem::path& content_dir) {
  auto files = fs::list_files(content_dir / "activities", ".md");
  if (!files) return files.error().context("fingerprinting content");
  std::uint64_t state = hash::kFnv1aInit;
  const auto mix = [&state](std::string_view bytes) {
    state = hash::fnv1a_64_update(state, bytes);
    state = hash::fnv1a_64_update(state, std::string_view("\x1f", 1));
  };
  for (const auto& path : files.value()) {
    mix(path.string());
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    mix(ec ? "?" : std::to_string(size));
    const auto mtime = std::filesystem::last_write_time(path, ec);
    mix(ec ? "?"
           : std::to_string(mtime.time_since_epoch().count()));
  }
  mix(std::to_string(files.value().size()));
  return state;
}

ReloadManager::ReloadManager(std::filesystem::path content_dir,
                             HttpServer& server, HealthTracker& health,
                             ReloadMetrics& metrics, site::BuildCache cache,
                             std::uint64_t fingerprint, ReloadOptions options,
                             rt::TraceLog* trace)
    : content_dir_(std::move(content_dir)),
      server_(server),
      health_(health),
      metrics_(metrics),
      options_(options),
      trace_(trace),
      cache_(std::move(cache)),
      last_fingerprint_(fingerprint) {}

ReloadManager::~ReloadManager() { stop(); }

void ReloadManager::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      check_once();
      // Sleep the poll interval in short slices so stop() is prompt.
      auto remaining = options_.poll_interval;
      while (remaining.count() > 0 &&
             running_.load(std::memory_order_acquire)) {
        const auto slice = std::min<std::chrono::milliseconds>(
            remaining, std::chrono::milliseconds(50));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
    }
  });
}

void ReloadManager::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
}

ReloadManager::Step ReloadManager::check_once() {
  if (next_attempt_.has_value() &&
      std::chrono::steady_clock::now() < *next_attempt_) {
    return Step::kBackoff;
  }
  const Expected<std::uint64_t> fingerprint =
      content_fingerprint(content_dir_);
  // After a failure the fingerprint may match the last *attempted* state
  // (or the content may have been reverted to the served state); either
  // way the failure only clears by completing a clean reload, so keep
  // attempting until one lands.
  if (fingerprint.has_value() && fingerprint.value() == last_fingerprint_ &&
      !last_failed_) {
    return Step::kIdle;
  }
  return attempt_reload(fingerprint);
}

ReloadManager::Step ReloadManager::attempt_reload(
    const Expected<std::uint64_t>& fingerprint) {
  metrics_.record_attempt();
  if (!fingerprint.has_value()) return fail(fingerprint.error());

  auto loaded = [this] {
    obs::ScopedSpan span(spans_, "core.load");
    return core::Repository::load_lenient(content_dir_);
  }();
  if (!loaded) return fail(loaded.error());
  core::LoadReport& report = loaded.value();
  if (report.total_files > 0 && report.loaded() == 0) {
    // Quarantining everything is indistinguishable from losing the
    // content dir; treat it as a failed reload rather than swapping an
    // empty site over a working one.
    return fail(Error::make(
        "reload.empty", "all " + std::to_string(report.total_files) +
                            " activities quarantined; keeping "
                            "last-known-good site"));
  }

  site::SiteOptions site_options;
  site_options.pool = &rt::default_pool();
  site_options.trace = trace_;
  site_options.quarantined_inputs = report.quarantined.size();
  site_options.spans = spans_;
  site::BuildStats stats;
  site::Site site =
      site::rebuild(report.repository, cache_, site_options, &stats);

  auto index = search::SearchIndex::build(report.repository,
                                          &rt::default_pool(), spans_);
  // The live snapshot lends the new one its unchanged cached pages, and
  // everything it was wired with (gossip, search pool, spans, ...) carries
  // over; the health and reload metrics this manager updates are wired in
  // on top.
  const std::shared_ptr<const Router> live = server_.router();
  Router router = [&] {
    obs::ScopedSpan span(spans_, "server.router_build");
    return Router(site, report.repository, std::move(index), &live->cache());
  }();
  router.inherit_wiring(*live);
  router.set_build_stats(stats);
  router.set_health(&health_);
  router.set_reload_metrics(&metrics_);
  server_.swap_router(std::move(router));

  health_.set_content(report.loaded(), report.quarantined_slugs());
  health_.record_reload_success();
  metrics_.record_success(report.quarantined.size(), stats.pages_rendered);
  last_fingerprint_ = fingerprint.value();
  last_failed_ = false;
  backoff_ = std::chrono::milliseconds{0};
  next_attempt_.reset();
  if (trace_ != nullptr) {
    trace_->narrate(
        "reload: swapped in " + std::to_string(site.pages.size()) +
        " pages (" + std::to_string(stats.pages_rendered) + " rendered, " +
        std::to_string(report.quarantined.size()) + " quarantined)");
  }
  return Step::kReloaded;
}

ReloadManager::Step ReloadManager::fail(const Error& error) {
  last_failed_ = true;
  backoff_ = backoff_.count() == 0
                 ? options_.backoff_initial
                 : std::min(backoff_ * 2, options_.backoff_max);
  next_attempt_ = std::chrono::steady_clock::now() + backoff_;
  health_.record_reload_failure("[" + error.code + "] " + error.message);
  metrics_.record_failure(static_cast<std::uint64_t>(backoff_.count()));
  if (trace_ != nullptr) {
    trace_->narrate("reload: failed (" + error.code +
                    "), serving last-known-good; retry in " +
                    std::to_string(backoff_.count()) + " ms");
  }
  return Step::kFailed;
}

}  // namespace pdcu::server
