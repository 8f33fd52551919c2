// ReloadManager unit tests, driven deterministically through check_once()
// (no background thread, no sleeping): fingerprint change detection,
// last-known-good retention across failed reloads, capped exponential
// backoff, and recovery once content heals.
#include "pdcu/server/reload.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/strings.hpp"

namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;
namespace fs = pdcu::fs;
namespace strs = pdcu::strings;

namespace {

std::filesystem::path fresh_content_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(core::Repository::builtin().export_to(dir).has_value());
  return dir;
}

void corrupt(const std::filesystem::path& dir, const std::string& slug) {
  EXPECT_TRUE(fs::write_file(dir / "activities" / (slug + ".md"),
                             "---\ndate: 2020-01-01\n---\nno title\n"));
}

/// Touch a file so the listing fingerprint moves even when size stays put:
/// rewrite with different content length.
void grow(const std::filesystem::path& dir, const std::string& slug) {
  auto path = dir / "activities" / (slug + ".md");
  auto text = fs::read_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_TRUE(fs::write_file(path, text.value() + "\n<!-- touched -->\n"));
}

/// A contributor's edit: appends a paragraph to one activity's body.
void edit_body(const std::filesystem::path& dir, const std::string& slug,
               const std::string& paragraph) {
  auto path = dir / "activities" / (slug + ".md");
  auto text = fs::read_file(path);
  ASSERT_TRUE(text.has_value());
  auto activity = core::parse_activity(text.value());
  ASSERT_TRUE(activity.has_value());
  activity.value().details += "\n\n" + paragraph + "\n";
  EXPECT_TRUE(fs::write_file(path, core::write_activity(activity.value())));
}

/// Everything a ReloadManager needs, wired against a stopped server (the
/// manager only calls swap_router, which needs no live socket). `wire`
/// runs on the initial router, as `pdcu serve` wires its first snapshot.
struct Fixture {
  explicit Fixture(const std::filesystem::path& content_dir,
                   server::ReloadOptions options = {.backoff_initial =
                                                        std::chrono::
                                                            milliseconds(0)},
                   const std::function<void(server::Router&)>& wire = {}) {
    auto loaded = core::Repository::load_lenient(content_dir);
    EXPECT_TRUE(loaded.has_value());
    site::SiteOptions site_options;
    site::Site built = site::rebuild(loaded.value().repository, cache,
                                     site_options);
    server::Router router(built, loaded.value().repository);
    if (wire) wire(router);
    http = std::make_unique<server::HttpServer>(std::move(router));
    auto fingerprint = server::content_fingerprint(content_dir);
    EXPECT_TRUE(fingerprint.has_value());
    manager = std::make_unique<server::ReloadManager>(
        content_dir, *http, health, metrics, std::move(cache),
        fingerprint.value(), options);
  }

  site::BuildCache cache;
  server::HealthTracker health;
  server::ReloadMetrics metrics;
  std::unique_ptr<server::HttpServer> http;
  std::unique_ptr<server::ReloadManager> manager;
};

}  // namespace

TEST(ContentFingerprint, StableUntilContentChanges) {
  auto dir = fresh_content_dir("pdcu_fingerprint_test");
  auto first = server::content_fingerprint(dir);
  auto second = server::content_fingerprint(dir);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first.value(), second.value());

  grow(dir, "findsmallestcard");
  auto third = server::content_fingerprint(dir);
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(first.value(), third.value());

  // Removing a file changes the fingerprint too.
  std::filesystem::remove(dir / "activities" / "findsmallestcard.md");
  auto fourth = server::content_fingerprint(dir);
  ASSERT_TRUE(fourth.has_value());
  EXPECT_NE(third.value(), fourth.value());
}

TEST(ContentFingerprint, MissingDirectoryIsAnError) {
  auto result = server::content_fingerprint("/nonexistent/content");
  EXPECT_FALSE(result.has_value());
}

TEST(ReloadManager, IdleWhileContentIsUnchanged) {
  auto dir = fresh_content_dir("pdcu_reload_idle");
  Fixture fx(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kIdle);
  EXPECT_EQ(fx.metrics.attempts(), 0u);
}

TEST(ReloadManager, ReloadsWhenTheFingerprintMoves) {
  auto dir = fresh_content_dir("pdcu_reload_change");
  Fixture fx(dir);
  grow(dir, "findsmallestcard");
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_EQ(fx.metrics.attempts(), 1u);
  EXPECT_EQ(fx.metrics.successes(), 1u);
  EXPECT_FALSE(fx.health.degraded());
  // And back to idle: the new fingerprint is now the baseline.
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kIdle);
}

namespace {

/// Answers every gossip exchange with a fixed digest.
class FixedGossip : public server::GossipEndpoint {
 public:
  std::string exchange(std::string_view) const override { return "ours\n"; }
};

server::Request get(std::string target) {
  server::Request request;
  request.method = "GET";
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  return request;
}

}  // namespace

TEST(ReloadManager, ReloadedSnapshotKeepsTheLiveWiring) {
  // A `pdcu serve --cluster-id --watch` replica must keep answering
  // /cluster/gossip (and keep every other wiring, such as spans on
  // /metrics) in the snapshot a reload swaps in.
  auto dir = fresh_content_dir("pdcu_reload_wiring");
  FixedGossip gossip;
  pdcu::obs::SpanRegistry spans;
  spans.record("wired.span", 7);
  Fixture fx(dir, {.backoff_initial = std::chrono::milliseconds(0)},
             [&](server::Router& router) {
               router.set_gossip(&gossip);
               router.set_spans(&spans);
             });
  ASSERT_EQ(fx.http->router()->handle(get("/cluster/gossip?digest=")).status,
            200);
  grow(dir, "findsmallestcard");
  ASSERT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kReloaded);

  const auto live = fx.http->router();
  const auto exchanged = live->handle(get("/cluster/gossip?digest="));
  EXPECT_EQ(exchanged.status, 200);
  EXPECT_EQ(exchanged.body, "ours\n");
  const auto metrics = live->handle(get("/metrics"));
  EXPECT_TRUE(strs::contains(metrics.body, "span=\"wired.span\""));
  // The reload manager's own wiring lands on top of what carried over.
  EXPECT_TRUE(strs::contains(metrics.body, "pdcu_reload_"));
}

TEST(ReloadManager, EveryPublishStageIsTimedOnMetrics) {
  // /metrics splits a reload into the same stages as the benchmark's
  // build layer: load, site rebuild, index build, router build.
  auto dir = fresh_content_dir("pdcu_reload_spans");
  pdcu::obs::SpanRegistry spans;
  Fixture fx(dir, {.backoff_initial = std::chrono::milliseconds(0)},
             [&](server::Router& router) { router.set_spans(&spans); });
  fx.manager->set_spans(&spans);
  grow(dir, "findsmallestcard");
  ASSERT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kReloaded);

  const auto metrics = fx.http->router()->handle(get("/metrics"));
  for (const char* span :
       {"core.load", "site.total", "search.build", "server.router_build"}) {
    ASSERT_NE(spans.find(span), nullptr) << span;
    EXPECT_EQ(spans.find(span)->count(), 1u) << span;
    EXPECT_TRUE(strs::contains(metrics.body,
                               "span=\"" + std::string(span) + "\""))
        << span;
  }
}

TEST(ReloadManager, ReloadSharesUnchangedPagesWithTheLiveSnapshot) {
  auto dir = fresh_content_dir("pdcu_reload_shared_pages");
  Fixture fx(dir);
  const auto before = fx.http->router();
  edit_body(dir, "findsmallestcard", "A revised classroom note.");
  ASSERT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kReloaded);
  const auto after = fx.http->router();
  ASSERT_NE(before, after);

  // A body edit leaves the index page's bytes alone: same entry object.
  EXPECT_EQ(after->cache().find("/"), before->cache().find("/"));
  EXPECT_EQ(after->cache().find("/activities/sortingnetworks/"),
            before->cache().find("/activities/sortingnetworks/"));
  // The edited page is a new entry with a new ETag.
  const auto* edited = after->cache().find("/activities/findsmallestcard/");
  const auto* old = before->cache().find("/activities/findsmallestcard/");
  ASSERT_NE(edited, nullptr);
  ASSERT_NE(old, nullptr);
  EXPECT_NE(edited, old);
  EXPECT_NE(edited->etag, old->etag);
  EXPECT_TRUE(strs::contains(edited->body, "A revised classroom note."));
}

TEST(ReloadManager, PartialQuarantineSwapsInDegradedSite) {
  auto dir = fresh_content_dir("pdcu_reload_degraded");
  Fixture fx(dir);
  corrupt(dir, "findsmallestcard");
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_TRUE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(),
                             "\"quarantined_slugs\":[\"findsmallestcard\"]"));
  // The served snapshot no longer has the quarantined page.
  auto snapshot = fx.http->router();
  server::Request request;
  request.method = "GET";
  request.target = "/activities/findsmallestcard/";
  request.version = "HTTP/1.1";
  EXPECT_EQ(snapshot->handle(request).status, 404);
}

TEST(ReloadManager, MassQuarantineKeepsLastKnownGood) {
  auto dir = fresh_content_dir("pdcu_reload_mass");
  Fixture fx(dir);
  const auto before = fx.http->router();

  // Corrupt every activity: the reload must refuse to swap.
  auto files = fs::list_files(dir / "activities", ".md");
  ASSERT_TRUE(files.has_value());
  for (const auto& path : files.value()) {
    EXPECT_TRUE(
        fs::write_file(path, "---\ndate: 2020-01-01\n---\nno title\n"));
  }
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  EXPECT_EQ(fx.metrics.failures(), 1u);
  EXPECT_TRUE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(), "reload.empty"));
  // The snapshot is untouched — last-known-good keeps serving.
  EXPECT_EQ(fx.http->router(), before);
}

TEST(ReloadManager, UnlistableContentDirIsAFailedReloadNotACrash) {
  auto dir = fresh_content_dir("pdcu_reload_unlistable");
  Fixture fx(dir);
  const auto before = fx.http->router();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  EXPECT_EQ(fx.http->router(), before);
}

TEST(ReloadManager, BackoffHoldsThenRecoveryRestoresOk) {
  auto dir = fresh_content_dir("pdcu_reload_backoff");
  // Non-zero initial backoff so the step after a failure is observable.
  Fixture fx(dir, {.poll_interval = std::chrono::milliseconds(1),
                   .backoff_initial = std::chrono::milliseconds(60000),
                   .backoff_max = std::chrono::milliseconds(60000)});
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  const auto attempts_after_failure = fx.metrics.attempts();
  // Inside the backoff window nothing is attempted, even though the
  // content is still broken.
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kBackoff);
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kBackoff);
  EXPECT_EQ(fx.metrics.attempts(), attempts_after_failure);
}

TEST(ReloadManager, FailureClearsOnlyThroughACleanReload) {
  auto dir = fresh_content_dir("pdcu_reload_recovery");
  Fixture fx(dir);  // zero backoff: every check may attempt
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(fx.health.degraded());

  // Content heals (recreated identically — the fingerprint may even match
  // the pre-failure baseline); the manager must still reload rather than
  // report idle, because the last attempt failed.
  EXPECT_TRUE(core::Repository::builtin().export_to(dir).has_value());
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_FALSE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(),
                             "\"status\":\"ok\""));
  EXPECT_EQ(fx.metrics.consecutive_failures(), 0u);
}

TEST(ReloadManager, ExponentialBackoffDoublesAndCaps) {
  auto dir = fresh_content_dir("pdcu_reload_doubling");
  Fixture fx(dir, {.poll_interval = std::chrono::milliseconds(1),
                   .backoff_initial = std::chrono::milliseconds(5),
                   .backoff_max = std::chrono::milliseconds(12)});
  std::filesystem::remove_all(dir);

  const auto fail_after_backoff = [&fx] {
    // Outwait whatever deadline is pending, then force an attempt.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return fx.manager->check_once();
  };
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  const std::string after_first = fx.metrics.render_text();
  EXPECT_TRUE(strs::contains(after_first, "pdcu_reload_backoff_ms 5"));
  EXPECT_EQ(fail_after_backoff(), server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(
      strs::contains(fx.metrics.render_text(), "pdcu_reload_backoff_ms 10"));
  // Doubling again would give 20 ms; the cap clamps it to 12.
  EXPECT_EQ(fail_after_backoff(), server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(
      strs::contains(fx.metrics.render_text(), "pdcu_reload_backoff_ms 12"));
  EXPECT_EQ(fx.metrics.consecutive_failures(), 3u);
  EXPECT_EQ(fx.metrics.successes(), 0u);
}

TEST(ReloadManager, StartAndStopAreIdempotent) {
  auto dir = fresh_content_dir("pdcu_reload_lifecycle");
  Fixture fx(dir, {.poll_interval = std::chrono::milliseconds(10)});
  EXPECT_FALSE(fx.manager->running());
  fx.manager->start();
  fx.manager->start();
  EXPECT_TRUE(fx.manager->running());
  fx.manager->stop();
  fx.manager->stop();
  EXPECT_FALSE(fx.manager->running());
}
