// Resilience-path microbenchmarks: how much the fault-tolerance layers
// cost when nothing is wrong. Content fingerprinting (the per-poll price
// of --watch), lenient loading vs. an incremental no-op reload, a full
// reload-and-swap cycle through the ReloadManager, and what publishing one
// body edit costs on a 10k-document corpus.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/reload.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/fs.hpp"

namespace core = pdcu::core;
namespace server = pdcu::server;
namespace site = pdcu::site;
namespace fs = pdcu::fs;
namespace rt = pdcu::rt;
namespace search = pdcu::search;

namespace {

/// A content dir exported once per process (38 activities).
const std::filesystem::path& content_dir() {
  static const std::filesystem::path kDir = [] {
    auto dir = std::filesystem::temp_directory_path() / "pdcu_bench_reload";
    std::filesystem::remove_all(dir);
    core::Repository::builtin().export_to(dir).has_value();
    return dir;
  }();
  return kDir;
}

void BM_ContentFingerprint(benchmark::State& state) {
  const auto& dir = content_dir();
  for (auto _ : state) {
    auto fingerprint = server::content_fingerprint(dir);
    benchmark::DoNotOptimize(fingerprint);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContentFingerprint);

void BM_LoadLenient(benchmark::State& state) {
  const auto& dir = content_dir();
  for (auto _ : state) {
    auto report = core::Repository::load_lenient(dir);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadLenient);

void BM_LoadLenientDegraded(benchmark::State& state) {
  // One activity corrupted: quarantine costs nothing extra beyond the
  // failed parse.
  auto dir = std::filesystem::temp_directory_path() /
             "pdcu_bench_reload_degraded";
  std::filesystem::remove_all(dir);
  core::Repository::builtin().export_to(dir).has_value();
  fs::write_file(dir / "activities" / "findsmallestcard.md",
                 "---\ndate: 2020-01-01\n---\nno title\n")
      .has_value();
  for (auto _ : state) {
    auto report = core::Repository::load_lenient(dir);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadLenientDegraded);

void BM_ReloadCycle(benchmark::State& state) {
  // A full reload through the manager: fingerprint, lenient load,
  // incremental rebuild against a warm cache, index build, router swap.
  // check_once() is forced to attempt by keeping last_failed semantics
  // out of the way: we bump a file's mtime each iteration.
  const auto& dir = content_dir();
  auto loaded = core::Repository::load_lenient(dir);
  site::BuildCache cache;
  site::SiteOptions options;
  site::Site built = site::rebuild(loaded.value().repository, cache, options);
  server::HttpServer http(
      server::Router(built, loaded.value().repository));
  server::HealthTracker health;
  server::ReloadMetrics metrics;
  auto fingerprint = server::content_fingerprint(dir);
  server::ReloadManager manager(
      dir, http, health, metrics, std::move(cache), fingerprint.value(),
      {.backoff_initial = std::chrono::milliseconds(0)});

  const auto touched = dir / "activities" / "findsmallestcard.md";
  for (auto _ : state) {
    state.PauseTiming();
    auto text = fs::read_file(touched);
    fs::write_file(touched, text.value()).has_value();  // mtime bump
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.check_once());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReloadCycle);

void BM_PublishOneEditSynthetic10k(benchmark::State& state) {
  // One contributor edit on a 10k-document corpus (synthetic, seed 42):
  // write the activity's file, then one check_once() — lenient load,
  // incremental rebuild, parallel index build, router build against the
  // live snapshot, swap. The work that does not depend on the edit is what
  // this tracks. Writing the 10k files happens once, untimed.
  const auto dir =
      std::filesystem::temp_directory_path() / "pdcu_bench_reload_10k";
  std::filesystem::remove_all(dir);
  const core::Repository corpus =
      search::corpus::synthetic_repository({10'000, 42});
  corpus.export_to(dir).has_value();
  auto loaded = core::Repository::load_lenient(dir);
  const core::Repository& repo = loaded.value().repository;
  site::BuildCache cache;
  site::SiteOptions options;
  options.pool = &rt::default_pool();
  site::Site built = site::rebuild(repo, cache, options);
  server::HttpServer http(server::Router(
      built, repo, search::SearchIndex::build(repo, &rt::default_pool())));
  server::HealthTracker health;
  server::ReloadMetrics metrics;
  auto fingerprint = server::content_fingerprint(dir);
  server::ReloadManager manager(
      dir, http, health, metrics, std::move(cache), fingerprint.value(),
      {.backoff_initial = std::chrono::milliseconds(0)});

  // Files are named by the generator's slugs; loaded slugs come from titles.
  const auto edited =
      dir / "activities" / (corpus.activities()[4321].slug + ".md");
  int edit = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto activity =
        core::parse_activity(fs::read_file(edited).value()).value();
    activity.details += "\n\nRevision " + std::to_string(++edit) + ".\n";
    fs::write_file(edited, core::write_activity(activity)).has_value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.check_once());
  }
  state.counters["reloads"] = static_cast<double>(metrics.successes());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PublishOneEditSynthetic10k)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
