#include "stack.hpp"

#include <chrono>
#include <thread>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/slug.hpp"

namespace perfbench {

namespace search = pdcu::search;
namespace site = pdcu::site;
namespace rt = pdcu::rt;
namespace fs = pdcu::fs;

namespace {

using Clock = std::chrono::steady_clock;

/// How long a publish may take to become visible before it counts as lost.
constexpr std::chrono::seconds kPublishDeadline{20};

/// One replica over already-loaded content, started and ready to reload.
Expected<std::unique_ptr<Replica>> start_replica(
    const core::Repository& repo, const std::filesystem::path& content_dir,
    std::uint64_t fingerprint) {
  auto replica = std::make_unique<Replica>();
  site::SiteOptions site_options;
  site_options.pool = &rt::default_pool();
  site::BuildStats stats;
  site::BuildCache cache;
  const site::Site built = site::rebuild(repo, cache, site_options, &stats);
  server::Router router(built, repo,
                        search::SearchIndex::build(repo, &rt::default_pool()));
  router.set_build_stats(stats);
  router.set_health(&replica->health);
  router.set_reload_metrics(&replica->reload_metrics);
  // As `pdcu serve --net reactor`: handlers run on the shard loops, so
  // large-corpus queries may shard across the default pool.
  router.set_search_pool(&rt::default_pool());
  replica->health.set_content(repo.activities().size(), {});

  server::ServerOptions options;
  options.port = 0;
  options.backend = server::Backend::kReactor;
  options.net_shards = kNetShards;
  replica->http =
      std::make_unique<server::HttpServer>(std::move(router), options);
  if (const auto status = replica->http->start(); !status) {
    return status.error().context("replica failed to start");
  }
  replica->reload = std::make_unique<server::ReloadManager>(
      content_dir, *replica->http, replica->health, replica->reload_metrics,
      std::move(cache), fingerprint);
  return replica;
}

}  // namespace

Expected<Content> write_content(const Workload& workload,
                                const std::filesystem::path& dir) {
  const core::Repository repo =
      workload.corpus_docs == 0
          ? core::Repository::builtin()
          : search::corpus::synthetic_repository(
                {workload.corpus_docs, kCorpusSeed});
  if (const auto status = repo.export_to(dir); !status) {
    return status.error().context("writing content");
  }
  Content content{dir, {}};
  for (const auto& activity : repo.activities()) {
    content.files[pdcu::slugify(activity.title)] =
        dir / "activities" / (activity.slug + ".md");
  }
  return content;
}

Expected<std::unique_ptr<Stack>> Stack::build(const Workload& workload,
                                              const Content& content) {
  std::unique_ptr<Stack> stack(new Stack(content));
  const std::filesystem::path& content_dir = content.dir;
  const auto fingerprint = server::content_fingerprint(content_dir);
  if (!fingerprint) return fingerprint.error();
  auto loaded = core::Repository::load_lenient(content_dir);
  if (!loaded) return loaded.error();
  if (loaded.value().degraded()) {
    return Error::make("content.degraded", loaded.value().render_report());
  }
  stack->repo_ = std::move(loaded.value().repository);

  const int replicas = workload.front ? 2 : 1;
  for (int r = 0; r < replicas; ++r) {
    auto replica = start_replica(stack->repo_, content_dir, fingerprint.value());
    if (!replica) return replica.error();
    stack->replicas_.push_back(std::move(replica).value());
  }
  if (workload.front) {
    cluster::FrontOptions options;
    // The replicas run no gossip agents; health comes from the prober.
    options.gossip_interval = std::chrono::milliseconds(0);
    std::vector<cluster::ReplicaTarget> targets;
    for (std::size_t r = 0; r < stack->replicas_.size(); ++r) {
      targets.push_back({"replica-" + std::to_string(r), "127.0.0.1",
                         stack->replicas_[r]->http->port()});
    }
    stack->front_ = std::make_unique<cluster::FrontTier>(options, targets);
    if (const auto status = stack->front_->start(); !status) {
      return status.error().context("front tier failed to start");
    }
    stack->front_->probe_once();
  }

  const auto first = http_get(stack->port(), "/");
  if (!first) return first.error();
  if (first.value().status != 200) {
    return Error::make("stack.first_request",
                       "GET / answered " +
                           std::to_string(first.value().status));
  }
  return stack;
}

Stack::~Stack() {
  if (front_) front_->stop();
  for (auto& replica : replicas_) {
    if (replica->http) replica->http->stop();
  }
}

std::uint16_t Stack::port() const {
  return front_ ? front_->port() : replicas_.front()->http->port();
}

Expected<Published> Stack::publish(const std::string& slug,
                                   const std::string& marker) {
  const auto file = content_.files.find(slug);
  if (file == content_.files.end()) {
    return Error::make("publish.slug", "no content file for " + slug);
  }
  const std::filesystem::path& path = file->second;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();
  auto text = fs::read_file(path);
  if (!text) return text.error();
  auto activity = core::parse_activity(text.value());
  if (!activity) return activity.error();
  activity.value().details += "\n\n" + marker + "\n";
  if (const auto status = fs::write_file(path,
                                         core::write_activity(activity.value()));
      !status) {
    return status.error();
  }
  Published published;
  for (auto& replica : replicas_) {
    const auto reload_start = Clock::now();
    const auto step = replica->reload->check_once();
    if (published.reload_ms == 0.0) {
      published.reload_ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - reload_start)
                                .count();
    }
    if (step != server::ReloadManager::Step::kReloaded) {
      return Error::make("publish.reload",
                         "check_once did not reload after editing " + slug);
    }
  }
  const std::string target = "/activities/" + slug + "/";
  while (Clock::now() - start < kPublishDeadline) {
    const auto reply = http_get(port(), target);
    if (reply && reply.value().status == 200 &&
        reply.value().body.find(marker) != std::string::npos) {
      published.visible_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      published.cpu_ms = 1e3 * (process_cpu_s() - cpu_start);
      return published;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Error::make("publish.invisible",
                     "edit of " + slug + " never became visible");
}

}  // namespace perfbench
