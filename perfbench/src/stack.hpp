// The serving stack a workload runs against, built in-process from the
// repository's public APIs the way `pdcu serve --net reactor --watch`
// builds it: content written as Markdown to a content directory, loaded
// leniently, a site built through a BuildCache, a search index, a Router,
// a reactor HttpServer, and a ReloadManager so edits can be published.
// The `front` workload runs two such replicas behind a FrontTier.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drive.hpp"
#include "pdcu/cluster/front.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/server/reload.hpp"
#include "pdcu/server/server.hpp"
#include "workload.hpp"

namespace perfbench {

namespace cluster = pdcu::cluster;
namespace server = pdcu::server;

/// Synthetic corpora are part of a workload's definition: fixed content,
/// so the seed varies only the traffic.
inline constexpr std::uint64_t kCorpusSeed = 42;
/// SO_REUSEPORT reactor shards per server.
inline constexpr unsigned kNetShards = 2;

/// A workload's content as authored: one Markdown file per activity.
struct Content {
  std::filesystem::path dir;
  /// Each activity's file, keyed by the slug the site serves it under
  /// (slugify(title), which for synthetic documents is not the file name).
  std::map<std::string, std::filesystem::path> files;
};

/// Writes the workload's content (the builtin curation or its synthetic
/// corpus) under `dir`, which must not exist yet.
Expected<Content> write_content(const Workload& workload,
                                const std::filesystem::path& dir);

struct Published {
  double visible_ms = 0.0;  ///< write to the first GET showing the edit
  double reload_ms = 0.0;   ///< the first replica's check_once()
  double cpu_ms = 0.0;      ///< process CPU time over visible_ms
};

struct Replica {
  server::HealthTracker health;
  server::ReloadMetrics reload_metrics;
  std::unique_ptr<server::HttpServer> http;
  std::unique_ptr<server::ReloadManager> reload;
};

class Stack {
 public:
  /// Loads `content`, starts the servers, and returns once a GET /
  /// through the serving port answers 200. `content` must outlive the
  /// stack.
  static Expected<std::unique_ptr<Stack>> build(const Workload& workload,
                                                const Content& content);
  ~Stack();  ///< stops the front and the replicas

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Where clients connect: the front tier, else the only replica.
  std::uint16_t port() const;
  /// The content as loaded from disk at set-up.
  const core::Repository& repo() const { return repo_; }
  const std::filesystem::path& content_dir() const { return content_.dir; }

  std::vector<std::unique_ptr<Replica>>& replicas() { return replicas_; }
  cluster::FrontTier* front() { return front_.get(); }

  /// Publishes one edit of `slug`: appends a marker line to the activity's
  /// details, runs every replica's ReloadManager::check_once(), and polls
  /// the serving port until the activity page shows the marker. Returns
  /// how long that took.
  Expected<Published> publish(const std::string& slug,
                              const std::string& marker);

 private:
  explicit Stack(const Content& content) : content_(content) {}

  const Content& content_;
  core::Repository repo_{std::vector<core::Activity>{}};
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<cluster::FrontTier> front_;
};

}  // namespace perfbench
