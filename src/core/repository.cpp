#include "pdcu/core/repository.hpp"

#include <iterator>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/curation.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/support/fs.hpp"

namespace pdcu::core {

Repository::Repository(std::vector<Activity> activities)
    : activities_(std::move(activities)),
      index_(tax::TaxonomyConfig::pdcunplugged()) {
  // Slug -> its first page and, once the slug repeats, every tag its pages
  // carried so far: a repeated slug's page must not list again under a
  // term an earlier page of that slug already holds.
  struct SlugSeen {
    const Activity* first = nullptr;
    tax::PageTags listed;
  };
  std::unordered_map<std::string_view, SlugSeen> by_slug;
  by_slug.reserve(activities_.size());
  for (const auto& activity : activities_) {
    auto [seen, fresh] = by_slug.try_emplace(activity.slug);
    if (fresh) {
      seen->second.first = &activity;
      index_.add_page(activity.page_ref(), activity.tags());
      continue;
    }
    tax::PageTags& listed = seen->second.listed;
    if (listed.empty()) listed = seen->second.first->tags();
    tax::PageTags tags = activity.tags();
    index_.add_page(activity.page_ref(), tags, listed);
    for (auto& [key, terms] : tags) {
      auto& into = listed[key];
      into.insert(into.end(), std::make_move_iterator(terms.begin()),
                  std::make_move_iterator(terms.end()));
    }
  }
}

const Repository& Repository::builtin() {
  static const Repository kBuiltin{curation()};
  return kBuiltin;
}

Expected<LoadReport> Repository::load_lenient(
    const std::filesystem::path& content_dir) {
  auto files = fs::list_files(content_dir / "activities", ".md");
  if (!files) return files.error().context("loading repository");
  const auto& paths = files.value();

  // Parse content files in parallel (the engine eats its own cooking).
  // Each index writes only its own slot, so no synchronization is needed,
  // and both activities and diagnostics come out in the sorted-filename
  // order list_files produced — deterministic at any pool size.
  std::vector<Activity> activities(paths.size());
  std::vector<std::optional<Error>> errors(paths.size());
  rt::default_pool().parallel_for(
      0, paths.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto text = fs::read_file(paths[i]);
      if (!text) {
        errors[i] = text.error();
        continue;
      }
      auto activity = parse_activity(text.value());
      if (!activity) {
        errors[i] = activity.error();
        continue;
      }
      activities[i] = std::move(activity).value();
    }
  });

  LoadReport report;
  report.total_files = paths.size();
  std::vector<Activity> healthy;
  healthy.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (errors[i].has_value()) {
      report.quarantined.push_back(
          LoadDiagnostic{paths[i], paths[i].stem().string(),
                         std::move(*errors[i])});
    } else {
      healthy.push_back(std::move(activities[i]));
    }
  }
  report.repository = Repository(std::move(healthy));
  return report;
}

Expected<Repository> Repository::load(
    const std::filesystem::path& content_dir) {
  auto loaded = load_lenient(content_dir);
  if (!loaded) return loaded.error();
  LoadReport& report = loaded.value();
  if (report.degraded()) {
    // Aggregate every failure, in path order, so the strict load reports
    // the same error regardless of thread interleaving — and names every
    // broken file instead of an arbitrary first one.
    const auto& all = report.quarantined;
    std::string message = std::to_string(all.size()) + " of " +
                          std::to_string(report.total_files) +
                          " content files failed to load:";
    for (const auto& diagnostic : all) {
      message += "\n  " + diagnostic.path.string() + ": [" +
                 diagnostic.error.code + "] " + diagnostic.error.message;
    }
    return Error::make("repository.load", std::move(message));
  }
  return std::move(report.repository);
}

std::vector<std::string> LoadReport::quarantined_slugs() const {
  std::vector<std::string> slugs;
  slugs.reserve(quarantined.size());
  for (const auto& diagnostic : quarantined) slugs.push_back(diagnostic.slug);
  return slugs;
}

std::string LoadReport::render_report() const {
  std::string out = std::to_string(loaded()) + " of " +
                    std::to_string(total_files) + " activities loaded";
  if (!degraded()) {
    out += "; content is healthy\n";
    return out;
  }
  out += "; " + std::to_string(quarantined.size()) + " quarantined:\n";
  for (const auto& diagnostic : quarantined) {
    out += "  " + diagnostic.path.string() + "\n    [" +
           diagnostic.error.code + "] " + diagnostic.error.message + "\n";
  }
  return out;
}

namespace {

// Minimal JSON string escaping (core cannot use site::json_escape — the
// dependency points the other way).
std::string json_escape_min(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string LoadReport::render_json() const {
  std::string json = "{\"status\":\"";
  json += degraded() ? "degraded" : "ok";
  json += "\",\"total_files\":" + std::to_string(total_files);
  json += ",\"loaded\":" + std::to_string(loaded());
  json += ",\"quarantined\":[";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    const auto& diagnostic = quarantined[i];
    if (i > 0) json += ',';
    json += "{\"path\":\"" + json_escape_min(diagnostic.path.string());
    json += "\",\"slug\":\"" + json_escape_min(diagnostic.slug);
    json += "\",\"code\":\"" + json_escape_min(diagnostic.error.code);
    json += "\",\"message\":\"" + json_escape_min(diagnostic.error.message);
    json += "\"}";
  }
  json += "]}\n";
  return json;
}

const Activity* Repository::find(std::string_view slug) const {
  for (const auto& activity : activities_) {
    if (activity.slug == slug) return &activity;
  }
  return nullptr;
}

Status Repository::export_to(const std::filesystem::path& content_dir) const {
  for (const auto& activity : activities_) {
    auto status = fs::write_file(
        content_dir / "activities" / (activity.slug + ".md"),
        write_activity(activity));
    if (!status) return status;
  }
  return Status::ok();
}

}  // namespace pdcu::core
