#include "pdcu/server/page_cache.hpp"

#include <cstdio>

#include "pdcu/support/hash.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::server {

namespace strs = pdcu::strings;

std::uint64_t fnv1a_64(std::string_view bytes) {
  return hash::fnv1a_64(bytes);
}

std::string strong_etag(std::string_view bytes) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "\"%016llx\"",
                static_cast<unsigned long long>(fnv1a_64(bytes)));
  return buffer;
}

PageCache::PageCache(const site::Site& site, const PageCache* previous) {
  entries_.reserve(site.pages.size());
  for (const auto& page : site.pages) {
    const std::string_view content_type = site::content_type_for(page.path);
    // Compare before copying: an unchanged page costs one memcmp.
    if (!share(page.path, page.html, content_type, previous)) {
      put(page.path, page.html, std::string(content_type));
    }
  }
}

void PageCache::put(std::string site_path, std::string body,
                    std::string content_type, const PageCache* previous) {
  if (share(site_path, body, content_type, previous)) return;
  std::string etag = strong_etag(body);
  // Everything about these answers except the Connection header is known
  // now, so serialize it now; the per-request work for a cache hit is a
  // lookup plus one writev of [head, tail, body].
  const std::string shared_headers =
      "ETag: " + etag + "\r\nCache-Control: no-cache\r\n";
  std::string head_200 = "HTTP/1.1 200 OK\r\n" + shared_headers +
                         "Content-Type: " + content_type +
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n";
  std::string head_304 = "HTTP/1.1 304 Not Modified\r\n" + shared_headers;
  insert(std::move(site_path),
         std::make_shared<const CachedEntry>(CachedEntry{
             std::move(body), std::move(content_type), std::move(etag),
             std::move(head_200), std::move(head_304)}));
}

bool PageCache::alias(std::string site_path, std::string_view target) {
  const auto it = entries_.find(std::string(target));
  if (it == entries_.end()) return false;
  insert(std::move(site_path), it->second);
  return true;
}

bool PageCache::share(const std::string& site_path, std::string_view body,
                      std::string_view content_type,
                      const PageCache* previous) {
  if (previous == nullptr) return false;
  const auto it = previous->entries_.find(site_path);
  if (it == previous->entries_.end()) return false;
  const CachedEntry& entry = *it->second;
  if (entry.content_type != content_type || entry.body != body) return false;
  insert(site_path, it->second);
  return true;
}

void PageCache::insert(std::string site_path, EntryPtr entry) {
  total_bytes_ += entry->body.size();
  auto [it, inserted] = entries_.try_emplace(std::move(site_path));
  if (!inserted) total_bytes_ -= it->second->body.size();
  it->second = std::move(entry);
}

namespace {

/// normalize() into `key`, reusing its capacity.
void normalize_into(std::string_view request_path, std::string& key) {
  while (!request_path.empty() && request_path.front() == '/') {
    request_path.remove_prefix(1);
  }
  // Dot-dot segments could only matter if entries aliased the filesystem;
  // they never match a cached key, which keeps the contract obvious.
  if (strs::contains(request_path, "..")) {
    key.clear();
    return;
  }
  key.assign(request_path);
  if (key.empty() || key.back() == '/') key += "index.html";
}

}  // namespace

std::string PageCache::normalize(std::string_view request_path) {
  std::string key;
  normalize_into(request_path, key);
  return key;
}

const CachedEntry* PageCache::find(std::string_view request_path) const {
  // A per-thread key buffer: once it has grown to the longest path seen,
  // a lookup allocates nothing.
  thread_local std::string key;
  normalize_into(request_path, key);
  if (key.empty()) return nullptr;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // "/activities/x" (no trailing slash) serves the directory index.
    key += "/index.html";
    it = entries_.find(key);
  }
  return it == entries_.end() ? nullptr : it->second.get();
}

}  // namespace pdcu::server
