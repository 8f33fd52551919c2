// The serving cache: every page of a built pdcu::site::Site, keyed by
// normalized request path, with its content type and a strong ETag
// precomputed at construction so the per-request hot path is one hash
// lookup and zero hashing of page bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pdcu/site/site.hpp"

namespace pdcu::server {

/// 64-bit FNV-1a over `bytes`.
std::uint64_t fnv1a_64(std::string_view bytes);

/// A strong entity tag for `bytes`: a quoted 16-digit hex FNV-1a digest,
/// e.g. "\"af63dc4c8601ec8c\"".
std::string strong_etag(std::string_view bytes);

/// One cached response payload, with the wire-format header blocks for
/// both of its possible answers precomputed at construction. The blocks
/// deliberately stop short of the Connection header and the final CRLF:
/// the reactor's zero-copy path writev()s [head, connection-tail, body]
/// straight from here, so a cache hit serializes nothing per request.
struct CachedEntry {
  std::string body;
  std::string content_type;
  std::string etag;
  /// "HTTP/1.1 200 OK" + ETag/Cache-Control/Content-Type/Content-Length
  /// header lines; no Connection header, no blank line.
  std::string head_200;
  /// "HTTP/1.1 304 Not Modified" + ETag/Cache-Control; same framing rules.
  std::string head_304;
};

/// Immutable-after-construction map from site path to payload. Lookups are
/// const and therefore safe from any number of server threads. Entries are
/// immutable and shared: a cache built over the one it replaces holds every
/// unchanged entry by reference, so a body lives once however many router
/// snapshots (and in-flight zero-copy writes pinning them) still serve it.
class PageCache {
 public:
  PageCache() = default;

  /// Caches every page of a built site; content types come from
  /// site::content_type_for. `previous` is the cache this one replaces, if
  /// any: pages whose bytes are unchanged share its entries (see put()).
  explicit PageCache(const site::Site& site,
                     const PageCache* previous = nullptr);

  /// Adds (or replaces) one entry under a site-relative path such as
  /// "api/catalog.json". The ETag is computed here, unless `previous`
  /// holds an entry under the same path with the same content type and
  /// byte-equal body: that entry is shared instead, so an ETag stays a
  /// pure function of the bytes and is hashed once per distinct body.
  void put(std::string site_path, std::string body, std::string content_type,
           const PageCache* previous = nullptr);

  /// Serves the entry cached under `target` at `site_path` as well (one
  /// shared entry, no copy). False, and nothing added, when `target` is
  /// not cached.
  bool alias(std::string site_path, std::string_view target);

  /// Resolves a request path ("/", "/activities/x/", "/activities/x") to a
  /// cached entry; nullptr when nothing matches.
  const CachedEntry* find(std::string_view request_path) const;

  /// Maps a request path to the site-relative key it would match:
  /// leading '/' stripped, "" and trailing-'/' forms get "index.html"
  /// appended, dot-dot segments collapse to an unmatchable key.
  static std::string normalize(std::string_view request_path);

  std::size_t size() const { return entries_.size(); }
  /// Body bytes summed over paths (an entry served at two paths counts
  /// twice).
  std::size_t total_bytes() const { return total_bytes_; }

 private:
  using EntryPtr = std::shared_ptr<const CachedEntry>;

  /// Shares `previous`'s entry at `site_path` when it holds exactly these
  /// bytes under this content type; false when there is none to share.
  bool share(const std::string& site_path, std::string_view body,
             std::string_view content_type, const PageCache* previous);
  void insert(std::string site_path, EntryPtr entry);

  std::unordered_map<std::string, EntryPtr> entries_;
  std::size_t total_bytes_ = 0;
};

}  // namespace pdcu::server
