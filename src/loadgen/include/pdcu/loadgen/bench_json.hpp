// The versioned BENCH_*.json schema every perf-trajectory file in the
// repo speaks: one flat-ish JSON object per benchmark run, opened by
//
//   {"bench_schema": 1, "bench": "<name>", "source": "<binary>", ...}
//
// with at most one level of nesting ("latency_us": {"p50": ...}). The
// writer emits keys in insertion order so committed baselines diff
// cleanly; the parser flattens nested keys with dots ("latency_us.p50"),
// which is what the bench_gate comparator keys its tolerance rules on.
// Both ends live here so the load generator, the bench binaries, and the
// gate can never drift apart on the format, together with the one
// percentile implementation every reported latency goes through.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

/// Bumped when a key is renamed or changes meaning; the gate refuses to
/// compare documents across schema versions.
inline constexpr int kBenchSchemaVersion = 1;

/// Exact empirical order statistics for bench-size sample sets. The
/// obs::Histogram log buckets exist for lock-free capture on serving hot
/// paths and /metrics; a bench or load run records at most rate x
/// duration values, so it keeps every one and its quantiles carry no
/// bucket-interpolation error (a 1.3 ms p99 never reports as 2048 us, and
/// no quantile exceeds the max).
struct Samples {
  std::vector<std::uint64_t> values;

  void record(std::uint64_t v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }

  double mean() const {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const std::uint64_t v : values) sum += static_cast<double>(v);
    return sum / static_cast<double>(values.size());
  }

  std::uint64_t max() const {
    return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
  }

  /// Nearest-rank quantile (q in [0, 1]) over a sorted copy; 0 when empty.
  /// Always one of the recorded values.
  std::uint64_t quantile(double q) const {
    if (values.empty()) return 0;
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(pos + 0.5)];
  }
};

/// Ordered single-object JSON writer with one level of nesting. Keys are
/// emitted in call order; numbers are rendered with enough precision to
/// round-trip through the parser.
class BenchWriter {
 public:
  /// Opens the document and writes the three schema fields.
  BenchWriter(std::string_view bench, std::string_view source);

  void number(std::string_view key, double value);
  void integer(std::string_view key, std::uint64_t value);
  void text(std::string_view key, std::string_view value);

  /// Opens a nested object; subsequent fields land inside until close().
  void open(std::string_view key);
  void close();

  /// Closes any open nesting and returns the document plus a trailing
  /// newline (BENCH files are one JSON object per file, newline-terminated).
  std::string finish();

 private:
  void key(std::string_view name);

  std::string out_;
  bool first_in_scope_ = true;
  int depth_ = 0;
  bool finished_ = false;
};

/// A parsed BENCH document: leaf values keyed by their dotted path.
struct BenchDoc {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;

  bool has_number(const std::string& dotted_key) const {
    return numbers.count(dotted_key) != 0;
  }
  /// The value at `dotted_key`, or `fallback` when absent.
  double number(const std::string& dotted_key, double fallback = 0.0) const;
  std::string text(const std::string& dotted_key) const;

  int schema_version() const {
    return static_cast<int>(number("bench_schema", 0.0));
  }
  std::string bench_name() const { return text("bench"); }
};

/// Parses one BENCH-schema JSON object (objects, strings, numbers;
/// booleans and nulls are skipped, arrays are rejected — the schema has
/// none). Nested keys flatten with dots. Leading/trailing whitespace is
/// fine; anything else trailing the object is an error.
Expected<BenchDoc> parse_bench_json(std::string_view text);

}  // namespace pdcu::loadgen
