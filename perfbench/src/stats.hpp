// Exact order statistics over every recorded sample. The benchmark keeps
// all samples (a run records at most a few hundred thousand) instead of a
// log-bucketed histogram, so a reported percentile is always one of the
// observed values and can never exceed the observed maximum.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the samples at or below it. `q` in (0, 1];
/// 0 for an empty sample.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
template <typename T>
double percentile(const std::vector<T>& samples, double q) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return nearest_rank(sorted, q);
}

/// Lower median of a small set of repeated measurements.
inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Splits samples into `windows` equal time windows over [0, span_s) by
/// their time stamp `at_s` (samples outside the span are dropped).
inline std::vector<std::vector<double>> by_window(
    const std::vector<float>& values, const std::vector<float>& at_s,
    double span_s, int windows) {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < values.size() && i < at_s.size(); ++i) {
    if (at_s[i] < 0.0 || at_s[i] >= span_s) continue;
    const auto w = static_cast<std::size_t>(at_s[i] / span_s * windows);
    out[std::min(w, out.size() - 1)].push_back(values[i]);
  }
  return out;
}

/// The indices of the ceil(n/2) windows that saw the least steal time
/// (ties keep time order). Figures taken over these windows describe the
/// program, not a co-tenant that took the host's CPUs for a while.
inline std::vector<std::size_t> quieter_half(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&steal](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  order.resize((order.size() + 1) / 2);
  return order;
}

/// The median, over the windows in `keep`, of each window's exact
/// percentile `q`.
inline double windowed_percentile(const std::vector<float>& values,
                                  const std::vector<float>& at_s,
                                  double span_s, int windows, double q,
                                  const std::vector<std::size_t>& keep) {
  const auto split = by_window(values, at_s, span_s, windows);
  std::vector<double> per_window;
  for (const std::size_t w : keep) {
    if (!split[w].empty()) per_window.push_back(percentile(split[w], q));
  }
  return median(per_window);
}

/// The median, over the windows in `keep`, of events per second.
inline double windowed_rate(const std::vector<float>& at_s, double span_s,
                            int windows, const std::vector<std::size_t>& keep) {
  const auto split = by_window(at_s, at_s, span_s, windows);
  std::vector<double> per_window;
  for (const std::size_t w : keep) {
    per_window.push_back(static_cast<double>(split[w].size()) * windows /
                         span_s);
  }
  return median(per_window);
}

}  // namespace perfbench
