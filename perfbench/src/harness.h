// The benchmark's own arithmetic: percentiles and the tail rule, the
// open-loop schedule (due times, lag, lateness), metric collection from
// the process registry, and the JSON lines a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to` (negative when `to` is earlier).
[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);
[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);

/// Nearest-rank percentile, p in [0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

/// A latency tail: the highest percentile of a fixed ladder (50, 90, 95,
/// 99, 99.5, 99.9, 99.99) that leaves at least `min_beyond` samples above
/// its nearest rank. With fewer than 2 * min_beyond samples no ladder step
/// qualifies and the tail is the maximum, reported as percentile 100.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> samples,
                        std::size_t min_beyond = 10);

/// Percentile of a log2-bucketed obs histogram, interpolated linearly
/// inside the bucket that holds the rank. 0 for an empty histogram.
[[nodiscard]] double histogram_percentile(
    const geovalid::obs::Histogram::Snapshot& h, double p);

/// Open-loop schedule: event k (0-based, in merged order) is due at
/// start + k / rate, whether or not the system kept up.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, double rate_per_s);

  [[nodiscard]] Clock::time_point due(std::uint64_t k) const;
  /// Events whose due time is at or before `now`.
  [[nodiscard]] std::uint64_t due_count(Clock::time_point now) const;
  /// lag(t) = t - due(P(t)): how far the first unprocessed event is
  /// behind its due time, in ms; 0 once all `total` events are processed
  /// or while processing is ahead of the schedule.
  [[nodiscard]] double lag_ms(std::uint64_t processed, std::uint64_t total,
                              Clock::time_point now) const;
  /// How late an operation due as event k started at `started` (ms, 0
  /// when early).
  [[nodiscard]] double late_ms(std::uint64_t k,
                               Clock::time_point started) const;

  [[nodiscard]] Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
  double rate_;
};

/// Sums over every instance (all label sets) of a registry family.
[[nodiscard]] std::uint64_t counter_total(std::string_view name);
[[nodiscard]] geovalid::obs::Histogram::Snapshot histogram_total(
    std::string_view name);
/// max / min over the instances of a counter family; 1 with fewer than
/// two instances or nothing counted, and an empty instance counts as 1.
[[nodiscard]] double counter_skew(std::string_view name);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal that reads back as exactly `v` (all its digits).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

/// The run's last line: exactly correct, attempted, failed and metrics.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// The line before it: the run's tags (core count, build type, sources,
/// seed, sizes, rates) and every named workload metric, as
/// {"report":{"workload":...,"trace":0|1,"tags":{...},"detail":{...}}}.
/// Tag values are pre-rendered JSON.
[[nodiscard]] std::string report_line(
    std::string_view workload, bool trace,
    const std::vector<std::pair<std::string, std::string>>& tags,
    const std::vector<Metric>& detail);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// CPU time (user + system, all threads) this process has used, seconds.
[[nodiscard]] double process_cpu_s();

}  // namespace perfbench
