#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

namespace {

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// p * n / 100 that is integral in exact arithmetic from rounding up.
std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(r < 1.0 ? 1 : static_cast<std::size_t>(r),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(p, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

Tail tail(std::vector<double> samples, std::size_t min_beyond) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  static constexpr std::array<double, 7> kLadder = {99.99, 99.9, 99.5, 99.0,
                                                    95.0,  90.0, 50.0};
  for (const double p : kLadder) {
    const std::size_t rank = nearest_rank(p, n);
    if (n - rank >= min_beyond) return {p, samples[rank - 1], n};
  }
  return {100.0, samples.back(), n};
}

double histogram_percentile(const geovalid::obs::Histogram::Snapshot& h,
                            double p) {
  using geovalid::obs::Histogram;
  if (h.count == 0) return 0.0;
  const std::size_t rank = nearest_rank(p, h.count);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (below + in_bucket >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = static_cast<double>(Histogram::bucket_bound(i));
      const double frac = static_cast<double>(rank - below) /
                          static_cast<double>(in_bucket);
      return lo + frac * (hi - lo);
    }
    below += in_bucket;
  }
  return static_cast<double>(Histogram::bucket_bound(Histogram::kBuckets - 1));
}

OpenLoop::OpenLoop(Clock::time_point start, double rate_per_s)
    : start_(start), rate_(rate_per_s) {}

Clock::time_point OpenLoop::due(std::uint64_t k) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(k) /
                                                    rate_));
}

std::uint64_t OpenLoop::due_count(Clock::time_point now) const {
  if (now < start_) return 0;
  return static_cast<std::uint64_t>(
             std::floor(seconds_between(start_, now) * rate_)) +
         1;
}

double OpenLoop::lag_ms(std::uint64_t processed, std::uint64_t total,
                        Clock::time_point now) const {
  if (processed >= total) return 0.0;
  return std::max(0.0, ms_between(due(processed), now));
}

double OpenLoop::late_ms(std::uint64_t k, Clock::time_point started) const {
  return std::max(0.0, ms_between(due(k), started));
}

namespace {

template <typename Fn>
void for_each_sample(std::string_view name, Fn&& fn) {
  for (const geovalid::obs::Sample& s : geovalid::obs::registry().samples()) {
    if (s.info.name == name) fn(s);
  }
}

}  // namespace

std::uint64_t counter_total(std::string_view name) {
  std::uint64_t total = 0;
  for_each_sample(name, [&](const auto& s) { total += s.counter_value; });
  return total;
}

geovalid::obs::Histogram::Snapshot histogram_total(std::string_view name) {
  geovalid::obs::Histogram::Snapshot total;
  for_each_sample(name, [&](const auto& s) {
    total.count += s.histogram.count;
    total.sum += s.histogram.sum;
    for (std::size_t i = 0; i < total.buckets.size(); ++i) {
      total.buckets[i] += s.histogram.buckets[i];
    }
  });
  return total;
}

double counter_skew(std::string_view name) {
  std::vector<std::uint64_t> v;
  for_each_sample(name, [&](const auto& s) { v.push_back(s.counter_value); });
  if (v.size() < 2) return 1.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  if (*hi == 0) return 1.0;
  return static_cast<double>(*hi) /
         static_cast<double>(std::max<std::uint64_t>(*lo, 1));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

namespace {

/// {"name":{"value":v,"unit":"u"},...}
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ',';
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) +
         ",\"metrics\":" + metrics_json(metrics) + "}";
}

std::string report_line(
    std::string_view workload, bool trace,
    const std::vector<std::pair<std::string, std::string>>& tags,
    const std::vector<Metric>& detail) {
  std::string out = "{\"report\":{\"workload\":" + json_string(workload) +
                    ",\"trace\":" + (trace ? "1" : "0") + ",\"tags\":{";
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(tags[i].first) + ":" + tags[i].second;
  }
  return out + "},\"detail\":" + metrics_json(detail) + "}}";
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace perfbench
