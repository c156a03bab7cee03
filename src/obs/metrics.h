// Observability primitives for the validation pipelines.
//
// The paper's pipeline is a chain of measurement stages, and a measured
// pipeline is only trustworthy when its internal rates and drop counts are
// inspectable — so every subsystem (batch core, streaming engine, trace
// ingest, application studies) reports into one process-wide Registry.
//
// Design constraints, in order:
//   1. Hot-path cost: a Counter::inc is one relaxed atomic add; a
//      Histogram::observe is two. No locks, no allocation, no syscalls.
//      The registry mutex is taken only at metric *registration* — callers
//      cache the returned reference (stable for the process lifetime).
//   2. Determinism: snapshots iterate a sorted map, so two dumps of an
//      idle registry are byte-identical (tested).
//   3. Portability: a snapshot can be written as JSON (for tooling and the
//      `--metrics-json` CLI flag) or Prometheus-style text exposition (see
//      export.h), so the same names transfer to a real serving stack.
//
// Naming convention (enforced only by review + the docs-diff test):
// `<subsystem>_<what>_<unit>`; counters end in `_total`, durations are
// integer nanoseconds and end in `_ns`. Every metric emitted at runtime
// must be documented in docs/OBSERVABILITY.md — a test diffs the registry
// against the doc.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geovalid::obs {

/// Monotonically increasing event count. Relaxed atomics: totals are exact
/// once the writing threads are quiescent (joined or finished), which is
/// when snapshots are read.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Advances `counter` to a running `total` kept elsewhere; `seen` is the
/// caller's watermark, the part of `total` the counter already holds.
inline void sync_counter(Counter& counter, std::uint64_t total,
                         std::uint64_t& seen) {
  if (total > seen) counter.inc(total - seen);
  seen = total;
}

/// Instantaneous signed level (queue depth, active workers).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed (base-2) histogram over non-negative integers. Bucket i
/// counts values whose bit width is i, i.e. [2^(i-1), 2^i - 1], with bucket
/// 0 holding exact zeros — so the full uint64 range is covered by 65
/// buckets and observe() is a bit-scan plus two relaxed adds. Factor-of-two
/// resolution is enough to steer on (latency regressions of interest are
/// >2x or show up in the sum/count mean).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static constexpr std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive upper bound of bucket `i` (the `le` of the exposition).
  static constexpr std::uint64_t bucket_bound(std::size_t i) {
    return i == 0 ? 0
           : i >= 64
               ? ~std::uint64_t{0}
               : (std::uint64_t{1} << i) - 1;
  }

  void observe(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    s.sum = sum_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    return s;
  }
  [[nodiscard]] std::uint64_t count() const { return snapshot().count; }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII scope tracer: records the scope's wall time (integer nanoseconds)
/// into a Histogram on destruction. A null histogram makes the timer a
/// no-op, so call sites can gate instrumentation with a single pointer.
class StageTimer {
 public:
  explicit StageTimer(Histogram* h)
      : histogram_(h),
        start_(h ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{}) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { stop(); }

  /// Records now, instead of at scope exit. Idempotent.
  void stop() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    histogram_->observe(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    histogram_ = nullptr;
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Label set of one metric instance, e.g. {{"shard", "3"}}. Keys are
/// canonicalized (sorted) at registration so the same set always names the
/// same instance.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricType t);

struct MetricInfo {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
};

/// One sampled metric instance, as returned by Registry::samples().
struct Sample {
  MetricInfo info;
  std::uint64_t counter_value = 0;   ///< valid for kCounter
  std::int64_t gauge_value = 0;      ///< valid for kGauge
  Histogram::Snapshot histogram;     ///< valid for kHistogram
};

/// Process-wide metric registry. Thread-safe; registration takes a mutex,
/// metric updates through the returned references are lock-free.
///
/// Registering the same (name, labels) pair again returns the existing
/// instance (the first help string wins); registering a name under two
/// different metric types throws std::logic_error.
class Registry {
 public:
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       Labels labels = {});

  /// All metric instances, sorted by (name, labels) — deterministic.
  [[nodiscard]] std::vector<Sample> samples() const;

  /// Distinct metric family names, sorted (for the docs-diff test).
  [[nodiscard]] std::vector<std::string> metric_names() const;

  /// Zeroes every metric's value, keeping the registrations (cached
  /// references stay valid). For tests that assert exact totals.
  void reset_values();

 private:
  struct Entry {
    MetricInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, Labels>;

  Entry& find_or_create(std::string_view name, std::string_view help,
                        Labels labels, MetricType type);

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::map<std::string, MetricType, std::less<>> families_;
};

/// The process-wide registry every subsystem reports into.
[[nodiscard]] Registry& registry();

}  // namespace geovalid::obs
