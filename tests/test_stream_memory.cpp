// Per-user memory of the streaming engine: what one more distinct user id
// costs a shard, measured as live heap bytes. This binary replaces the
// global operator new/delete with counting versions (malloc_usable_size
// of every block, so allocator rounding is included); its own tests are
// the only code that reads the counter.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "stream/engine.h"
#include "stream/quarantine.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace geovalid::stream {
namespace {

constexpr trace::UserId kUsers = 20000;

/// Live heap bytes per user that one record of each of kUsers distinct
/// users leaves in a drained 1-shard engine.
double bytes_per_user(const geo::LatLon& at, Quarantine* quarantine) {
  StreamEngineConfig config;
  config.metrics = false;
  config.quarantine = quarantine;
  StreamEngine engine(config);
  engine.drain();  // the worker's first wait, before the baseline
  const std::int64_t before = g_live_bytes.load();
  for (trace::UserId u = 1; u <= kUsers; ++u) {
    engine.push(Event::gps_sample(u, trace::GpsPoint{60, at, true, 0, 0.0}));
  }
  engine.drain();
  const std::int64_t after = g_live_bytes.load();
  return static_cast<double>(after - before) / kUsers;
}

TEST(StreamMemory, OneGpsRecordUserCostsAtMost512Bytes) {
  const double per_user = bytes_per_user({34.4208, -119.6982}, nullptr);
  std::printf("one-GPS-record user: %.1f bytes\n", per_user);
  EXPECT_LE(per_user, 512.0);
}

TEST(StreamMemory, QuarantinedOnlyUserCostsAtMost128Bytes) {
  Quarantine quarantine(QuarantineConfig{{}, /*metrics=*/false});
  const double per_user = bytes_per_user({95.0, 0.0}, &quarantine);
  std::printf("quarantined-only user: %.1f bytes\n", per_user);
  EXPECT_EQ(quarantine.total(), kUsers);
  EXPECT_LE(per_user, 128.0);
}

}  // namespace
}  // namespace geovalid::stream
