// Record-level graceful degradation for the streaming engine.
//
// A production feed carries corrupt rows: NaN coordinates from broken GPS
// firmware, timestamps from the wrong epoch, ids that never enrolled. The
// engine used to have exactly two behaviours for such records — propagate
// garbage into the geodesic math, or abort the whole run from finish().
// With a Quarantine attached, malformed or implausible events are instead
// routed to a dead-letter file with a machine-readable reason code, counted
// in `stream_quarantined_total{reason=...}`, and the engine keeps serving
// the healthy records.
//
// Dead-letter semantics are at-least-once: after a crash + `--resume`, the
// events between the restored checkpoint cursor and the crash point are
// re-fed and re-quarantined, so the file may repeat records (dedupe on
// (user, t, reason) downstream if exact-once matters). The per-run counters
// are exact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "geo/latlon.h"
#include "stream/event.h"
#include "trace/time.h"

namespace geovalid::obs {
class Counter;
}  // namespace geovalid::obs

namespace geovalid::stream {

/// Why a record was refused. The enum order is the dead-letter file's and
/// the metrics label's stable vocabulary — append, never reorder.
enum class QuarantineReason : std::uint8_t {
  /// NaN / infinite / out-of-range latitude or longitude.
  kBadCoordinates = 0,
  /// Timestamp negative or beyond trace::kMaxEventTime (would overflow the
  /// matcher's `t + beta` window arithmetic).
  kTimestampOverflow,
  /// Per-user timestamp regression within the engine's reorder window:
  /// slightly late, likely recoverable by buffering upstream.
  kLateTimestamp,
  /// Per-user timestamp regression beyond the reorder window: stale data.
  kStaleTimestamp,
  /// User id not in the configured enrollment set.
  kUnknownUser,
  /// Wire-protocol line that never parsed into an Event: bad verb, wrong
  /// field count, junk numerics, or a line over the serve size cap. Only
  /// produced via record_raw() — there is no Event to attach.
  kMalformedLine,
  /// Binary wire frame that never decoded into records: bad magic, unknown
  /// version, header over the caps, CRC mismatch, undecodable payload, or
  /// a frame truncated by a disconnect. Only produced via record_raw(),
  /// with a hex-prefix detail instead of raw bytes (serve/wire.h).
  kMalformedFrame,
};

inline constexpr std::size_t kQuarantineReasonCount = 7;

/// Stable reason-code string (the metrics label and dead-letter column).
[[nodiscard]] std::string_view to_string(QuarantineReason reason);

struct QuarantineConfig {
  /// Dead-letter CSV destination; empty quarantines count-only (no file).
  /// The file is opened in append mode so a resumed run keeps extending it.
  std::filesystem::path dead_letter_path;

  /// Register and bump `stream_quarantined_total{reason=...}` counters.
  bool metrics = true;
};

/// Thread-safe dead-letter sink. record() is called from the engine's
/// shard workers (payload and timestamp-order checks, both in the shard
/// that owns the user) and record_raw() from serve's reactors and the
/// router (wire garbage), so counts are atomics and file appends take a
/// mutex — quarantine is the cold path, its cost is irrelevant.
class Quarantine {
 public:
  explicit Quarantine(QuarantineConfig config = {});

  /// Appends one dead-letter record and bumps the reason's counters.
  void record(const Event& e, QuarantineReason reason);

  /// Dead-letters a raw input line that never became an Event (the serve
  /// wire path: unparseable, oversized, or truncated by a disconnect). The
  /// line lands sanitized in the `detail` column — commas and control
  /// bytes become spaces, long lines are clipped — so the CSV stays a CSV.
  void record_raw(std::string_view raw_line, QuarantineReason reason);

  [[nodiscard]] std::uint64_t count(QuarantineReason reason) const {
    return counts_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const;

  /// Flushes the dead-letter stream (called by the engine on drain, so a
  /// checkpoint never outruns its dead letters).
  void flush();

 private:
  QuarantineConfig config_;
  std::array<std::atomic<std::uint64_t>, kQuarantineReasonCount> counts_{};
  std::array<obs::Counter*, kQuarantineReasonCount> counters_{};
  std::mutex io_mu_;
  std::ofstream out_;
};

/// Payload validation: coordinates, timestamp bounds, user enrollment.
/// Returns the reason to quarantine `e`, or nullopt when the record is
/// plausible. The owning shard runs it once the record's arrival is
/// counted, then checks timestamp *ordering* (it needs per-user history).
[[nodiscard]] inline std::optional<QuarantineReason> validate_event(
    const Event& e, const std::unordered_set<trace::UserId>* known_users) {
  if (!geo::is_valid(e.position())) return QuarantineReason::kBadCoordinates;
  const trace::TimeSec t = e.time();
  if (t < 0 || t > trace::kMaxEventTime) {
    return QuarantineReason::kTimestampOverflow;
  }
  if (known_users != nullptr && known_users->count(e.user) == 0) {
    return QuarantineReason::kUnknownUser;
  }
  return std::nullopt;
}

}  // namespace geovalid::stream
