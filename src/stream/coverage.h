// Per-user exactly-once accounting, one rule for the engine's shards and
// the cluster router.
//
// Each user has one CoverageEntry {arrived, prefix}: `arrived` counts the
// user's records seen since the current epoch began, `prefix` is how many
// of the user's records the engine behind already holds. One rule serves
// both replay protocols — clients re-send their traces from the beginning
// and a record is skipped while arrived ≤ prefix:
//   - serve resume: each StreamEngine shard keeps the entry of every user
//     it owns beside that user's pipeline, in its one per-user map, and
//     counts every record in its arrival order, before any other check; a
//     checkpoint records max(prefix, arrived) per user (CoverageLedger's
//     codec) and a restart restores that as each user's prefix;
//   - router epochs: a backend replacement or restart makes
//     max(prefix, arrived) every user's new prefix (0 for the replaced
//     backend's users, whose own checkpoint-resume skip takes over) and
//     restarts arrivals.
// At-least-once delivery in, exactly-once application out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/gps.h"

namespace geovalid::stream {

class SnapshotReader;
class SnapshotWriter;

/// (user, covered records) pairs: the checkpoint's coverage table.
using Coverage = std::vector<std::pair<trace::UserId, std::uint64_t>>;

/// One user's {arrived, prefix}.
struct CoverageEntry {
  std::uint64_t arrived = 0;
  std::uint64_t prefix = 0;

  /// Counts one arriving record; true when it falls inside the covered
  /// prefix and must be skipped.
  bool arrive() { return ++arrived <= prefix; }

  /// max(prefix, arrived): what a checkpoint records and an epoch folds.
  [[nodiscard]] std::uint64_t covered() const {
    return std::max(prefix, arrived);
  }

  /// Starts a new epoch: the prefix becomes covered(), or 0 when `reset`
  /// (the user's backend was replaced), and arrivals restart.
  void begin_epoch(bool reset) {
    prefix = reset ? 0 : covered();
    arrived = 0;
  }
};

/// The serve checkpoint's coverage table.
struct CoverageLedger {
  /// u64 count, then (u32 id, u64 covered) sorted by id.
  static void write(SnapshotWriter& w, Coverage coverage);
  /// Throws SnapshotError on a zero count or a duplicate id.
  [[nodiscard]] static Coverage read(SnapshotReader& r);
};

}  // namespace geovalid::stream
