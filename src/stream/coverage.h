// Per-user exactly-once accounting, one copy for the engine's shards and
// the cluster router.
//
// Each user has one entry {arrived, prefix}: `arrived` counts the user's
// records seen since the current epoch began, `prefix` is how many of the
// user's records the engine behind already holds. One rule serves both
// replay protocols — clients re-send their traces from the beginning and a
// record is skipped while arrived ≤ prefix:
//   - serve resume: each StreamEngine shard keeps the ledger of the users
//     it owns and counts every record in its arrival order, before any
//     other check; a checkpoint records max(prefix, arrived) per user and
//     a restart restores that as each user's prefix;
//   - router epochs: a backend replacement or restart makes
//     max(prefix, arrived) every user's new prefix (0 for the replaced
//     backend's users, whose own checkpoint-resume skip takes over) and
//     restarts arrivals.
// At-least-once delivery in, exactly-once application out.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/gps.h"

namespace geovalid::stream {

class SnapshotReader;
class SnapshotWriter;

/// (user, covered records) pairs: a ledger's snapshot form.
using Coverage = std::vector<std::pair<trace::UserId, std::uint64_t>>;

class CoverageLedger {
 public:
  /// Counts one arriving record of `user`; true when it falls inside the
  /// covered prefix and must be skipped.
  bool arrive(trace::UserId user) {
    Entry& e = users_[user];
    return ++e.arrived <= e.prefix;
  }

  /// Makes `prefix` the user's covered prefix (checkpoint restore).
  void set_prefix(trace::UserId user, std::uint64_t prefix) {
    users_[user].prefix = prefix;
  }

  /// Appends (user, max(prefix, arrived)) for every user with a non-zero
  /// value, unsorted: what a checkpoint records.
  void collect(Coverage& out) const;

  /// Starts a new epoch: every prefix becomes max(prefix, arrived) and
  /// arrivals restart; users `reset` selects then drop to prefix 0.
  /// Returns how many users were reset (entries are never erased, so a
  /// user counts on every reset of its owner).
  std::uint64_t begin_epoch(
      const std::function<bool(trace::UserId)>& reset);

  /// The snapshot codec: u64 count, then (u32 id, u64 covered) sorted by
  /// id — the serve checkpoint's coverage layout.
  static void write(SnapshotWriter& w, Coverage coverage);
  /// Throws SnapshotError on a zero count or a duplicate id.
  [[nodiscard]] static Coverage read(SnapshotReader& r);

 private:
  struct Entry {
    std::uint64_t arrived = 0;
    std::uint64_t prefix = 0;
  };
  std::unordered_map<trace::UserId, Entry> users_;
};

}  // namespace geovalid::stream
