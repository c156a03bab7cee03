// Checkpoint container: versioned, checksummed snapshots on disk.
//
// A checkpoint freezes the full streaming-engine state at an exact stream
// offset (the *cursor*): every user's detector window and matcher queues,
// plus the verdict totals accumulated so far. The container wraps the
// engine payload (StreamEngine::save_state()) in a magic + version header,
// the cursor, and a trailing CRC-32, so restore can tell "valid snapshot"
// from "torn write" from "newer format than this binary understands".
//
// On-disk layout (all integers little-endian):
//
//   u32  magic      "GVCP"
//   u32  version    kCheckpointVersion
//   u64  cursor     absolute stream offset the payload covers
//   u64  size       payload byte count
//   ...  payload    StreamEngine::save_state() bytes
//   u32  crc32      over everything above
//
// Files are named `checkpoint-<cursor, zero-padded>.gvck` and written
// durably (tmp, fsync, rename, directory fsync), so a crash mid-write
// leaves at worst a stray tmp file, never a half checkpoint under the real
// name; each write keeps only the newest two. restore_latest() walks
// candidates newest-first and skips corrupt ones — a torn latest
// checkpoint costs one interval of replay, not the run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace geovalid::stream {

inline constexpr std::uint32_t kCheckpointMagic = 0x50435647;  // "GVCP"
/// Format revision 2: engine payloads carry per-user verdict shares and
/// interarrival statistics (the serve query endpoints); v1 payloads are
/// refused with kVersionMismatch rather than restored without them.
inline constexpr std::uint32_t kCheckpointVersion = 2;

class CheckpointError : public std::runtime_error {
 public:
  enum class Kind {
    kCorrupt,          ///< bad magic, truncated, or checksum mismatch
    kVersionMismatch,  ///< well-formed but written by a different format rev
    kConfigMismatch,   ///< payload was produced under a different pipeline
                       ///< config (resuming would change verdicts silently)
  };

  CheckpointError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

struct Checkpoint {
  /// Absolute stream offset: events [0, cursor) are inside the payload;
  /// resume re-feeds from `cursor`.
  std::uint64_t cursor = 0;

  /// StreamEngine::save_state() bytes (opaque to the container).
  std::string payload;
};

/// Serializes the container around the payload (header + CRC).
[[nodiscard]] std::string encode_checkpoint(const Checkpoint& ck);

/// Validates and unwraps a container. Throws CheckpointError kCorrupt on
/// bad magic / truncation / checksum mismatch, kVersionMismatch when the
/// format revision differs.
[[nodiscard]] Checkpoint decode_checkpoint(std::string_view bytes);

/// Writes `bytes` to `path.tmp`, fsyncs it, renames it over `path` and
/// fsyncs the directory: after a crash `path` holds the old bytes or the
/// new, never a torn file. Throws std::runtime_error when a step fails.
void write_file_durably(const std::filesystem::path& path,
                        std::string_view bytes);

/// Durably writes `dir/checkpoint-<cursor>.gvck` (creating `dir`), then
/// deletes all but the newest two by cursor (never this one) and any stale
/// `checkpoint-*.gvck.tmp`. Returns the final path.
std::filesystem::path write_checkpoint(const std::filesystem::path& dir,
                                       const Checkpoint& ck);

/// Loads the newest valid checkpoint in `dir`. Corrupt files are skipped
/// (falling back to the next-newest). Returns nullopt when the directory
/// is missing or holds no checkpoint files; throws kVersionMismatch if the
/// newest well-formed file speaks a different format revision (refusing is
/// safer than silently resuming from an older snapshot), and kCorrupt when
/// candidates exist but every one fails validation.
[[nodiscard]] std::optional<Checkpoint> restore_latest(
    const std::filesystem::path& dir);

}  // namespace geovalid::stream
