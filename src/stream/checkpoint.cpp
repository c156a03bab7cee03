#include "stream/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "stream/snapshot_io.h"

namespace geovalid::stream {
namespace {

constexpr std::string_view kFilePrefix = "checkpoint-";
constexpr std::string_view kFileSuffix = ".gvck";
/// Kept after each write: the newest, and the fallback for a torn newest.
constexpr std::size_t kRetained = 2;

[[noreturn]] void corrupt(const std::string& what) {
  throw CheckpointError(CheckpointError::Kind::kCorrupt,
                        "checkpoint: " + what);
}

/// The checkpoint files in `dir`, oldest first: the zero-padded cursor
/// makes lexicographic order == cursor order. A missing `dir` holds none;
/// one that exists but cannot be listed throws
/// std::filesystem::filesystem_error. With `stale`, the `.tmp` files a
/// crash left go there.
std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& dir,
    std::vector<std::filesystem::path>* stale = nullptr) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || !name.starts_with(kFilePrefix)) continue;
    if (name.ends_with(kFileSuffix)) out.push_back(entry.path());
    if (stale != nullptr && name.ends_with(".gvck.tmp")) {
      stale->push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// fsync()s and closes `fd`; false when either fails.
bool sync_and_close(int fd) {
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) corrupt("cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace

std::string encode_checkpoint(const Checkpoint& ck) {
  SnapshotWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(ck.cursor);
  w.u64(ck.payload.size());
  std::string out = w.take();
  out += ck.payload;
  SnapshotWriter trailer;
  trailer.u32(crc32(out));
  out += trailer.bytes();
  return out;
}

Checkpoint decode_checkpoint(std::string_view bytes) {
  // Header (magic..size) is 24 bytes, trailer 4.
  if (bytes.size() < 28) corrupt("truncated header");
  SnapshotReader header(bytes.substr(0, 24));
  if (header.u32() != kCheckpointMagic) corrupt("bad magic");
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion) {
    throw CheckpointError(
        CheckpointError::Kind::kVersionMismatch,
        "checkpoint: format version " + std::to_string(version) +
            ", this binary writes version " +
            std::to_string(kCheckpointVersion));
  }
  Checkpoint ck;
  ck.cursor = header.u64();
  const std::uint64_t size = header.u64();
  if (bytes.size() != 24 + size + 4) corrupt("truncated payload");
  SnapshotReader trailer(bytes.substr(24 + size, 4));
  if (trailer.u32() != crc32(bytes.substr(0, 24 + size))) {
    corrupt("checksum mismatch");
  }
  ck.payload.assign(bytes.substr(24, size));
  return ck;
}

void write_file_durably(const std::filesystem::path& path,
                        std::string_view bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot write " + tmp.string());
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  if (!sync_and_close(fd) || off < bytes.size()) {
    throw std::runtime_error("short write to " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || !sync_and_close(dir_fd)) {
    throw std::runtime_error("cannot sync directory " + dir.string());
  }
}

std::filesystem::path write_checkpoint(const std::filesystem::path& dir,
                                       const Checkpoint& ck) {
  // Registry lookups are fine here: checkpointing happens once per
  // interval, not per event.
  obs::StageTimer timer(&obs::registry().histogram(
      "stream_checkpoint_write_ns",
      "Wall time to encode and atomically write one checkpoint "
      "(nanoseconds)"));
  std::filesystem::create_directories(dir);
  char name[48];
  std::snprintf(name, sizeof(name), "checkpoint-%020llu.gvck",
                static_cast<unsigned long long>(ck.cursor));
  const std::filesystem::path final_path = dir / name;
  write_file_durably(final_path, encode_checkpoint(ck));
  // Retention, best effort: the checkpoint is already durable, and what
  // will not go now goes after the next write.
  try {
    std::vector<std::filesystem::path> doomed;
    const auto kept = list_checkpoints(dir, &doomed);
    for (std::size_t i = 0; i + kRetained < kept.size(); ++i) {
      if (kept[i] != final_path) doomed.push_back(kept[i]);
    }
    std::error_code ec;
    for (const auto& path : doomed) std::filesystem::remove(path, ec);
  } catch (const std::filesystem::filesystem_error&) {
  }
  obs::registry()
      .counter("stream_checkpoints_total",
               "Checkpoints successfully written to disk")
      .inc();
  obs::registry()
      .histogram("stream_checkpoint_bytes",
                 "Encoded size of each written checkpoint (bytes)")
      .observe(24 + ck.payload.size() + 4);
  return final_path;
}

std::optional<Checkpoint> restore_latest(const std::filesystem::path& dir) {
  const std::vector<std::filesystem::path> candidates = list_checkpoints(dir);
  if (candidates.empty()) return std::nullopt;
  std::optional<CheckpointError> first_error;
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    try {
      Checkpoint ck = decode_checkpoint(read_file(*it));
      obs::registry()
          .counter("stream_checkpoint_restores_total",
                   "Successful checkpoint restores (one per resumed run)")
          .inc();
      return ck;
    } catch (const CheckpointError& e) {
      if (e.kind() == CheckpointError::Kind::kVersionMismatch) throw;
      if (!first_error) first_error = e;
      // Corrupt (torn write, bit rot): fall back to the next-newest.
    } catch (const SnapshotError& e) {
      if (!first_error) {
        first_error = CheckpointError(CheckpointError::Kind::kCorrupt,
                                      std::string("checkpoint: ") + e.what());
      }
    }
  }
  throw *first_error;
}

}  // namespace geovalid::stream
