#include "stream/coverage.h"

#include <algorithm>

#include "stream/snapshot_io.h"

namespace geovalid::stream {

void CoverageLedger::write(SnapshotWriter& w, Coverage coverage) {
  std::sort(coverage.begin(), coverage.end());
  w.u64(coverage.size());
  for (const auto& [user, covered] : coverage) {
    w.u32(user);
    w.u64(covered);
  }
}

Coverage CoverageLedger::read(SnapshotReader& r) {
  const std::uint64_t users = r.u64();
  Coverage coverage;
  for (std::uint64_t i = 0; i < users; ++i) {
    const trace::UserId user = r.u32();
    const std::uint64_t covered = r.u64();
    coverage.emplace_back(user, covered);
  }
  std::sort(coverage.begin(), coverage.end());
  for (std::size_t i = 0; i < coverage.size(); ++i) {
    if (coverage[i].second == 0 ||
        (i > 0 && coverage[i].first == coverage[i - 1].first)) {
      throw SnapshotError("snapshot: malformed serve coverage table");
    }
  }
  return coverage;
}

}  // namespace geovalid::stream
