// Consistent-hash ring: the cluster layer's one routing decision.
//
// `geovalid route` shards ingest across N independent `geovalid serve`
// backends by user id. The paper's validation pipeline is per-user
// separable (the property every equivalence test in this repo leans on),
// so the only cluster-wide invariant the router must maintain is "all of
// one user's records reach one backend, in order" — exactly what a hash
// ring gives us, with two extra properties a plain `user % N` lacks:
//
//   - Stability under membership change: adding or removing one backend
//     moves only ~1/N of the user population; `user % N` reshuffles
//     almost everything, which would force a full-cluster drain for any
//     scale-out.
//   - Stability under configuration reordering: ring points are hashed
//     from backend *names*, never list positions, so the same `--backend`
//     flags in any order produce the same assignment.
//
// Hashing is deliberately hand-rolled (FNV-1a + the splitmix64 finalizer)
// instead of std::hash: assignments must be identical across platforms,
// standard libraries and builds, because a router restart with the same
// backend names must route users to the backends that hold their state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/user.h"

namespace geovalid::cluster {

/// splitmix64 finalizer: a full-avalanche 64-bit mixer with fixed,
/// platform-independent constants.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the bytes, then mixed: ring-point and name hashing.
[[nodiscard]] std::uint64_t hash_bytes(std::string_view bytes);

struct RingConfig {
  /// Ring points per backend. More points smooth the load split at the
  /// cost of a larger (still tiny) sorted array; 128 keeps the max/min
  /// load ratio under ~1.5 at 16 backends (tests/test_cluster_ring.cpp
  /// asserts the bound).
  std::size_t vnodes = 128;
};

/// Maps user ids onto named backends. Backends are identified by name —
/// the stable ring identity that survives a backend *process* being
/// replaced at a new address during a rebalance.
class HashRing {
 public:
  explicit HashRing(RingConfig config = {});

  /// Adds `name`'s vnodes to the ring. Throws std::invalid_argument on a
  /// duplicate or empty name.
  void add_backend(const std::string& name);

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Index (into names(), i.e. insertion order) of the backend owning
  /// `user`. Throws std::logic_error on an empty ring.
  [[nodiscard]] std::size_t owner_index(trace::UserId user) const;

  [[nodiscard]] const std::string& owner(trace::UserId user) const {
    return names_[owner_index(user)];
  }

 private:
  struct Point {
    std::uint64_t hash = 0;
    std::size_t backend = 0;  ///< index into names_
  };

  void insert_points(const std::string& name, std::size_t index);

  RingConfig config_;
  std::vector<std::string> names_;
  std::vector<Point> points_;  ///< sorted by (hash, owner name)
};

}  // namespace geovalid::cluster
