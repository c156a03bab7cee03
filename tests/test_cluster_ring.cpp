// The consistent-hash ring: load balance across 2-16 backends, the
// ~1/N movement bound under membership change (the property that makes
// scale-out a one-backend drain instead of a full-cluster reshuffle),
// reorder invariance, and pinned cross-platform hash values — a router
// restart must route users to the backends that hold their state, on any
// platform and standard library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/ring.h"

namespace geovalid::cluster {
namespace {

constexpr trace::UserId kUsers = 100000;

std::vector<std::string> backend_names(std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("backend-" + std::to_string(i));
  }
  return names;
}

HashRing make_ring(const std::vector<std::string>& names) {
  HashRing ring;
  for (const std::string& name : names) ring.add_backend(name);
  return ring;
}

TEST(ClusterRing, RejectsEmptyAndDuplicateNames) {
  HashRing ring;
  EXPECT_THROW(ring.add_backend(""), std::invalid_argument);
  ring.add_backend("a");
  EXPECT_THROW(ring.add_backend("a"), std::invalid_argument);
  EXPECT_EQ(ring.size(), 1u);
  const HashRing empty;
  EXPECT_THROW(empty.owner_index(1), std::logic_error);
}

TEST(ClusterRing, LoadStaysBalancedFromTwoToSixteenBackends) {
  for (std::size_t n = 2; n <= 16; ++n) {
    const HashRing ring = make_ring(backend_names(n));
    std::vector<std::size_t> counts(n, 0);
    for (trace::UserId u = 0; u < kUsers; ++u) ++counts[ring.owner_index(u)];
    const auto [min_it, max_it] =
        std::minmax_element(counts.begin(), counts.end());
    ASSERT_GT(*min_it, 0u) << n << " backends: one got no users";
    const double ratio = static_cast<double>(*max_it) /
                         static_cast<double>(*min_it);
    // 128 vnodes keeps the split tight; 1.8 leaves slack for the worst n
    // without letting a real imbalance (2x+) slip through.
    EXPECT_LT(ratio, 1.8) << n << " backends: max/min load " << *max_it
                          << "/" << *min_it;
  }
}

TEST(ClusterRing, AddingABackendMovesOnlyItsShare) {
  for (std::size_t n : {3u, 8u}) {
    const HashRing before = make_ring(backend_names(n));
    HashRing after = make_ring(backend_names(n));
    after.add_backend("newcomer");

    std::size_t moved = 0;
    for (trace::UserId u = 0; u < kUsers; ++u) {
      const std::string& was = before.owner(u);
      const std::string& now = after.owner(u);
      if (was == now) continue;
      // Every move must be *to* the new backend: unrelated pairs of
      // backends never trade users.
      ASSERT_EQ(now, "newcomer") << "user " << u << " moved " << was
                                 << " -> " << now;
      ++moved;
    }
    const double fraction = static_cast<double>(moved) / kUsers;
    const double expected = 1.0 / static_cast<double>(n + 1);
    EXPECT_GT(fraction, expected * 0.5) << n << " backends";
    EXPECT_LT(fraction, expected * 1.7) << n << " backends";
  }
}

TEST(ClusterRing, RemovingABackendStrandsOnlyItsUsers) {
  // The router's case: the same --backend list without backend-2.
  const std::vector<std::string> names = backend_names(5);
  std::vector<std::string> survivors = names;
  std::erase(survivors, "backend-2");
  const HashRing before = make_ring(names);
  const HashRing after = make_ring(survivors);

  std::size_t moved = 0;
  for (trace::UserId u = 0; u < kUsers; ++u) {
    const std::string& was = before.owner(u);
    if (was == "backend-2") {
      ++moved;  // must land somewhere else; any survivor is fine
      EXPECT_NE(after.owner(u), "backend-2");
    } else {
      // Users of surviving backends stay exactly where they were.
      ASSERT_EQ(after.owner(u), was) << "user " << u;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(ClusterRing, AssignmentIgnoresBackendListOrder) {
  const std::vector<std::string> names = backend_names(6);
  std::vector<std::string> shuffled = names;
  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  std::swap(shuffled[0], shuffled[4]);

  const HashRing a = make_ring(names);
  const HashRing b = make_ring(shuffled);
  for (trace::UserId u = 0; u < kUsers; ++u) {
    ASSERT_EQ(a.owner(u), b.owner(u)) << "user " << u;
  }
}

TEST(ClusterRing, VnodeCountIsConfigurable) {
  HashRing coarse{RingConfig{.vnodes = 1}};
  coarse.add_backend("only");
  EXPECT_EQ(coarse.owner(123), "only");
}

// Pinned values: the hash pipeline (FNV-1a + splitmix64 finalizer) is the
// cross-platform routing contract. If any of these change, every deployed
// cluster's shard assignment changes with them.
TEST(ClusterRing, HashValuesArePinnedAcrossPlatforms) {
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(mix64(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(hash_bytes(""), 0xc3817c016ba4ff30ULL);
  EXPECT_EQ(hash_bytes("alpha#0"), 0x7e5e001aeb083a1bULL);
}

TEST(ClusterRing, OwnerAssignmentsArePinnedAcrossPlatforms) {
  HashRing ring;
  for (const char* name : {"alpha", "beta", "gamma"}) {
    ring.add_backend(name);
  }
  const std::vector<std::pair<trace::UserId, std::string>> expected = {
      {0u, "beta"},     {1u, "gamma"},    {2u, "alpha"},
      {7u, "beta"},     {42u, "beta"},    {1000u, "alpha"},
      {65535u, "beta"}, {4294967295u, "gamma"},
  };
  for (const auto& [user, owner] : expected) {
    EXPECT_EQ(ring.owner(user), owner) << "user " << user;
  }
}

}  // namespace
}  // namespace geovalid::cluster
