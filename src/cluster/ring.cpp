#include "cluster/ring.h"

#include <algorithm>
#include <stdexcept>

namespace geovalid::cluster {

std::uint64_t hash_bytes(std::string_view bytes) {
  // FNV-1a 64-bit with the standard offset basis and prime, then one
  // splitmix64 round: FNV alone is weak in the high bits, and ring
  // points need the full word to spread around the ring.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

HashRing::HashRing(RingConfig config) : config_(config) {
  if (config_.vnodes == 0) {
    throw std::invalid_argument("HashRing: vnodes must be positive");
  }
}

void HashRing::insert_points(const std::string& name, std::size_t index) {
  points_.reserve(points_.size() + config_.vnodes);
  std::string key;
  for (std::size_t v = 0; v < config_.vnodes; ++v) {
    key.assign(name);
    key.push_back('#');
    key.append(std::to_string(v));
    points_.push_back(Point{hash_bytes(key), index});
  }
  // Ties (two names hashing one vnode onto the same point) are broken by
  // backend name so the ring never depends on insertion order.
  std::sort(points_.begin(), points_.end(),
            [this](const Point& a, const Point& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return names_[a.backend] < names_[b.backend];
            });
}

void HashRing::add_backend(const std::string& name) {
  if (name.empty()) {
    throw std::invalid_argument("HashRing: backend name must be non-empty");
  }
  for (const std::string& existing : names_) {
    if (existing == name) {
      throw std::invalid_argument("HashRing: duplicate backend '" + name +
                                  "'");
    }
  }
  names_.push_back(name);
  insert_points(name, names_.size() - 1);
}

std::size_t HashRing::owner_index(trace::UserId user) const {
  if (points_.empty()) {
    throw std::logic_error("HashRing: lookup on an empty ring");
  }
  const std::uint64_t h = mix64(static_cast<std::uint64_t>(user));
  // First point strictly clockwise of the key, wrapping to the ring's
  // start past the last point.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), h,
      [](std::uint64_t key, const Point& p) { return key < p.hash; });
  return (it == points_.end() ? points_.front() : *it).backend;
}

}  // namespace geovalid::cluster
