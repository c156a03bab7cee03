#include "stats/ks.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace geovalid::stats {

double ks_two_sample(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("ks_two_sample: empty sample");
  }
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  std::size_t ia = 0, ib = 0;
  double worst = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    worst = std::max(worst, std::fabs(fa - fb));
  }
  return worst;
}

}  // namespace geovalid::stats
