// Shannon entropy of categorical/visit distributions.
//
// "POI entropy" is one of the mobility metrics the paper uses when
// validating the honest-checkin set against the baseline dataset (§4.1).
#pragma once

#include <cstddef>
#include <span>

namespace geovalid::stats {

/// Shannon entropy (bits) of the distribution implied by non-negative
/// `counts`. Zero-count entries contribute nothing; all-zero input yields 0.
[[nodiscard]] double entropy_bits(std::span<const std::size_t> counts);

}  // namespace geovalid::stats
