// Flat metre coordinates.
//
// The MANET simulator and the Levy Walk generator place nodes in a flat
// arena measured in metres; a PlanePoint is a position in that arena.
#pragma once

#include <compare>

namespace geovalid::geo {

/// A point in a local east/north plane, metres.
struct PlanePoint {
  double x_m = 0.0;  ///< metres east of the arena origin
  double y_m = 0.0;  ///< metres north of the arena origin

  friend constexpr auto operator<=>(const PlanePoint&,
                                    const PlanePoint&) = default;
};

}  // namespace geovalid::geo
