// Check-in behaviour synthesis.
//
// Produces each user's Foursquare trace from their ground-truth itinerary
// and behavioural traits. Four behaviours, mirroring §5.1 of the paper:
//   honest      — check in at a venue actually being visited
//   superfluous — extra checkins at *nearby* venues during a real visit
//                 (mayorship farming)
//   remote      — checkins at venues far from the user's true position
//                 (badge hunting), often in rapid-fire sessions
//   driveby     — checkins at venues passed at speed during a trip
#pragma once

#include <vector>

#include "stats/rng.h"
#include "synth/config.h"
#include "synth/movement.h"
#include "synth/persona.h"
#include "synth/schedule.h"
#include "trace/checkin.h"

namespace geovalid::synth {

/// Generator-side ground truth of why a checkin exists. The matcher must
/// *infer* these labels from the traces alone; keeping the truth around lets
/// the test suite score that inference.
enum class TrueBehavior : std::uint8_t {
  kHonest = 0,
  kSuperfluous,
  kRemote,
  kDriveby,
};

/// A checkin paired with its ground-truth label.
struct LabeledCheckin {
  trace::Checkin checkin;
  TrueBehavior truth = TrueBehavior::kHonest;
};

/// Generates the user's checkin events (time-ordered). Driveby checkins are
/// only produced on trips that fall inside a recording window — commuters
/// check in from an active phone (this also keeps the unclassifiable
/// residual near the paper's ~10%).
[[nodiscard]] std::vector<LabeledCheckin> generate_checkins(
    const StudyConfig& config, const CityView& city, const Persona& persona,
    const Itinerary& itinerary, const MovementResult& movement,
    stats::Rng& rng);

}  // namespace geovalid::synth
