// Tests for the synthetic study generator (the data substitution).
#include <gtest/gtest.h>

#include "geo/geodesic.h"
#include "synth/checkin_model.h"
#include "synth/city.h"
#include "synth/movement.h"
#include "synth/persona.h"
#include "synth/schedule.h"
#include "synth/study_generator.h"

namespace geovalid::synth {
namespace {

TEST(City, GeneratesRequestedPoiCount) {
  CityConfig cfg;
  cfg.poi_count = 500;
  stats::Rng rng(1);
  const auto pois = generate_city(cfg, rng);
  EXPECT_EQ(pois.size(), 500u);
}

TEST(City, PoisStayInsideRadius) {
  CityConfig cfg;
  cfg.poi_count = 300;
  stats::Rng rng(2);
  for (const trace::Poi& p : generate_city(cfg, rng)) {
    EXPECT_LE(geo::distance_m(p.location, cfg.center), cfg.radius_m * 1.01);
  }
}

TEST(City, CategoryMixRoughlyRespected) {
  CityConfig cfg;
  cfg.poi_count = 6000;
  stats::Rng rng(3);
  std::array<std::size_t, trace::kPoiCategoryCount> counts{};
  for (const trace::Poi& p : generate_city(cfg, rng)) {
    ++counts[static_cast<std::size_t>(p.category)];
  }
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const double expected = cfg.category_mix[c] * 6000.0;
    EXPECT_NEAR(static_cast<double>(counts[c]), expected, expected * 0.25 + 30)
        << trace::to_string(static_cast<trace::PoiCategory>(c));
  }
}

TEST(City, IdsAreIndexPlusOne) {
  CityConfig cfg;
  cfg.poi_count = 50;
  stats::Rng rng(4);
  const auto pois = generate_city(cfg, rng);
  for (std::size_t i = 0; i < pois.size(); ++i) {
    EXPECT_EQ(pois[i].id, i + 1);
  }
}

class SynthFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = tiny_preset();
    rng_ = std::make_unique<stats::Rng>(7);
    pois_ = generate_city(config_.city, *rng_);
    index_ = trace::PoiIndex(pois_);
    grid_ = std::make_unique<trace::PoiGrid>(index_.all(), 500.0);
    city_ = make_city_view(index_.all(), *grid_);
  }

  StudyConfig config_;
  std::unique_ptr<stats::Rng> rng_;
  std::vector<trace::Poi> pois_;
  trace::PoiIndex index_;
  std::unique_ptr<trace::PoiGrid> grid_;
  CityView city_;
};

TEST_F(SynthFixture, PersonaHasSaneTraits) {
  for (trace::UserId id = 1; id <= 20; ++id) {
    const Persona p = sample_persona(config_, city_, id, *rng_);
    EXPECT_EQ(p.id, id);
    EXPECT_GT(p.traits.activity, 0.0);
    EXPECT_GE(p.traits.gamer, 0.0);
    EXPECT_LE(p.traits.gamer, 1.0);
    EXPECT_GE(p.traits.badge_hunter, 0.0);
    EXPECT_LE(p.traits.badge_hunter, 1.0);
    EXPECT_GE(p.traits.commuter, 0.0);
    EXPECT_LE(p.traits.commuter, 1.0);
    EXPECT_GE(p.study_days, 3u);
    EXPECT_FALSE(p.routine_pois.empty());
    EXPECT_EQ(city_.pois[p.home_index].category,
              trace::PoiCategory::kResidence);
    const auto work_cat = city_.pois[p.work_index].category;
    EXPECT_TRUE(work_cat == trace::PoiCategory::kProfessional ||
                work_cat == trace::PoiCategory::kCollege);
  }
}

TEST_F(SynthFixture, ItineraryIsOrderedAndNonOverlapping) {
  const Persona p = sample_persona(config_, city_, 1, *rng_);
  const Itinerary it = generate_itinerary(config_, city_, p, *rng_);
  ASSERT_FALSE(it.stays.empty());
  EXPECT_EQ(it.windows.size(), p.study_days);
  for (std::size_t i = 0; i < it.stays.size(); ++i) {
    EXPECT_LT(it.stays[i].arrive, it.stays[i].depart) << "stay " << i;
    if (i > 0) {
      EXPECT_GE(it.stays[i].arrive, it.stays[i - 1].depart) << "stay " << i;
    }
    EXPECT_LT(it.stays[i].poi_index, city_.pois.size());
  }
  for (const RecordingWindow& w : it.windows) {
    EXPECT_LT(w.start, w.end);
  }
}

TEST_F(SynthFixture, MovementSamplesOncePerMinuteInsideWindows) {
  const Persona p = sample_persona(config_, city_, 2, *rng_);
  const Itinerary it = generate_itinerary(config_, city_, p, *rng_);
  const MovementResult mv = synthesize_movement(config_, city_, it, *rng_);

  ASSERT_FALSE(mv.gps.empty());
  std::size_t expected = 0;
  for (const RecordingWindow& w : it.windows) {
    expected += static_cast<std::size_t>((w.end - w.start) / 60) + 1;
  }
  EXPECT_EQ(mv.gps.size(), expected);

  // Samples strictly inside windows.
  for (const trace::GpsPoint& pt : mv.gps.points()) {
    bool inside = false;
    for (const RecordingWindow& w : it.windows) {
      if (pt.t >= w.start && pt.t <= w.end) {
        inside = true;
        break;
      }
    }
    EXPECT_TRUE(inside) << "t=" << pt.t;
  }
}

TEST_F(SynthFixture, TripsConnectConsecutiveDistinctStays) {
  const Persona p = sample_persona(config_, city_, 3, *rng_);
  const Itinerary it = generate_itinerary(config_, city_, p, *rng_);
  const MovementResult mv = synthesize_movement(config_, city_, it, *rng_);
  for (const Trip& trip : mv.trips) {
    EXPECT_NE(trip.from_poi, trip.to_poi);
    EXPECT_LE(trip.depart, trip.arrive);
    EXPECT_GT(trip.speed_mps, 0.0);
  }
}

TEST_F(SynthFixture, CheckinsAreTimeOrderedWithLabels) {
  const Persona p = sample_persona(config_, city_, 4, *rng_);
  const Itinerary it = generate_itinerary(config_, city_, p, *rng_);
  const MovementResult mv = synthesize_movement(config_, city_, it, *rng_);
  const auto labeled =
      generate_checkins(config_, city_, p, it, mv, *rng_);
  for (std::size_t i = 1; i < labeled.size(); ++i) {
    EXPECT_LE(labeled[i - 1].checkin.t, labeled[i].checkin.t);
  }
  for (const LabeledCheckin& lc : labeled) {
    EXPECT_NE(lc.checkin.poi, trace::kNoPoi);
  }
}

TEST(TravelTime, WalksShortDrivesLong) {
  const trace::TimeSec walk = travel_time(400.0);
  const trace::TimeSec drive = travel_time(5000.0);
  EXPECT_GT(walk, 0);
  EXPECT_GT(drive, walk / 10);  // driving 5 km beats walking pace
  // Walking 400 m takes ~5 min + overhead; driving 5 km ~8 min + overhead.
  EXPECT_NEAR(static_cast<double>(walk), 100.0 + 400.0 / 1.35, 2.0);
}

TEST(StudyGenerator, DeterministicInSeed) {
  const GeneratedStudy a = generate_study(tiny_preset());
  const GeneratedStudy b = generate_study(tiny_preset());
  const auto sa = trace::compute_stats(a.dataset);
  const auto sb = trace::compute_stats(b.dataset);
  EXPECT_EQ(sa.checkins, sb.checkins);
  EXPECT_EQ(sa.visits, sb.visits);
  EXPECT_EQ(sa.gps_points, sb.gps_points);

  // Spot-check one user's first checkin.
  ASSERT_FALSE(a.dataset.users().empty());
  const auto& ua = a.dataset.users()[0];
  const auto& ub = b.dataset.users()[0];
  ASSERT_EQ(ua.checkins.size(), ub.checkins.size());
  if (!ua.checkins.empty()) {
    EXPECT_EQ(ua.checkins.at(0).t, ub.checkins.at(0).t);
    EXPECT_EQ(ua.checkins.at(0).poi, ub.checkins.at(0).poi);
  }
}

TEST(StudyGenerator, DifferentSeedsDiffer) {
  StudyConfig cfg = tiny_preset();
  cfg.seed = 1234567;
  const auto a = generate_study(tiny_preset());
  const auto b = generate_study(cfg);
  EXPECT_NE(trace::compute_stats(a.dataset).checkins,
            trace::compute_stats(b.dataset).checkins);
}

TEST(StudyGenerator, TruthLabelsAlignWithCheckins) {
  const GeneratedStudy study = generate_study(tiny_preset());
  for (const trace::UserRecord& u : study.dataset.users()) {
    const auto it = study.truth.find(u.id);
    ASSERT_NE(it, study.truth.end());
    EXPECT_EQ(it->second.size(), u.checkins.size());
  }
}

TEST(StudyGenerator, VisitsDetectedAndMostlySnapped) {
  const GeneratedStudy study = generate_study(tiny_preset());
  std::size_t visits = 0, snapped = 0;
  for (const trace::UserRecord& u : study.dataset.users()) {
    for (const trace::Visit& v : u.visits) {
      ++visits;
      if (v.poi != trace::kNoPoi) ++snapped;
    }
  }
  ASSERT_GT(visits, 50u);
  EXPECT_GT(static_cast<double>(snapped) / static_cast<double>(visits), 0.8);
}

TEST(StudyGenerator, BaselineHasFarFewerExtraneous) {
  StudyConfig primary_small = tiny_preset();
  StudyConfig baseline_small = baseline_preset();
  baseline_small.user_count = 12;
  baseline_small.mean_days_per_user = 4.0;
  baseline_small.city.poi_count = 400;
  baseline_small.seed = 42;

  const auto p = generate_study(primary_small);
  const auto b = generate_study(baseline_small);

  auto extraneous_truth_ratio = [](const GeneratedStudy& s) {
    std::size_t honest = 0, total = 0;
    for (const auto& [id, labels] : s.truth) {
      for (TrueBehavior t : labels) {
        ++total;
        if (t == TrueBehavior::kHonest) ++honest;
      }
    }
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(honest) /
                                  static_cast<double>(total);
  };
  EXPECT_GT(extraneous_truth_ratio(p), 0.5);
  EXPECT_LT(extraneous_truth_ratio(b), 0.15);
}

}  // namespace
}  // namespace geovalid::synth
