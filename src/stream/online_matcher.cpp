#include "stream/online_matcher.h"

#include <algorithm>

#include "geo/geodesic.h"

namespace geovalid::stream {
namespace {

/// upper_bound over the sample window: first sample with t > key.
template <typename Window>
auto first_after(const Window& window, trace::TimeSec key) {
  return std::upper_bound(
      window.begin(), window.end(), key,
      [](trace::TimeSec t, const trace::GpsPoint& p) { return t < p.t; });
}

}  // namespace

OnlineMatcher::OnlineMatcher(const match::MatchConfig& match_config,
                             const match::ClassifierConfig& classifier_config,
                             match::Partition& sink)
    : match_config_(match_config),
      classifier_config_(classifier_config),
      sink_(&sink) {}

void OnlineMatcher::push_checkin(const trace::Checkin& c) {
  ++sink_->checkins;
  pending_checkins_.push_back(c);
}

void OnlineMatcher::push_visit(const trace::Visit& v) {
  ++sink_->visits;
  pending_visits_.push_back(v);
}

void OnlineMatcher::observe_gps(const trace::GpsPoint& p) {
  if (total_gps_ == 0) first_gps_t_ = p.t;
  ++total_gps_;
  last_gps_t_ = p.t;
  gps_window_.push_back(p);

  // This sample closes the speed bracket of every deferred checkin older
  // than it (deferred entries are in time order).
  while (!deferred_.empty() && deferred_.front().t < p.t) {
    const auto label = classify_now(deferred_.front(), /*at_end=*/false);
    ++sink_->by_class[static_cast<std::size_t>(*label)];
    deferred_.pop_front();
  }
}

void OnlineMatcher::advance(trace::TimeSec watermark,
                            trace::TimeSec visit_start_barrier) {
  watermark_ = saw_event_ ? std::max(watermark_, watermark) : watermark;
  saw_event_ = true;

  const trace::TimeSec beta = match_config_.beta;
  const bool checkins_safe =
      pending_checkins_.empty() ||
      pending_checkins_.back().t + beta <= visit_start_barrier;
  const bool visits_safe = pending_visits_.empty() ||
                           pending_visits_.back().end + beta <= watermark_;
  if ((!pending_checkins_.empty() || !pending_visits_.empty()) &&
      checkins_safe && visits_safe) {
    finalize_pending(/*at_end=*/false);
  }
  prune_gps_window();
}

void OnlineMatcher::finish() {
  if (!pending_checkins_.empty() || !pending_visits_.empty()) {
    finalize_pending(/*at_end=*/true);
  }
  while (!deferred_.empty()) {
    const auto label = classify_now(deferred_.front(), /*at_end=*/true);
    ++sink_->by_class[static_cast<std::size_t>(*label)];
    deferred_.pop_front();
  }
  gps_window_ = {};
}

void OnlineMatcher::finalize_pending(bool at_end) {
  const match::UserMatch m =
      match::match_user(pending_checkins_, pending_visits_, match_config_);

  for (std::size_t i = 0; i < pending_checkins_.size(); ++i) {
    if (m.checkins[i].visit.has_value()) {
      ++sink_->honest;
      ++sink_->by_class[static_cast<std::size_t>(match::CheckinClass::kHonest)];
    } else {
      ++sink_->extraneous;
      resolve_or_defer(pending_checkins_[i], at_end);
    }
  }
  for (std::size_t j = 0; j < pending_visits_.size(); ++j) {
    if (!m.visit_matched[j]) ++sink_->missing;
  }
  pending_checkins_.clear();
  pending_visits_.clear();
}

void OnlineMatcher::resolve_or_defer(const trace::Checkin& c, bool at_end) {
  if (const auto label = classify_now(c, at_end)) {
    ++sink_->by_class[static_cast<std::size_t>(*label)];
  } else {
    deferred_.push_back(c);
  }
}

std::optional<match::CheckinClass> OnlineMatcher::classify_now(
    const trace::Checkin& c, bool at_end) const {
  // sample_at(c.t): the newest sample at or before the checkin. Every
  // sample the pruning cutoff discarded is older than max_gps_gap relative
  // to any checkin still resolvable here, so a miss below gets the same
  // kUnclassified verdict the batch classifier would reach via its gap
  // check.
  auto it = first_after(gps_window_, c.t);
  const trace::GpsPoint* sample =
      it == gps_window_.begin() ? nullptr : &*std::prev(it);
  if (sample == nullptr || c.t - sample->t > classifier_config_.max_gps_gap) {
    return match::CheckinClass::kUnclassified;
  }
  if (geo::distance_m(sample->position, c.location) >
      classifier_config_.remote_threshold_m) {
    return match::CheckinClass::kRemote;
  }
  // Driveby vs superfluous needs speed_at(c.t), whose bracketing sample
  // after c.t may not have arrived yet.
  if (c.t >= last_gps_t_ && !at_end) return std::nullopt;
  return speed_at(c.t) > classifier_config_.driveby_speed_mps
             ? match::CheckinClass::kDriveby
             : match::CheckinClass::kSuperfluous;
}

double OnlineMatcher::speed_at(trace::TimeSec t) const {
  if (total_gps_ < 2 || t < first_gps_t_ || t > last_gps_t_) return 0.0;
  auto it = first_after(gps_window_, t);
  if (it == gps_window_.begin()) return 0.0;
  if (it == gps_window_.end()) --it;  // t is the final sample: last segment
  const trace::GpsPoint& after = *it;
  const trace::GpsPoint& before = *std::prev(it);
  const auto dt = static_cast<double>(after.t - before.t);
  if (dt <= 0.0) return 0.0;
  return geo::distance_m(before.position, after.position) / dt;
}

namespace {

void save_checkin(SnapshotWriter& w, const trace::Checkin& c) {
  w.i64(c.t);
  w.u32(c.poi);
  w.u8(static_cast<std::uint8_t>(c.category));
  w.f64(c.location.lat_deg);
  w.f64(c.location.lon_deg);
}

trace::Checkin load_checkin(SnapshotReader& r) {
  trace::Checkin c;
  c.t = r.i64();
  c.poi = r.u32();
  const std::uint8_t cat = r.u8();
  if (cat >= trace::kPoiCategoryCount) {
    throw SnapshotError("snapshot: checkin category out of domain");
  }
  c.category = static_cast<trace::PoiCategory>(cat);
  c.location.lat_deg = r.f64();
  c.location.lon_deg = r.f64();
  return c;
}

void save_visit(SnapshotWriter& w, const trace::Visit& v) {
  w.i64(v.start);
  w.i64(v.end);
  w.f64(v.centroid.lat_deg);
  w.f64(v.centroid.lon_deg);
  w.u32(v.poi);
}

trace::Visit load_visit(SnapshotReader& r) {
  trace::Visit v;
  v.start = r.i64();
  v.end = r.i64();
  v.centroid.lat_deg = r.f64();
  v.centroid.lon_deg = r.f64();
  v.poi = r.u32();
  return v;
}

void save_gps(SnapshotWriter& w, const trace::GpsPoint& p) {
  w.i64(p.t);
  w.f64(p.position.lat_deg);
  w.f64(p.position.lon_deg);
  w.boolean(p.has_fix);
  w.u32(p.wifi_fingerprint);
  w.f64(p.accel_variance);
}

trace::GpsPoint load_gps(SnapshotReader& r) {
  trace::GpsPoint p;
  p.t = r.i64();
  p.position.lat_deg = r.f64();
  p.position.lon_deg = r.f64();
  p.has_fix = r.boolean();
  p.wifi_fingerprint = r.u32();
  p.accel_variance = r.f64();
  return p;
}

}  // namespace

void OnlineMatcher::save(SnapshotWriter& w) const {
  w.i64(watermark_);
  w.boolean(saw_event_);
  w.u64(pending_checkins_.size());
  for (const trace::Checkin& c : pending_checkins_) save_checkin(w, c);
  w.u64(pending_visits_.size());
  for (const trace::Visit& v : pending_visits_) save_visit(w, v);
  w.u64(deferred_.size());
  for (const trace::Checkin& c : deferred_) save_checkin(w, c);
  w.u64(gps_window_.size());
  for (const trace::GpsPoint& p : gps_window_) save_gps(w, p);
  w.u64(total_gps_);
  w.i64(first_gps_t_);
  w.i64(last_gps_t_);
}

void OnlineMatcher::load(SnapshotReader& r) {
  watermark_ = r.i64();
  saw_event_ = r.boolean();
  pending_checkins_.clear();
  pending_checkins_.resize(r.length());
  for (trace::Checkin& c : pending_checkins_) c = load_checkin(r);
  pending_visits_.clear();
  pending_visits_.resize(r.length());
  for (trace::Visit& v : pending_visits_) v = load_visit(r);
  deferred_ = {};
  deferred_.items.resize(r.length());
  for (trace::Checkin& c : deferred_.items) c = load_checkin(r);
  gps_window_ = {};
  gps_window_.items.resize(r.length());
  for (trace::GpsPoint& p : gps_window_.items) p = load_gps(r);
  total_gps_ = static_cast<std::size_t>(r.u64());
  first_gps_t_ = r.i64();
  last_gps_t_ = r.i64();
}

void OnlineMatcher::prune_gps_window() {
  trace::TimeSec oldest = watermark_;
  if (!pending_checkins_.empty()) {
    oldest = std::min(oldest, pending_checkins_.front().t);
  }
  if (!deferred_.empty()) oldest = std::min(oldest, deferred_.front().t);
  const trace::TimeSec cutoff = oldest - classifier_config_.max_gps_gap;
  while (gps_window_.size() > 2 && gps_window_.front().t < cutoff) {
    gps_window_.pop_front();
  }
}

}  // namespace geovalid::stream
