#include "cluster/health.h"

#include <algorithm>

#include "stream/faults.h"

namespace geovalid::cluster {

int to_ms(double seconds) {
  return std::max(1, static_cast<int>(seconds * 1000.0));
}

const char* to_string(BackendState state) {
  static constexpr const char* kNames[] = {"down", "recovering", "suspect",
                                           "up"};
  return kNames[static_cast<std::size_t>(state)];
}

BackendController::BackendController(const HealthConfig& config,
                                     std::uint64_t seed, std::size_t index)
    : config_(config), seed_(seed), index_(index) {}

void BackendController::tick(TimePoint now, Actions& out) {
  now_ = now;
  if (probing_ && now >= probe_deadline_) {
    probing_ = false;
    probe_failed(out);
  }
  step(out);
}

void BackendController::connect_result(bool ok, Actions& out) {
  if (ok) {
    state_ = BackendState::kRecovering;
    ++generation_;
    dialed_ = instance_;
    probing_ = false;
    next_probe_at_ = now_;
  } else {
    redial_after_backoff();
  }
  step(out);
}

void BackendController::probe_answer(std::uint64_t generation, bool ok,
                                     std::string_view instance,
                                     Actions& out) {
  if (!probing_ || generation != generation_) return;
  probing_ = false;
  if (!ok) {
    probe_failed(out);
    step(out);
    return;
  }
  failures_ = 0;
  // An answer without the header carries no identity to compare.
  const bool restarted =
      !instance.empty() && !instance_.empty() && instance != instance_;
  if (!instance.empty() && instance != instance_) instance_.assign(instance);
  if (state_ != BackendState::kDown && dialed_ != instance_) sever(out);
  if (restarted) {
    // Only a checkpoint survived: the client re-send is authoritative, so
    // the spool goes (superseded) and a new epoch starts.
    push(Action::Kind::kDiscardSpool, out);
    push(Action::Kind::kBeginEpoch, out);
  }
  if (state_ == BackendState::kDown) {
    next_reconnect_at_ = now_;  // answering, not connected: redial now
  } else if (state_ != BackendState::kUp) {
    push(Action::Kind::kDrainSpool, out);
    state_ = BackendState::kUp;
    attempts_ = 0;
  }
  step(out);
}

void BackendController::probe_failed(Actions& out) {
  ++failures_;
  ++probe_failures_;
  if (state_ == BackendState::kDown) {
    if (next_reconnect_at_ == TimePoint::max()) next_reconnect_at_ = now_;
  } else if (failures_ >= config_.probe_down_after) {
    // Connected but no longer answering: a hung backend never flushes its
    // queue. Sever so the queue holds. The first sever since the backend
    // was last up redials at once; each further one waits out the backoff,
    // or a backend whose port accepts while /readyz fails would be severed
    // and redialed once per probe.
    sever(out);
    if (attempts_ > 0) {
      redial_after_backoff();
    } else {
      ++attempts_;
    }
  } else if (state_ == BackendState::kUp) {
    state_ = BackendState::kSuspect;
  }
}

void BackendController::channel_broke() {
  if (state_ == BackendState::kDown) return;
  state_ = BackendState::kDown;
  next_reconnect_at_ = now_;
}

void BackendController::redial_after_backoff() {
  next_reconnect_at_ =
      now_ + std::chrono::milliseconds(stream::backoff_with_jitter(
                 config_.reconnect_backoff_ms, config_.reconnect_backoff_cap_ms,
                 attempts_++, seed_, index_));
}

void BackendController::sever(Actions& out) {
  push(Action::Kind::kSever, out);
  channel_broke();
}

void BackendController::replaced(TimePoint now, Actions& out) {
  now_ = now;
  state_ = BackendState::kRecovering;
  ++generation_;
  probing_ = false;
  instance_.clear();
  dialed_.clear();
  failures_ = 0;
  attempts_ = 0;
  next_probe_at_ = now;
  push(Action::Kind::kBeginEpoch, out);
}

void BackendController::step(Actions& out) {
  if (state_ == BackendState::kDown && now_ >= next_reconnect_at_) {
    push(Action::Kind::kConnect, out);  // the probe waits for the result
  } else if (!probing_ && now_ >= next_probe_at_) {
    // The interval runs probe start to probe start, whatever the outcome.
    probing_ = true;
    probe_deadline_ =
        now_ + std::chrono::milliseconds(to_ms(config_.probe_timeout_s));
    next_probe_at_ =
        now_ + std::chrono::milliseconds(to_ms(config_.probe_interval_s));
    push(Action::Kind::kStartProbe, out);
  }
}

}  // namespace geovalid::cluster
