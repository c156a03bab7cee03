// Backend health for the cluster router: one state machine per backend,
// with no sockets and no clock (docs/ROBUSTNESS.md, "Health probing").
// Time and I/O results are inputs; decisions are actions appended to a
// caller-owned buffer, which the router applies to the backend's
// Forwarder, its probe socket and the epoch. A test drives it through any
// interleaving.
//
// The caller answers each kConnect with connect_result() before the next
// input, and may do so while it applies the actions: a dial's result
// never asks for another dial. A probe's answer must wait until the
// actions are applied: given at once, a probe that fails at once would
// sever, redial and probe again without end.
//
// A probe's Geovalid-Instance decides the replay. The same instance means
// the process, and every record it was sent, survived: the spool drains.
// A new one means only a checkpoint survived: the spool is discarded and a
// new epoch starts, so the client re-send plus serve's resume skip restore
// exactly-once. Three rules keep a spool from draining into a process that
// did not accept its records:
//   - Each successful dial opens a new generation, and a probe carries the
//     generation it started under. Only the probe in flight under the
//     current one counts: an older answer may come from a process that
//     died before the redial.
//   - A connection drains only once a probe started on it reports the
//     instance known when it was dialed; one dialed without knowing it (a
//     restart, the first answer after a replace) is severed and redialed.
//   - A new controller probes before its first dial.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace geovalid::cluster {

/// Ordered by declining health, as the `cluster_backend_state` gauge reads.
enum class BackendState : std::uint8_t {
  kDown = 0,        ///< not connected; redialing by backoff
  kRecovering = 1,  ///< connected; the queues hold until a probe settles
  kSuspect = 2,     ///< connected and draining, but the last probe failed
  kUp = 3,          ///< connected and draining, probes passing
};

[[nodiscard]] const char* to_string(BackendState state);

/// Seconds-to-ms for the config's double-valued deadlines, clamped so a
/// tiny-but-positive value still polls.
[[nodiscard]] int to_ms(double seconds);

struct HealthConfig {
  /// Health probing: every `probe_interval_s` the router opens a
  /// non-blocking GET /readyz to each backend with `probe_timeout_s` as
  /// the combined connect/read deadline. `probe_down_after` consecutive
  /// failures sever a still-connected backend (a hung process will not
  /// flush its queue; the spool reclaims it).
  double probe_interval_s = 2.0;
  double probe_timeout_s = 1.0;
  std::size_t probe_down_after = 3;

  /// Reconnect backoff (jittered exponential, stream::backoff_with_jitter,
  /// seeded from the router's `net_faults.seed` so chaos drills replay
  /// identically).
  std::uint32_t reconnect_backoff_ms = 100;
  std::uint32_t reconnect_backoff_cap_ms = 5000;
};

class BackendController {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Action {
    enum class Kind : std::uint8_t {
      kStartProbe,    ///< answer with probe_answer(generation, ...)
      kConnect,       ///< dial; answer with connect_result()
      kSever,         ///< close the connection; the queues rewind and hold
      kDiscardSpool,  ///< drop the held records as superseded
      kDrainSpool,    ///< switch the queues to drain into the connection
      kBeginEpoch,    ///< reset this backend's users for the client re-send
    };
    Kind kind{};
    std::uint64_t generation = 0;
  };
  using Actions = std::vector<Action>;
  /// The most actions one input and the dial it asks for emit (a restart
  /// seen on a live connection: sever, discard_spool, begin_epoch,
  /// connect, start_probe); the seeded explorer checks it.
  static constexpr std::size_t kMaxActions = 5;

  /// `seed` and `index` select the backend's jitter stream.
  BackendController(const HealthConfig& config, std::uint64_t seed,
                    std::size_t index);

  /// Fails a probe past its deadline, then dials a down backend whose
  /// redial is due or starts a due probe. Allocates only to grow `out`.
  void tick(TimePoint now, Actions& out);
  void probe_answer(std::uint64_t generation, bool ok,
                    std::string_view instance, Actions& out);
  /// Success opens a new generation and probes it at once; failure k
  /// schedules the next dial backoff_with_jitter(attempt k) later.
  void connect_result(bool ok, Actions& out);
  /// The connection ended without a kSever (peer EOF or reset, a failed
  /// send); the router reports it once per loop iteration, before the
  /// tick.
  void channel_broke();
  /// The rebalance hook connected the name to a new process: a new
  /// generation and epoch, no known instance, a probe at the next tick.
  void replaced(TimePoint now, Actions& out);

  [[nodiscard]] BackendState state() const { return state_; }
  [[nodiscard]] std::uint64_t probe_failures() const {
    return probe_failures_;
  }

 private:
  void probe_failed(Actions& out);
  /// Every input that can make a dial or a probe due ends here.
  void step(Actions& out);
  void sever(Actions& out);
  /// The next dial waits backoff_with_jitter(attempts_++); a capped wait.
  void redial_after_backoff();
  void push(Action::Kind kind, Actions& out) const {
    out.push_back({kind, generation_});
  }

  HealthConfig config_;
  std::uint64_t seed_;
  std::size_t index_;
  BackendState state_ = BackendState::kDown;
  std::uint64_t generation_ = 0;
  bool probing_ = false;
  TimePoint now_{};  ///< the latest input's time
  TimePoint probe_deadline_{};
  TimePoint next_probe_at_{};
  TimePoint next_reconnect_at_ = TimePoint::max();  ///< after a first probe
  std::size_t failures_ = 0;                         ///< consecutive
  std::uint32_t attempts_ = 0;
  std::uint64_t probe_failures_ = 0;
  std::string instance_;  ///< the last Geovalid-Instance seen
  std::string dialed_;    ///< instance_ when this connection was dialed
};

}  // namespace geovalid::cluster
