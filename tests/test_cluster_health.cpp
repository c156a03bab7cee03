// cluster::BackendController driven without sockets, in virtual time: the
// scripted interleavings that matter (a stale probe answer after a redial,
// the first answer after a replace, a hung backend, probes that fail at
// once, the redial backoff) and a seeded explorer that draws event orders
// over 1-4 backends and checks the replay invariants after every event. A
// failure names its seed; exploring one seed replays it exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cluster/health.h"
#include "stream/faults.h"

namespace geovalid::cluster {
namespace {

using namespace std::chrono_literals;
using Action = BackendController::Action;
using Actions = BackendController::Actions;
using Kind = Action::Kind;
using TimePoint = BackendController::TimePoint;

TimePoint at(std::chrono::milliseconds t) { return TimePoint{} + t; }

/// The actions in `out`, as text, and clears it: "start_probe(2) connect".
std::string take(Actions& out) {
  static constexpr const char* kNames[] = {
      "start_probe", "connect", "sever", "discard_spool", "drain_spool",
      "begin_epoch"};
  std::string text;
  for (const Action& a : out) {
    if (!text.empty()) text += ' ';
    text += kNames[static_cast<std::size_t>(a.kind)];
    if (a.kind == Kind::kStartProbe) {
      text += '(' + std::to_string(a.generation) + ')';
    }
  }
  out.clear();
  return text;
}

HealthConfig test_config() {
  HealthConfig c;
  c.probe_interval_s = 1.0;
  c.probe_timeout_s = 0.5;
  c.probe_down_after = 3;
  c.reconnect_backoff_ms = 100;
  c.reconnect_backoff_cap_ms = 1000;
  return c;
}

/// A new controller at `t`: it probes, dials knowing the instance, probes
/// the connection (generation 1) and drains.
void bring_up(BackendController& c, TimePoint t, std::string_view instance) {
  Actions out;
  c.tick(t, out);
  ASSERT_EQ(take(out), "start_probe(0)");
  c.probe_answer(0, true, instance, out);
  ASSERT_EQ(take(out), "connect");
  c.connect_result(true, out);
  ASSERT_EQ(take(out), "start_probe(1)");
  c.probe_answer(1, true, instance, out);
  ASSERT_EQ(take(out), "drain_spool");
  ASSERT_EQ(c.state(), BackendState::kUp);
}

TEST(BackendController, StaleAnswerAfterRedialDrainsNothing) {
  // The interleaving behind the lost records of the self-heal drills: a
  // probe starts, the process dies, the router redials a restarted process
  // on the same ports, and the dead process's answer arrives after that.
  BackendController c(test_config(), 7, 0);
  bring_up(c, at(1000ms), "old");
  Actions out;
  c.tick(at(2000ms), out);
  ASSERT_EQ(take(out), "start_probe(1)");

  c.channel_broke();  // the process died: its connection reads EOF
  EXPECT_EQ(c.state(), BackendState::kDown);
  c.tick(at(2010ms), out);
  ASSERT_EQ(take(out), "connect");
  c.connect_result(true, out);  // the restarted process accepts
  ASSERT_EQ(take(out), "start_probe(2)");
  EXPECT_EQ(c.state(), BackendState::kRecovering);

  // The old process's generation-1 answer: same instance, but the spool
  // must not drain into the new process.
  c.probe_answer(1, true, "old", out);
  EXPECT_EQ(take(out), "");
  EXPECT_EQ(c.state(), BackendState::kRecovering);

  // The fresh probe sees the new process: the spool goes, a new epoch
  // starts, and the connection, dialed before the restart was known, is
  // redialed before anything drains.
  c.probe_answer(2, true, "new", out);
  EXPECT_EQ(take(out), "sever discard_spool begin_epoch connect");
  c.connect_result(true, out);
  EXPECT_EQ(take(out), "start_probe(3)");
  c.probe_answer(3, true, "new", out);
  EXPECT_EQ(take(out), "drain_spool");
  EXPECT_EQ(c.state(), BackendState::kUp);
}

TEST(BackendController, FirstAnswerAfterReplaceRedialsBeforeDraining) {
  BackendController c(test_config(), 7, 0);
  bring_up(c, at(1000ms), "old");
  Actions out;
  c.replaced(at(1500ms), out);
  EXPECT_EQ(take(out), "begin_epoch");
  EXPECT_EQ(c.state(), BackendState::kRecovering);
  c.tick(at(1500ms), out);
  ASSERT_EQ(take(out), "start_probe(2)");
  // No instance was known when the replacement was dialed: the first
  // answer names it, and the connection is made again knowing it.
  c.probe_answer(2, true, "replacement", out);
  EXPECT_EQ(take(out), "sever connect");
  c.connect_result(true, out);
  EXPECT_EQ(take(out), "start_probe(3)");
  c.probe_answer(3, true, "replacement", out);
  EXPECT_EQ(take(out), "drain_spool");
}

TEST(BackendController, HungBackendIsSeveredAndRedialedAtOnce) {
  BackendController c(test_config(), 7, 0);
  bring_up(c, at(1000ms), "a");
  Actions out;
  // Two probes time out on a live connection: suspect, still draining.
  for (const auto start : {2000ms, 3000ms}) {
    c.tick(at(start), out);
    ASSERT_EQ(take(out), "start_probe(1)");
    c.tick(at(start + 499ms), out);
    EXPECT_EQ(take(out), "");
    c.tick(at(start + 500ms), out);
    EXPECT_EQ(take(out), "");
    EXPECT_EQ(c.state(), BackendState::kSuspect);
  }
  // The third (probe_down_after) severs and redials in the same tick.
  c.tick(at(4000ms), out);
  ASSERT_EQ(take(out), "start_probe(1)");
  c.tick(at(4500ms), out);
  EXPECT_EQ(take(out), "sever connect");
  EXPECT_EQ(c.state(), BackendState::kDown);
  c.connect_result(true, out);
  EXPECT_EQ(take(out), "start_probe(2)");
  c.probe_answer(2, true, "a", out);
  EXPECT_EQ(take(out), "drain_spool");
  EXPECT_EQ(c.probe_failures(), 3u);

  // Failed answers count like deadlines: a refused or non-200 probe.
  for (int i = 0; i < 3; ++i) {
    c.tick(at(5500ms + i * 1000ms), out);
    ASSERT_EQ(take(out), "start_probe(2)");
    c.probe_answer(2, false, {}, out);
    EXPECT_EQ(take(out), i < 2 ? "" : "sever connect");
  }
}

/// Applies `out` as the router does: a dial, answered `dial_ok` in place,
/// appends the decisions after it; a probe is only noted in `probe`, to be
/// answered after the actions are applied. Returns the actions as text.
std::string apply_in_place(BackendController& c, Actions& out, bool dial_ok,
                           std::optional<std::uint64_t>& probe) {
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k == BackendController::kMaxActions) return "unbounded";
    if (out[k].kind == Kind::kConnect) c.connect_result(dial_ok, out);
    if (out[k].kind == Kind::kStartProbe) probe = out[k].generation;
  }
  return take(out);
}

TEST(BackendController, ProbesThatFailAtOnceEndEveryInputsChain) {
  // probe_down_after = 1 against a backend whose ingest port accepts and
  // whose /readyz fails at once: each failed answer severs. The first
  // sever redials at once; each later one, with the backend never up in
  // between, waits out the jittered backoff, so the backend is redialed on
  // the backoff's schedule, not once per probe. Answered after the actions
  // are applied, each input's chain ends.
  HealthConfig config = test_config();
  config.probe_down_after = 1;
  BackendController c(config, 7, 0);
  Actions out;
  std::optional<std::uint64_t> probe;
  TimePoint t = at(1000ms);
  c.tick(t, out);
  ASSERT_EQ(apply_in_place(c, out, true, probe), "start_probe(0)");
  c.probe_answer(*probe, false, {}, out);
  ASSERT_EQ(apply_in_place(c, out, true, probe), "connect start_probe(1)");
  c.probe_answer(1, false, {}, out);
  ASSERT_EQ(apply_in_place(c, out, true, probe),
            "sever connect start_probe(2)");
  for (std::uint64_t g = 2; g <= 20; ++g) {
    ASSERT_EQ(probe, g);
    c.probe_answer(g, false, {}, out);
    ASSERT_EQ(apply_in_place(c, out, true, probe), "sever");
    EXPECT_EQ(c.state(), BackendState::kDown);
    t += std::chrono::milliseconds(stream::backoff_with_jitter(
        config.reconnect_backoff_ms, config.reconnect_backoff_cap_ms,
        static_cast<std::uint32_t>(g - 1), 7, 0));
    c.tick(t - 1ms, out);
    EXPECT_EQ(take(out), "") << "redial " << g;
    c.tick(t, out);
    ASSERT_EQ(apply_in_place(c, out, true, probe),
              "connect start_probe(" + std::to_string(g + 1) + ")");
    EXPECT_EQ(c.state(), BackendState::kRecovering);
  }
  EXPECT_EQ(c.probe_failures(), 21u);
}

TEST(BackendController, RedialsFollowTheJitteredBackoffAndResetOnceUp) {
  HealthConfig config = test_config();
  config.probe_interval_s = 3600.0;  // keep probes out of the schedule
  constexpr std::uint64_t kSeed = 42;
  constexpr std::size_t kIndex = 3;
  BackendController c(config, kSeed, kIndex);
  bring_up(c, at(1000ms), "a");
  Actions out;
  for (int round = 0; round < 2; ++round) {
    c.channel_broke();
    TimePoint t = at(10'000ms + round * 100'000ms);
    c.tick(t, out);
    ASSERT_EQ(take(out), "connect");  // a break redials at once
    for (std::uint32_t k = 0; k < 8; ++k) {
      c.connect_result(false, out);
      EXPECT_EQ(take(out), "");
      const std::chrono::milliseconds delay(stream::backoff_with_jitter(
          config.reconnect_backoff_ms, config.reconnect_backoff_cap_ms, k,
          kSeed, kIndex));
      c.tick(t + delay - 1ms, out);
      EXPECT_EQ(take(out), "") << "attempt " << k;
      t += delay;
      c.tick(t, out);
      ASSERT_EQ(take(out), "connect") << "attempt " << k;
    }
    // Up again: the next outage's schedule starts over at attempt 0.
    c.connect_result(true, out);
    ASSERT_EQ(take(out), "start_probe(" + std::to_string(2 + round) + ")");
    c.probe_answer(2 + round, true, "a", out);
    ASSERT_EQ(take(out), "drain_spool");
  }
}

TEST(BackendController, NewControllerDialsAfterItsFirstProbeWhateverItSays) {
  BackendController c(test_config(), 7, 0);
  Actions out;
  c.tick(at(1000ms), out);
  ASSERT_EQ(take(out), "start_probe(0)");
  c.tick(at(1400ms), out);
  EXPECT_EQ(take(out), "");
  c.tick(at(1500ms), out);  // the first probe timed out: dial anyway
  EXPECT_EQ(take(out), "connect");
  c.connect_result(true, out);
  EXPECT_EQ(take(out), "start_probe(1)");
  c.probe_answer(1, true, "a", out);  // dialed not knowing the instance
  EXPECT_EQ(take(out), "sever connect");
}

// --- the explorer -----------------------------------------------------

/// One backend name as the explorer sees it: the processes that held its
/// address, the router's forwarder reduced to its connection, drain switch
/// and queue, the epochs, and the probe answers in flight.
struct World {
  struct Process {
    std::uint64_t born = 0;  ///< event count at its start
    bool alive = true;
  };
  struct Answer {
    std::uint64_t generation = 0;
    bool decided = false;  ///< else the process answering is chosen late
    bool ok = false;
    std::size_t process = 0;
  };

  explicit World(const HealthConfig& config, std::uint64_t seed,
                 std::size_t index)
      : controller(config, seed, index) {}

  BackendController controller;
  std::vector<Process> processes{Process{}};
  std::size_t current = 0;  ///< the process at the address now
  std::optional<std::size_t> connection;
  /// The connection ended and the router has not told the controller yet:
  /// it does so at its next tick.
  bool unseen_break = false;
  bool draining = false;
  bool replacement_connection = false;
  std::vector<std::size_t> queue;  ///< each queued record's epoch
  std::vector<std::uint64_t> epoch_born{0};
  std::vector<std::optional<std::size_t>> epoch_receiver{std::nullopt};
  std::optional<std::size_t> last_receiver;
  std::uint64_t last_received = 0;  ///< event count of its last record
  std::vector<Answer> answers;
};

/// Draws a seeded event order and returns the first broken invariant, or
/// an empty string.
class Explorer {
 public:
  explicit Explorer(std::uint64_t seed) : rng_(seed) {
    config_.probe_interval_s = 0.2;
    config_.probe_timeout_s = 0.1;
    config_.probe_down_after = 1 + rng_() % 3;
    config_.reconnect_backoff_ms = 10;
    config_.reconnect_backoff_cap_ms = 200;
    const std::size_t backends = 1 + rng_() % 4;
    for (std::size_t i = 0; i < backends; ++i) {
      worlds_.emplace_back(config_, seed, i);
    }
  }

  std::string run(int steps) {
    for (int step = 0; step < steps && why_.empty(); ++step) event();
    // Heal: every address gets a live process and every probe an answer;
    // each controller must come back up.
    for (World& w : worlds_) {
      if (!w.processes[w.current].alive) start_process(w);
    }
    healing_ = true;
    for (int round = 0; round < 400 && why_.empty(); ++round) {
      advance(25ms);
      for (World& w : worlds_) {
        while (!w.answers.empty() && why_.empty()) deliver_answer(w, 0);
      }
    }
    for (std::size_t i = 0; i < worlds_.size() && why_.empty(); ++i) {
      if (worlds_[i].controller.state() != BackendState::kUp) {
        fail("backend " + std::to_string(i) + " never came back up");
      }
    }
    return why_;
  }

 private:
  void event() {
    ++clock_;
    World& w = worlds_[rng_() % worlds_.size()];
    switch (rng_() % 12) {
      case 0:
      case 1:
      case 2:
        advance(std::chrono::milliseconds(rng_() % 120));
        break;
      case 3:
      case 4:
        if (!w.answers.empty()) deliver_answer(w, rng_() % w.answers.size());
        break;
      case 5:
        if (!w.answers.empty()) {
          const std::size_t lost = rng_() % w.answers.size();
          w.answers.erase(w.answers.begin() +
                          static_cast<std::ptrdiff_t>(lost));
        }
        break;
      case 6:
      case 7:
        for (std::uint64_t n = 1 + rng_() % 3; n > 0; --n) {
          w.queue.push_back(w.epoch_born.size() - 1);
        }
        deliver(w);
        break;
      case 8:
        w.processes[w.current].alive = false;
        break;
      case 9:
        if (!w.processes[w.current].alive) start_process(w);
        break;
      case 10:
        // The forwarder sees its connection end: the process died, or a
        // blip cut a live one. The controller hears of it at the tick.
        if (w.connection && (!w.processes[*w.connection].alive ||
                             rng_() % 4 == 0)) {
          w.connection.reset();
          w.draining = false;
          w.unseen_break = true;
        }
        break;
      case 11:
        if (rng_() % 4 == 0) {
          // The rebalance hook: a new process at a new address, dialed;
          // the queue is superseded by the re-send.
          start_process(w);
          w.queue.clear();
          w.connection = w.current;
          w.unseen_break = false;
          w.draining = false;
          w.replacement_connection = true;
          w.controller.replaced(now_, out_);
          apply(w);
        }
        break;
    }
    check_states();
  }

  void start_process(World& w) {
    w.processes.push_back({clock_, true});
    w.current = w.processes.size() - 1;
  }

  /// One router loop iteration's tick phase: the breaks it saw, then the
  /// clock.
  void advance(std::chrono::milliseconds dt) {
    now_ += dt;
    for (World& w : worlds_) {
      if (!w.connection) w.controller.channel_broke();
      w.unseen_break = false;
      w.controller.tick(now_, out_);
      apply(w);
    }
    check_states();
  }

  void deliver_answer(World& w, std::size_t i) {
    World::Answer a = w.answers[i];
    w.answers.erase(w.answers.begin() + static_cast<std::ptrdiff_t>(i));
    if (!a.decided) {
      a.process = w.current;
      a.ok = w.processes[w.current].alive && (healing_ || rng_() % 6 != 0);
    }
    w.controller.probe_answer(a.generation, a.ok,
                              "p" + std::to_string(a.process), out_);
    apply(w);
  }

  /// Applies the controller's actions the way the router does: a dial's
  /// result fed back in place, a probe answered by a later event.
  void apply(World& w) {
    for (std::size_t k = 0; k < out_.size() && why_.empty(); ++k) {
      if (k == BackendController::kMaxActions) {
        fail("one input emitted more than kMaxActions actions");
        break;
      }
      const Action a = out_[k];
      switch (a.kind) {
        case Kind::kStartProbe: {
          World::Answer answer{a.generation, rng_() % 2 == 0, false,
                               w.current};
          answer.ok =
              w.processes[w.current].alive && (healing_ || rng_() % 6 != 0);
          w.answers.push_back(answer);
          break;
        }
        case Kind::kConnect: {
          const bool ok = w.processes[w.current].alive &&
                          (healing_ || rng_() % 8 != 0);
          if (ok) {
            w.connection = w.current;
            w.unseen_break = false;
            w.draining = false;
            w.replacement_connection = false;
          }
          w.controller.connect_result(ok, out_);
          break;
        }
        case Kind::kSever:
          if (!w.connection && !w.unseen_break) {
            fail("sever without a connection");
          }
          w.connection.reset();
          w.draining = false;
          break;
        case Kind::kDiscardSpool:
          w.queue.clear();
          break;
        case Kind::kDrainSpool:
          if (!w.connection) {
            // The forwarder refuses and keeps holding; the tick tells the
            // controller.
            if (!w.unseen_break) fail("drain_spool without a connection");
            break;
          }
          w.draining = true;
          deliver(w);
          break;
        case Kind::kBeginEpoch:
          // Every epoch reset follows a sever or a replace: no connection
          // that carried the old epoch stays live.
          if (w.draining || (w.connection && !w.replacement_connection)) {
            fail("begin_epoch with a live connection of the old epoch");
          }
          w.epoch_born.push_back(clock_);
          w.epoch_receiver.emplace_back();
          break;
      }
    }
    out_.clear();
  }

  /// A draining forwarder hands its queue to the connected process.
  void deliver(World& w) {
    while (w.draining && w.connection && !w.queue.empty() && why_.empty()) {
      const std::size_t epoch = w.queue.front();
      const std::size_t to = *w.connection;
      w.queue.erase(w.queue.begin());
      // A spool drains only into the instance that accepted its records.
      std::optional<std::size_t>& receiver = w.epoch_receiver[epoch];
      if (receiver && *receiver != to) {
        fail("epoch " + std::to_string(epoch) + " reached p" +
             std::to_string(to) + " after p" + std::to_string(*receiver));
      }
      receiver = to;
      // A new instance gets begin_epoch before any record reaches it.
      if (w.last_receiver && *w.last_receiver != to &&
          w.epoch_born[epoch] <= w.last_received) {
        fail("p" + std::to_string(to) + " got epoch " +
             std::to_string(epoch) + " without a reset after p" +
             std::to_string(*w.last_receiver));
      }
      w.last_receiver = to;
      w.last_received = clock_;
    }
  }

  /// The state the router exports agrees with what its forwarder does,
  /// once the controller has heard of every break.
  void check_states() {
    for (std::size_t i = 0; i < worlds_.size() && why_.empty(); ++i) {
      const World& w = worlds_[i];
      if (w.unseen_break) continue;
      const BackendState s = w.controller.state();
      const bool sending =
          s == BackendState::kUp || s == BackendState::kSuspect;
      if ((s == BackendState::kDown) == w.connection.has_value() ||
          sending != w.draining) {
        fail("backend " + std::to_string(i) + " reads " + to_string(s) +
             " but its forwarder is " +
             (w.connection ? (w.draining ? "draining" : "holding")
                           : "closed"));
      }
    }
  }

  void fail(const std::string& why) {
    if (why_.empty()) why_ = "event " + std::to_string(clock_) + ": " + why;
  }

  std::mt19937_64 rng_;
  HealthConfig config_;
  std::vector<World> worlds_;
  Actions out_;
  TimePoint now_ = at(1000ms);
  std::uint64_t clock_ = 0;
  bool healing_ = false;
  std::string why_;
};

TEST(BackendController, SeededExplorerKeepsTheReplayInvariants) {
  constexpr std::uint64_t kSeeds = 3000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string why = Explorer(seed).run(600);
    ASSERT_TRUE(why.empty()) << "seed " << seed << ", " << why;
  }
}

}  // namespace
}  // namespace geovalid::cluster
