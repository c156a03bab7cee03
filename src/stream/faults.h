// Deterministic fault injection for the streaming engine.
//
// Robustness claims are only as good as the failures they were tested
// against, so the crash-recovery and quarantine test suites (and the CLI's
// `--inject-faults`) drive the engine through *reproducible* disasters:
// corrupted records, stalled shards, and a simulated crash at an exact
// stream offset. Everything is derived from a user-supplied seed via
// counter-based hashing — no global RNG state — so the same spec + seed
// always corrupts the same records in the same way, which is what lets a
// test assert "quarantined count == injected count, verdicts identical to
// the clean run minus exactly those records".
//
// Spec grammar (clauses comma-separated, each `key=value`):
//
//   corrupt=R         corrupt each record with probability R in (0, 1]
//   kill=N            simulate a crash before stream offset N (no
//                     checkpoint is written — recovery must come from the
//                     last periodic one)
//   stall=S@N:MS      shard S sleeps MS milliseconds before processing its
//                     N-th event (exercises backpressure + liveness)
//   seed=K            corruption RNG seed (default 1)
//
// Example: `corrupt=0.01,stall=1@500:20,kill=9000,seed=7`.
//
// The *network* grammar (NetFaultPlan / parse_net_fault_spec) extends the
// same philosophy to the transport layer. Targets are named — a backend
// ring name in the cluster router, a connection index in the loadgen —
// and triggers are record counters, not wall clocks, so a chaos drill
// replays identically:
//
//   netdrop=T@N       after N records queued for target T, its connection
//                     is severed gracefully (FIN) — the failure surfaces
//                     as peer EOF, not as a send error
//   netstall=T@N:MS   after N records, sends to T stall (as if the kernel
//                     returned EAGAIN) for MS milliseconds
//   netreset=T@N      after N records, the next send to T fails abruptly,
//                     as if the kernel returned ECONNRESET
//   seed=K            jitter seed for the paired backoff schedule
//
// Example: `netreset=b1@500,netstall=b2@100:250,seed=7`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stream/event.h"

namespace geovalid::stream {

struct FaultPlan {
  /// Per-record corruption probability in [0, 1].
  double corrupt_rate = 0.0;

  /// Simulated crash: the replay driver stops abruptly before feeding the
  /// event at this absolute stream offset. 0 = never.
  std::uint64_t kill_at = 0;

  struct Stall {
    std::size_t shard = 0;          ///< shard index that stalls
    std::uint64_t after_events = 0; ///< fires before its N-th processed event
    std::uint32_t millis = 0;       ///< stall duration
  };
  std::vector<Stall> stalls;

  std::uint64_t seed = 1;
};

/// Parses the spec grammar above; throws std::invalid_argument with a
/// pointed message on any malformed clause.
[[nodiscard]] FaultPlan parse_fault_spec(std::string_view spec);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Deterministically corrupts records in place (NaN/inf/out-of-range
  /// coordinates, timestamp overflow, stale timestamps, unknown user ids)
  /// and returns the corrupted offsets. Every corruption is chosen so the
  /// engine's quarantine provably rejects it: stale-timestamp corruption is
  /// only applied to a user's non-first event, and unknown-user corruption
  /// sets the id's top bit (callers must enroll the original id space via
  /// StreamEngineConfig::known_users).
  std::vector<std::uint64_t> corrupt_stream(std::vector<Event>& events) const;

  /// Shard-worker hook: called with the shard's local event ordinal before
  /// each event is order-checked and applied (covered replays and payload
  /// quarantines do not count); sleeps when a stall clause matches.
  void on_shard_event(std::size_t shard, std::uint64_t shard_offset) const;

 private:
  FaultPlan plan_;
};

enum class NetFaultKind : std::uint8_t { kDrop, kStall, kReset };

struct NetFault {
  NetFaultKind kind = NetFaultKind::kReset;
  std::string target;              ///< backend ring name / connection index
  std::uint64_t after_records = 0; ///< fires when the target's count reaches this
  std::uint32_t millis = 0;        ///< stall duration (kStall only)
};

struct NetFaultPlan {
  std::vector<NetFault> faults;
  std::uint64_t seed = 1;
  [[nodiscard]] bool empty() const { return faults.empty(); }
};

/// Parses the network grammar above; throws std::invalid_argument with a
/// pointed message on any malformed clause. An empty spec is a valid
/// empty plan.
[[nodiscard]] NetFaultPlan parse_net_fault_spec(std::string_view spec);

/// Arms NetFaultPlan clauses from per-target record counters. Each clause
/// fires exactly once, when its target's running count first reaches
/// `after_records` — counter-based, so the same spec against the same
/// record sequence always severs the same connection at the same record.
/// Thread-compatible, not thread-safe: the router loop is single-threaded
/// and the loadgen consults it under its own lock.
class NetFaultInjector {
 public:
  explicit NetFaultInjector(NetFaultPlan plan)
      : plan_(std::move(plan)), fired_(plan_.faults.size(), false) {}

  [[nodiscard]] const NetFaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool empty() const { return plan_.empty(); }

  /// Everything this advance triggered. At most one connection-severing
  /// kind (reset wins over drop when both cross on the same record) plus
  /// an optional stall window.
  struct Triggered {
    bool drop = false;
    bool reset = false;
    std::uint32_t stall_millis = 0;
  };

  /// Advances `target`'s record counter by `n` and returns the clauses
  /// whose thresholds that advance crossed.
  Triggered on_records(std::string_view target, std::uint64_t n);

 private:
  NetFaultPlan plan_;
  std::vector<bool> fired_;
  std::unordered_map<std::string, std::uint64_t> counts_;
};

/// Deterministic jittered exponential backoff: min(cap, base * 2^attempt)
/// scaled by a counter-based uniform in [0.5, 1.0). Shared by the router's
/// reconnect loop and the loadgen's retry loop so chaos drills replay the
/// same schedule from the same seed.
[[nodiscard]] std::uint32_t backoff_with_jitter(std::uint32_t base_ms,
                                                std::uint32_t cap_ms,
                                                std::uint32_t attempt,
                                                std::uint64_t seed,
                                                std::uint64_t lane);

}  // namespace geovalid::stream
