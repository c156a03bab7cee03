// The benchmark's load generator. Set-up encodes every wire byte, so the
// timed phase only calls send(): the repository's loadgen encodes on the
// fly, slower than binary ingest, and would measure itself instead of the
// server. Each user's records ride one connection (user % connections),
// which keeps the per-user ordering contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/net.h"
#include "stream/event.h"

namespace perfbench {

enum class Wire : std::uint8_t { kText, kBinary };

/// Records per binary frame (the repository loadgen's default).
inline constexpr std::size_t kFrameRecords = 512;

/// Pre-encoded ingest bytes, one buffer per connection.
struct WireLoad {
  std::vector<std::string> bytes;
  /// Paced loads only, per connection and record: the record's index in
  /// the merged event order (its place in the open-loop schedule), and
  /// the byte offset just past it (past its frame, for binary).
  std::vector<std::vector<std::uint32_t>> index;
  std::vector<std::vector<std::uint64_t>> end;
  std::uint64_t events = 0;
};

/// Splits `events` (merged order) over one connection per entry of
/// `formats` by user % connections and encodes each connection's share.
[[nodiscard]] WireLoad encode_load(std::span<const geovalid::stream::Event> events,
                                   const std::vector<Wire>& formats, bool paced);

struct SendStats {
  Clock::time_point first_byte{};
  Clock::time_point last_byte{};  ///< last byte accepted by the kernel
  bool ok = true;  ///< every byte accepted before the deadline
  /// Paced sends only: for each release of newly due records, how late
  /// the sender released them (ms).
  std::vector<double> late_ms;
};

/// One connected socket per connection of `load`. Opened before the
/// server's reactors start, they all land on one reactor, the first to
/// poll the shared listener; opened later, a kernel race places each one
/// and the result changes from pass to pass.
[[nodiscard]] std::vector<geovalid::serve::Fd> connect_load(
    std::uint16_t port, const WireLoad& load);

/// Sends every byte of `load` over `fds`: unpaced (as fast as the kernel
/// accepts, TCP backpressure closes the loop) when `schedule` is null,
/// else each record once it is due. Write sides are shut down at the end,
/// so the server sees EOF.
[[nodiscard]] SendStats send_load(std::vector<geovalid::serve::Fd>& fds,
                                  const WireLoad& load,
                                  const OpenLoop* schedule);

enum class Query : std::uint8_t { kVerdicts, kScore, kSummary, kSuspects };

/// Per-user lookups (verdicts, score) as opposed to population scans.
[[nodiscard]] bool is_lookup(Query q);

struct QuerySample {
  Query kind = Query::kVerdicts;
  double latency_ms = 0.0;  ///< from the due time to the full response
  double late_ms = 0.0;     ///< how late the request was started
  bool ok = false;          ///< answered 200
};

/// A user a lookup may name once the user's first checkin (its index in
/// the merged ingest order) has had time to reach the engine.
struct LookupUser {
  std::uint64_t first_checkin = 0;
  std::uint32_t id = 0;
};

/// Open-loop query thread body: query j is due at schedule.due(j). Kinds
/// rotate /v1/suspects?k=10, score, /v1/summary, verdicts, so scans and
/// lookups alternate 1:1 like the repository's own query prober
/// (`geovalid_loadgen --probe-suspects`). Lookup user ids are drawn from
/// `seed`; a lookup names a user whose first checkin was due on `ingest`
/// at least 50 ms earlier (`users` sorted by first_checkin), so a 404 is a
/// failure, and while nobody qualifies it becomes a /v1/summary scan.
/// Runs until `stop` is set.
[[nodiscard]] std::vector<QuerySample> run_queries(
    std::uint16_t http_port, const OpenLoop& schedule, const OpenLoop& ingest,
    std::span<const LookupUser> users, std::uint64_t seed,
    const std::atomic<bool>& stop);

}  // namespace perfbench
