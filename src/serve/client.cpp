#include "serve/client.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "serve/net.h"
#include "serve/wire.h"

namespace geovalid::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Serialize-and-send granularity; large enough to amortize syscalls,
/// small enough that pacing (when enabled) stays smooth.
constexpr std::size_t kChunkBytes = 64 * 1024;

/// Records per binary frame (and per unpaced text encode batch). Well
/// under wire.h's kMaxFrameRecords; also the encode-timing granularity —
/// clocking per batch keeps the timer out of the per-event hot path so
/// encode_events_per_sec measures serialization, not clock calls.
constexpr std::size_t kFrameRecords = 512;

/// Retry backoff bounds (--retries): base doubles per attempt up to the
/// cap, jittered by stream::backoff_with_jitter so a fleet of feeders
/// does not re-dial a recovering backend in lockstep.
constexpr std::uint32_t kRetryBaseMs = 100;
constexpr std::uint32_t kRetryCapMs = 2000;

struct ConnResult {
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  double encode_seconds = 0.0;  ///< time inside encode calls only
  bool failed = false;          ///< peer vanished mid-replay
  bool connect_failed = false;  ///< connection refused / unreachable
  std::uint64_t reconnects = 0;  ///< re-dials made by the retry loop
  bool retry_exhausted = false;  ///< retries used up, replay incomplete
};

enum class AttemptOutcome : std::uint8_t {
  kDone,           ///< shard fully sent, orderly shutdown
  kConnectFailed,  ///< never connected
  kSendFailed,     ///< peer vanished (or an injected fault severed us)
};

AttemptOutcome replay_attempt(const LoadgenConfig& config,
                              const std::vector<stream::Event>& events,
                              const std::string& fault_target,
                              stream::NetFaultInjector* injector,
                              ConnResult& result) {
  // This runs on a bare std::thread: an escaping exception would
  // std::terminate the whole loadgen. A refused connection is a
  // *measurement* during cluster kill/recover runs, not a crash.
  Fd fd;
  try {
    fd = tcp_connect(config.host, config.port);
  } catch (const NetError&) {
    return AttemptOutcome::kConnectFailed;
  }
  std::string chunk;
  chunk.reserve(kChunkBytes + 256);
  const bool paced = config.rate_events_per_sec > 0.0;
  const Clock::time_point start = Clock::now();
  std::uint64_t attempt_events = 0;

  const auto flush = [&]() -> bool {
    if (chunk.empty()) return true;
    try {
      if (!send_all(fd.get(), chunk)) return false;
    } catch (const NetError&) {
      return false;
    }
    result.bytes += chunk.size();
    chunk.clear();
    return true;
  };

  // Paced text keeps its original per-event granularity so --rate
  // behaves identically with and without the A/B changes; binary frames
  // and unpaced text encode (and pace) in kFrameRecords batches unless
  // the config asks for smaller frames.
  const std::size_t frame_records =
      config.frame_records == 0
          ? kFrameRecords
          : std::min(config.frame_records, kFrameRecords);
  const std::size_t batch_records =
      (!config.binary && paced) ? 1 : frame_records;
  for (std::size_t base = 0; base < events.size(); base += batch_records) {
    const std::size_t count =
        std::min(batch_records, events.size() - base);
    const std::span<const stream::Event> batch(events.data() + base, count);
    const Clock::time_point t0 = Clock::now();
    if (config.binary) {
      append_binary_frame(chunk, batch);
    } else {
      for (const stream::Event& e : batch) append_wire_record(chunk, e);
    }
    result.encode_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    result.events += count;
    attempt_events += count;
    if (chunk.size() >= kChunkBytes) {
      if (!flush()) return AttemptOutcome::kSendFailed;
    }
    if (injector != nullptr) {
      const auto t = injector->on_records(fault_target, count);
      if (t.stall_millis > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(t.stall_millis));
      }
      if (t.reset || t.drop) {
        // Simulated client-side failure: abandon the socket mid-replay
        // (unsent tail included) so the retry path re-dials and re-sends.
        chunk.clear();
        fd.reset();
        return AttemptOutcome::kSendFailed;
      }
    }
    if (paced) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(attempt_events) /
                          config.rate_events_per_sec));
      if (!flush()) return AttemptOutcome::kSendFailed;
      std::this_thread::sleep_until(due);
    }
  }
  if (!flush()) return AttemptOutcome::kSendFailed;
  // Orderly shutdown: the server sees EOF with no trailing fragment.
  return AttemptOutcome::kDone;
}

ConnResult replay_connection(const LoadgenConfig& config,
                             const std::vector<stream::Event>& events,
                             std::size_t index) {
  ConnResult result;
  // One injector per connection thread: the plan is shared config, the
  // trigger counters are this connection's own.
  std::optional<stream::NetFaultInjector> injector;
  if (!config.net_faults.empty()) injector.emplace(config.net_faults);
  const std::string fault_target = std::to_string(index);

  for (std::size_t attempt = 0;; ++attempt) {
    const AttemptOutcome outcome = replay_attempt(
        config, events, fault_target,
        injector ? &*injector : nullptr, result);
    if (outcome == AttemptOutcome::kDone) return result;
    if (attempt >= config.retries) {
      if (outcome == AttemptOutcome::kConnectFailed) {
        result.connect_failed = true;
      } else {
        result.failed = true;
      }
      result.retry_exhausted = config.retries > 0;
      return result;
    }
    // Jittered backoff, then re-dial and re-send the shard from the
    // beginning — the full re-send the cluster's epoch protocol expects;
    // the duplicated prefix is skipped router- and serve-side.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        stream::backoff_with_jitter(kRetryBaseMs, kRetryCapMs,
                                    static_cast<std::uint32_t>(attempt),
                                    config.net_faults.seed, index)));
    ++result.reconnects;
  }
}

}  // namespace

LoadgenStats run_loadgen(std::span<const stream::Event> events,
                         const LoadgenConfig& config) {
  LoadgenStats stats;
  const std::size_t n = std::max<std::size_t>(1, config.connections);
  stats.connections = n;
  stats.format = config.binary ? "binary" : "text";

  // Stable per-user partition: a user's records always ride the same
  // connection, in trace order.
  std::vector<std::vector<stream::Event>> shards(n);
  for (const stream::Event& e : events) {
    shards[e.user % n].push_back(e);
  }

  std::vector<ConnResult> results(n);
  // Scoring probe: one thread hitting /v1/suspects and a score lookup
  // while the replay runs, then one final probe after it completes (so
  // even an instant replay reports at least one post-ingest answer). The
  // probed user cycles through the trace deterministically — no RNG, so
  // two runs probe the same ids.
  std::atomic<bool> probe_stop{false};
  std::thread prober;
  double suspect_latency_sum = 0.0;
  if (config.probe_suspects && config.http_port != 0) {
    prober = std::thread([&] {
      std::uint64_t iter = 0;
      while (true) {
        const bool last = probe_stop.load(std::memory_order_relaxed);
        const Clock::time_point t0 = Clock::now();
        ++stats.suspect_probes;
        try {
          const HttpResponse resp =
              http_get(config.host, config.http_port, "/v1/suspects?k=5");
          suspect_latency_sum +=
              std::chrono::duration<double>(Clock::now() - t0).count();
          if (resp.status == 200) {
            ++stats.suspect_probes_ok;
            stats.suspects_json = resp.body;
          }
        } catch (const NetError&) {
          // Fail soft, like the summary probe: the count stays, ok does
          // not advance.
        }
        if (!events.empty()) {
          const trace::UserId id =
              events[(iter * 7919) % events.size()].user;
          ++stats.score_probes;
          try {
            const HttpResponse resp =
                http_get(config.host, config.http_port,
                         "/v1/users/" + std::to_string(id) + "/score");
            if (resp.status == 200) ++stats.score_probes_ok;
          } catch (const NetError&) {
          }
        }
        ++iter;
        if (last) return;
        for (int i = 0;
             i < 10 && !probe_stop.load(std::memory_order_relaxed); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        results[i] = replay_connection(config, shards[i], i);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (prober.joinable()) {
    probe_stop.store(true, std::memory_order_relaxed);
    prober.join();
    if (stats.suspect_probes > 0) {
      stats.suspect_latency_s =
          suspect_latency_sum / static_cast<double>(stats.suspect_probes);
    }
  }
  stats.send_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  double encode_seconds = 0.0;
  for (const ConnResult& r : results) {
    stats.events_sent += r.events;
    stats.bytes_sent += r.bytes;
    encode_seconds += r.encode_seconds;
    if (r.failed) ++stats.failed_connections;
    if (r.connect_failed) ++stats.connect_failures;
    stats.reconnects += r.reconnects;
    if (r.retry_exhausted) stats.retry_exhausted = true;
  }
  if (stats.send_seconds > 0.0) {
    stats.events_per_sec =
        static_cast<double>(stats.events_sent) / stats.send_seconds;
  }
  if (encode_seconds > 0.0) {
    stats.encode_events_per_sec =
        static_cast<double>(stats.events_sent) / encode_seconds;
  }

  if (config.http_port != 0) {
    try {
      const HttpResponse health =
          http_get(config.host, config.http_port, "/healthz");
      stats.healthz_ok = health.status == 200;
      const HttpResponse metrics =
          http_get(config.host, config.http_port, "/metrics");
      stats.metrics_ok =
          metrics.status == 200 &&
          metrics.header("content-type").rfind("text/plain; version=0.0.4",
                                               0) == 0;
      const Clock::time_point t0 = Clock::now();
      const HttpResponse summary =
          http_get(config.host, config.http_port, "/v1/summary");
      stats.summary_latency_s =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (summary.status == 200) stats.summary_json = summary.body;
    } catch (const NetError&) {
      // Control plane unreachable: report the probe flags as failed
      // rather than aborting a replay that already measured the feed.
    }
  }
  return stats;
}

std::string to_json(const LoadgenStats& stats) {
  std::string out = "{\"connections\":";
  out += std::to_string(stats.connections);
  out += ",\"format\":\"";
  out += stats.format;
  out += "\",\"events_sent\":";
  out += std::to_string(stats.events_sent);
  out += ",\"bytes_sent\":";
  out += std::to_string(stats.bytes_sent);
  out += ",\"send_seconds\":";
  append_number(out, stats.send_seconds);
  out += ",\"events_per_sec\":";
  append_number(out, stats.events_per_sec);
  out += ",\"encode_events_per_sec\":";
  append_number(out, stats.encode_events_per_sec);
  out += ",\"failed_connections\":";
  out += std::to_string(stats.failed_connections);
  out += ",\"connect_failures\":";
  out += std::to_string(stats.connect_failures);
  out += ",\"reconnects\":";
  out += std::to_string(stats.reconnects);
  out += ",\"retry_exhausted\":";
  out += stats.retry_exhausted ? "true" : "false";
  out += ",\"healthz_ok\":";
  out += stats.healthz_ok ? "true" : "false";
  out += ",\"metrics_ok\":";
  out += stats.metrics_ok ? "true" : "false";
  out += ",\"summary_latency_s\":";
  append_number(out, stats.summary_latency_s);
  out += ",\"suspect_probes\":";
  out += std::to_string(stats.suspect_probes);
  out += ",\"suspect_probes_ok\":";
  out += std::to_string(stats.suspect_probes_ok);
  out += ",\"score_probes\":";
  out += std::to_string(stats.score_probes);
  out += ",\"score_probes_ok\":";
  out += std::to_string(stats.score_probes_ok);
  out += ",\"suspect_latency_s\":";
  append_number(out, stats.suspect_latency_s);
  out += ",\"suspects\":";
  out += stats.suspects_json.empty() ? "null" : stats.suspects_json;
  out += ",\"summary\":";
  out += stats.summary_json.empty() ? "null" : stats.summary_json;
  out += "}";
  return out;
}

}  // namespace geovalid::serve
