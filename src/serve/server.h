// The geovalid serve daemon: N acceptor/reactor event-loop threads in
// front of the sharded StreamEngine.
//
// Reactor model (ServeConfig::reactors, default 1):
//   - Reactor 0 alone accepts, under the global --max-connections cap. It
//     deals each ingest connection to the reactor with the fewest open
//     ingest connections (itself included; ties to the lowest index),
//     through that reactor's inbox and wake eventfd, and the reactor owns
//     it from then on. Each reactor is one serve::ConnCore (serve/conn.h)
//     — decoding, write buffers, idle sweep — with the reactor as its
//     sink. A reactor that frees a slot at the cap wakes reactor 0, whose
//     poll set holds no listener while the hub is full.
//   - Each reactor feeds the engine through its own
//     stream::StreamEngine::Producer handle: private per-shard staging,
//     handoff under the owning shard's mailbox mutex only. There is no
//     engine-global lock anywhere on the ingest path, and no lock per
//     record. A text line and a binary frame take one path to it
//     (Server::apply): the parsed count, then one Producer::stage_batch
//     call. The engine shard that owns a record's user decides it: replay
//     skip, payload check, order check, then the pipeline.
//   - The HTTP control plane is pinned to reactor 0: /healthz, /readyz
//     (503 while draining — the router's backend health hook), /metrics
//     (Prometheus text format), /v1/summary, /v1/users/{id}/verdicts,
//     POST /admin/checkpoint and POST /admin/drain.
//
// Engine-wide quiescence (checkpoints, the query endpoints' drain(), the
// final finish()) runs only on reactor 0, inside a pause-gate rendezvous:
// reactor 0 raises the gate and wakes every other reactor, which flushes
// its producer and parks at its loop top; reactor 0 runs the operation
// against the now single-producer engine, then releases the gate. With
// one reactor the gate degenerates to a no-op and the daemon behaves
// exactly like the original single-threaded loop.
//
// The per-user ordering contract is preserved by construction: the wire
// protocol already requires each user's records on one connection, one
// connection belongs to one reactor, and one reactor maps to one producer
// handle — so per-user mailbox order equals arrival order.
//
// Slow or hostile clients are bounded per reactor by per-connection
// buffers, an idle timeout, and the global connection cap that removes
// the listeners from reactor 0's poll set while full (accept
// backpressure: the kernel backlog, then the clients, absorb the wait).
//
// Resume contract: a checkpoint stores, besides the engine payload, the
// per-user count of records the engine's shards had received (their
// coverage entries, stream/coverage.h). After a restart with `resume`,
// clients re-send their traces from the beginning and each user's shard
// silently skips the already-covered prefix — at-least-once delivery in,
// exactly-once application out, so a kill + restart serves
// verdicts byte-identical to an uninterrupted run. Drain quiesces every
// reactor before the engine checkpoint, and the exit contract (stop flag →
// checkpoint → ServeExit::kStopped) is reactor-count independent.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "score/model.h"
#include "serve/conn.h"
#include "serve/wire.h"
#include "stream/engine.h"
#include "stream/quarantine.h"

namespace geovalid::serve {

struct ServeConfig : ConnConfig {
  /// Event-loop threads (see the reactor model above). 0 = all hardware
  /// threads; clamped at core::kMaxThreads (and rejected with a usage
  /// error at the CLI, mirroring --threads).
  std::size_t reactors = 1;

  /// Detection model artifact (`geovalid train` output); empty serves
  /// without scoring — the /v1/suspects and /v1/users/{id}/score
  /// endpoints answer 409. A bad artifact fails construction with
  /// stream::CheckpointError (exit code 4 at the CLI).
  std::filesystem::path model_path;

  /// Checkpoint directory; empty disables checkpointing entirely.
  std::filesystem::path checkpoint_dir;
  /// Periodic checkpoint every this many received records, replays
  /// included (0 = only on graceful stop / drain / POST /admin/checkpoint).
  std::uint64_t checkpoint_interval_records = 100000;
  /// Restore the newest valid checkpoint in checkpoint_dir on start().
  bool resume = false;

  /// Engine settings; the quarantine hook is overwritten (serve always
  /// attaches its own Quarantine — a network feed is never trusted).
  stream::StreamEngineConfig engine;
  stream::QuarantineConfig quarantine;

  /// Register serve_* metric families in the process registry.
  bool metrics = true;

  /// Test hook: simulate a SIGKILL after this many parsed records — the
  /// run loop exits abruptly, no drain, no final checkpoint. 0 = never.
  /// With several reactors the count may overshoot by a few records (each
  /// reactor checks the flag between lines, as a real kill would land).
  std::uint64_t crash_after_records = 0;
};

enum class ServeExit : std::uint8_t {
  kStopped,  ///< stop flag (SIGTERM path): final checkpoint written
  kDrained,  ///< POST /admin/drain: final checkpoint written
  kCrashed,  ///< crash_after_records hook: nothing written
};

struct ServeStats {
  ServeExit exit = ServeExit::kStopped;
  std::uint64_t records_parsed = 0;     ///< well-formed wire records seen
  std::uint64_t records_applied = 0;    ///< applied or quarantined by a shard
  std::uint64_t records_replayed = 0;   ///< skipped as checkpoint-covered
  std::uint64_t records_malformed = 0;  ///< dead-lettered wire lines
  std::uint64_t http_requests = 0;
  std::uint64_t connections = 0;  ///< accepted over the lifetime, both ports
  std::uint64_t cursor = 0;       ///< records covered by the engine state
  std::uint64_t restored_cursor = 0;  ///< checkpoint cursor restored, or 0
};

class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds both listeners (resolving ephemeral ports) and, with
  /// ServeConfig::resume, restores the newest checkpoint. Call once,
  /// before run() — and before handing the Server to a run thread, so the
  /// bound ports are safe to read from the spawning thread.
  void start();

  [[nodiscard]] std::uint16_t ingest_port() const { return hub_.ingest_port; }
  [[nodiscard]] std::uint16_t http_port() const { return hub_.http_port; }
  [[nodiscard]] std::uint64_t restored_cursor() const {
    return restored_cursor_;
  }
  /// Unique per Server construction (pid + process-wide counter), echoed
  /// on /readyz as the `Geovalid-Instance` header. A fronting router uses
  /// it to tell a connection blip (same instance — its state survived,
  /// spooled records can simply be replayed) from a process restart (new
  /// instance — only a checkpoint survived, clients must re-send).
  [[nodiscard]] const std::string& instance_id() const {
    return instance_id_;
  }
  /// Effective reactor count (after 0 = hardware resolution).
  [[nodiscard]] std::size_t reactor_count() const { return reactors_.size(); }

  /// The event loop: run() drives reactor 0 on the calling thread and
  /// spawns reactors 1..N-1; it serves until `stop` becomes true (graceful
  /// — drains the engine and writes a final checkpoint when a directory is
  /// configured), an /admin/drain completes, or the crash hook fires. All
  /// reactor threads are joined before it returns.
  ServeStats run(const std::atomic<bool>* stop = nullptr);

  /// The live engine (the reactors are its producers; other threads may
  /// only call thread-safe accessors like partition()).
  [[nodiscard]] stream::StreamEngine& engine() { return *engine_; }
  [[nodiscard]] const stream::Quarantine& quarantine() const {
    return *quarantine_;
  }

 private:
  struct Reactor;
  struct Metrics;

  void register_metrics();
  void restore_from_checkpoint();
  /// Requires every other reactor parked (run_quiesced) — the engine
  /// save_state() inside assumes a single producer.
  std::filesystem::path write_checkpoint_now();
  void reactor_loop(Reactor& r, const std::atomic<bool>* stop,
                    bool* stopped_out);
  /// Reactor 0's placement of an accepted ingest socket: counted on the
  /// least-loaded reactor and, unless that is reactor 0, moved to its
  /// inbox (true).
  bool deal(Fd& socket);
  /// The one ingest path, for a text line (a one-event span) and a binary
  /// frame alike: parsed count, one Producer::stage_batch handoff, the
  /// crash hook.
  void apply(Reactor& r, std::span<const stream::Event> events);
  /// One rejected binary frame: counted under the typed reason and
  /// dead-lettered (hex-prefix detail) as `malformed_frame`.
  void process_frame_error(const FrameError& error);
  void count_malformed();
  /// Records covered by the engine state: restored plus processed.
  [[nodiscard]] std::uint64_t cursor() const;
  HttpReply route_request(Reactor& r, const HttpRequest& req);
  /// Non-zero reactors call this at their loop top: when the pause gate is
  /// raised, flush the producer, report parked and wait for release.
  void park_if_paused(Reactor& r);
  /// Reactor 0 only: raise the pause gate, wake every other reactor, wait
  /// until every live non-zero reactor is parked, flush reactor 0's own
  /// producer, run `op` against the quiesced (single-producer) engine,
  /// release the gate. A no-op rendezvous with one reactor. Returns false
  /// without running `op` when the crash hook fired during the rendezvous:
  /// after a SIGKILL nothing is persisted or served.
  bool run_quiesced(Reactor& r0, const std::function<void()>& op);
  void release_gate();
  /// Reactor 0 only: the lag gauge and serve_ingest_records_total's
  /// applied/replayed counts, from the engine's counts.
  void sync_ingest_metrics();
  [[nodiscard]] std::string summary_json();

  ServeConfig config_;
  /// Loaded before the engine is built (the engine config points at it);
  /// immutable afterwards, so worker threads score against it lock-free.
  std::optional<score::ScoreModel> model_;
  std::optional<stream::Quarantine> quarantine_;
  std::optional<stream::StreamEngine> engine_;

  /// Listeners, cap and open counts every reactor's ConnCore shares.
  ConnHub hub_;
  bool started_ = false;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::string instance_id_;
  bool was_at_cap_ = false;  ///< reactor 0 only (backpressure episodes)

  std::uint64_t restored_cursor_ = 0;
  /// records_parsed_ at the last checkpoint (reactor 0 only).
  std::uint64_t parsed_at_checkpoint_ = 0;

  std::atomic<bool> drain_requested_{false};  ///< stop accepting ingest
  std::atomic<bool> drain_done_{false};  ///< engine drained, answers queued
  std::atomic<bool> crash_pending_{false};
  std::atomic<bool> stop_all_{false};  ///< reactor 0 exited: everyone out

  // Pause gate (see run_quiesced). pause_flag_ is the cheap loop-top
  // check; the counters below are guarded by gate_mu_.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::atomic<bool> pause_flag_{false};
  bool pause_requested_ = false;
  std::size_t parked_ = 0;
  std::size_t running_others_ = 0;  ///< live non-zero reactor loops

  std::mutex error_mu_;
  std::exception_ptr reactor_error_;  ///< first reactor-thread exception

  // Lifetime totals (materialized into ServeStats when run() returns).
  std::atomic<std::uint64_t> records_parsed_{0};
  std::atomic<std::uint64_t> records_malformed_{0};

  ServeStats stats_;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace geovalid::serve
