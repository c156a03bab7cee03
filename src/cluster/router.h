// The geovalid route daemon: a single-threaded poll() event loop that
// fronts N independent `geovalid serve` backends (docs/CLUSTER.md).
//
// Connections: the router runs on the same connection core as serve
// (serve/conn.h) — one ConnCore with the router as its sink, so accept,
// decoding, responses and the idle sweep behave identically on both.
//
// Data plane: ingest clients speak either serve wire format, negotiated
// per connection from the first byte exactly as serve does (serve/wire.h).
// Text: the router extracts only the *routing key* from each line — the
// verb and the user id, the first two fields — picks the owning backend
// on a consistent-hash ring (cluster/ring.h), and forwards the raw bytes
// verbatim over a persistent per-backend TCP connection
// (cluster/forwarder.h). Full parsing and validation stay on the
// backends; that asymmetry is what lets one router outrun one serve
// process, whose ceiling is single-threaded record parsing. Lines whose
// routing key cannot be extracted dead-letter at the router through the
// usual quarantine path.
//
// Binary frames carry many users' records in one columnar unit, so
// verbatim forwarding cannot shard them: the router decodes each frame,
// runs the same per-record epoch accounting as the text path, partitions
// the surviving events by ring owner and re-encodes one sub-frame per
// backend (serve/wire.h append_binary_frame), queued on the forwarder's
// dedicated binary channel. Frames the codec rejects dead-letter here as
// `malformed_frame` with the same hex-prefix detail serve uses.
//
// Control plane: merged or fanned-out views over the backends' own
// endpoints — /healthz (router liveness), /readyz (every backend ready),
// GET /metrics (summed families plus the router's cluster_*), GET
// /v1/summary (user-weighted merge), /v1/users/{id}/verdicts (proxied to
// the ring owner), POST /admin/checkpoint and /admin/drain (fan-out,
// all-or-error), and POST /admin/backends/{name} — the rebalance hook
// that points a ring name at a replacement process.
//
// Exactly-once across rebalance: the router keeps each user's
// CoverageEntry (stream/coverage.h), the accounting a serve engine shard
// keeps for resume, beside the user's ring owner: one lookup a record.
// Replacing a backend starts a new *epoch*: clients re-send their full
// traces, the router silently skips each healthy user's already-applied
// prefix, and the replacement process's own checkpoint-resume skip
// (serve/server.h) deduplicates the records its restored snapshot
// already covers. At-least-once delivery in, exactly-once application
// out — the cluster-level restatement of the serve resume contract.
//
// Self-healing (docs/ROBUSTNESS.md): every health decision is one
// BackendController's per backend (cluster/health.h), a state machine
// with no sockets and no clock (up → suspect → down → recovering). The
// loop does its I/O: it probes each backend's /readyz with a
// connect/read deadline, and a lost connection reconnects with capped,
// jittered exponential backoff instead of latching dead; records
// meanwhile queue in the forwarder's bounded spool, overflowing to
// whole-ingest backpressure, never to a drop. On reconnect, the probe's
// Geovalid-Instance header decides the replay: the same instance means
// the process (and its applied records) survived — the spool simply
// drains; a new instance means only a checkpoint survived — the router
// starts a new epoch, exactly as handle_replace does, and the client
// re-send plus serve's resume skip restore exactly-once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/forwarder.h"
#include "cluster/health.h"
#include "cluster/ring.h"
#include "serve/conn.h"
#include "serve/wire.h"
#include "stream/coverage.h"
#include "stream/quarantine.h"

namespace geovalid::cluster {

/// The probe and reconnect timing (HealthConfig) apply to every backend.
struct RouteConfig : serve::ConnConfig, HealthConfig {
  /// The backends to front. Names must be unique; they are the ring
  /// identity and must stay stable across process replacement.
  std::vector<BackendAddr> backends;
  std::size_t vnodes = 128;  ///< ring points per backend

  /// Per-backend buffer high-water mark: when any backend's queue grows
  /// past this, the router stops reading from ingest clients (TCP
  /// backpressure) until every queue is back under half of it.
  std::size_t backend_buffer_bytes = 4 * 1024 * 1024;

  /// Dead-letter sink for lines rejected at the router.
  stream::QuarantineConfig quarantine;

  /// Register cluster_* metric families in the process registry.
  bool metrics = true;

  /// Per-backend spool byte budget: records owned by a not-up backend
  /// queue here; past the budget the router stops reading ingest (the
  /// same whole-ingest backpressure as backend_buffer_bytes) — overflow
  /// is never a drop.
  std::size_t spool_bytes = 16 * 1024 * 1024;

  /// Deadline for control-plane fan-out (forwarder flush before
  /// checkpoint/drain, plus every backend HTTP call the control plane
  /// makes). The CLI flag is --fanout-deadline-s.
  double fanout_deadline_s = 30.0;

  /// Deterministic network fault injection (--inject-net-faults,
  /// stream/faults.h net grammar); empty = off.
  stream::NetFaultPlan net_faults;
};

enum class RouteExit : std::uint8_t {
  kStopped,  ///< stop flag (SIGTERM path): buffers flushed, backends left up
  kDrained,  ///< POST /admin/drain completed across every backend
};

struct RouteStats {
  RouteExit exit = RouteExit::kStopped;
  std::uint64_t records_forwarded = 0;  ///< routed toward the owning backend
  std::uint64_t records_replayed = 0;   ///< skipped as epoch-covered
  std::uint64_t records_malformed = 0;  ///< no routing key; dead-lettered
  /// Counted loss — only possible at deliberate teardown with records
  /// still queued (spool overflow backpressures instead of dropping).
  std::uint64_t records_dropped = 0;
  /// Spooled records discarded because a backend restart made the client
  /// re-send authoritative (not loss; the re-send re-delivers them).
  std::uint64_t records_superseded = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t connections = 0;
};

class Router final : private serve::ConnSink {
 public:
  /// Validates the backend list and builds the ring. Throws
  /// std::invalid_argument on an empty list or duplicate names.
  explicit Router(RouteConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Probes and connects every backend's forwarder (all must be
  /// reachable — a router with a known-dead backend should fail loudly at
  /// startup, not drop a shard silently; throws serve::NetError) and
  /// binds both listeners. The probes block, so a ready backend is up
  /// before the first ingest byte. Call once, before run().
  void start();

  [[nodiscard]] std::uint16_t ingest_port() const { return hub_.ingest_port; }
  [[nodiscard]] std::uint16_t http_port() const { return hub_.http_port; }

  /// The event loop: routes until `stop` becomes true (flushes and
  /// closes forwarder connections; backends keep running) or an
  /// /admin/drain completes across the cluster.
  RouteStats run(const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const HashRing& ring() const { return ring_; }
  [[nodiscard]] const stream::Quarantine& quarantine() const {
    return *quarantine_;
  }

 private:
  struct Metrics;
  using Clock = std::chrono::steady_clock;

  void register_metrics();

  // ConnSink: what the connection core decodes.
  /// One text line: the routing key picks the owner, the raw bytes go to
  /// its forwarder verbatim.
  void on_line(std::string_view text, bool truncated) override;
  /// One decoded binary frame: per-record epoch accounting, then the
  /// surviving events are partitioned by ring owner, re-encoded as one
  /// sub-frame per backend and queued on the binary channels.
  void on_frame(serve::BinaryFrameDecoder::Frame& frame) override;
  /// One rejected binary frame: counted as a single malformed record and
  /// dead-lettered (hex-prefix detail) as `malformed_frame`.
  void on_frame_error(const serve::FrameError& error) override;
  serve::HttpReply on_request(const serve::HttpRequest& request) override;

  void count_malformed();
  void update_backend_gauges();

  /// Drives every pending forwarder buffer to the kernel, polling up to
  /// `deadline_ms`; a backend that cannot absorb its queue in time is
  /// severed (its queue rewinds and holds). Returns true when
  /// everything flushed.
  bool flush_all_blocking(int deadline_ms);

  // -- Self-healing: the I/O for each backend's BackendController -------

  /// One health probe, GET /readyz, to one backend: non-blocking under
  /// the router's poll loop and its own fd tag, or blocking in start().
  /// Its answer reaches the controller only after apply() has returned:
  /// fed back inside, a probe that fails at once (a refused /readyz, a
  /// socket() error) would sever, redial and probe again without end.
  struct Probe {
    serve::Fd fd;       ///< the non-blocking request in flight
    bool sent = false;  ///< the request went out: reading the response
    std::string in;     ///< raw response accumulated to EOF
    std::uint64_t generation = 0;  ///< the controller's, handed back
    bool answered = false;  ///< settled; `ok` and `instance` await delivery
    bool ok = false;
    std::string instance;  ///< the answer's Geovalid-Instance
  };

  /// Carries out the controller's decisions in `actions_` for backend
  /// `index` on its forwarder, probe and epoch. A dial's result goes back
  /// at once (it emits no further dial); a probe it starts blocks when
  /// `blocking_probe`. Returns how many users a new epoch reset.
  std::uint64_t apply(std::size_t index, bool blocking_probe = false);
  void start_probe(std::size_t index, std::uint64_t generation,
                   bool blocking);
  /// Poll-event hook for a probe fd: reads to EOF, then answer_probe().
  void probe_io(std::size_t index, short revents);
  /// Hands a settled probe answer to the controller and applies what it
  /// decides; a no-op while none is settled.
  void answer_probe(std::size_t index, bool blocking_probe = false);

  /// The epoch reset handle_replace pioneered, shared with instance-change
  /// recovery: sever ingest clients, then fold every user's coverage into
  /// a new epoch with the users owned by `index` reset to prefix 0.
  /// Returns how many users' coverage was reset (entries are never
  /// erased, so a user counts on every reset of its owner).
  std::uint64_t begin_new_epoch(std::size_t index);

  [[nodiscard]] int fanout_deadline_ms() const;

  /// One control-plane call (`method` GET or POST) to every backend under
  /// the fan-out deadline. `on_reply(i, response)` judges each answer and
  /// throws std::invalid_argument on a body it cannot read; such a backend,
  /// like an unreachable or short-answering one (NetError), counts in
  /// cluster_backend_errors_total. Backends `skip` selects are not called.
  /// Returns, in ring order, the names of the backends that were skipped,
  /// unreachable or judged failed.
  std::vector<std::string> fan_out(
      const std::string& method, const std::string& target,
      const std::function<bool(std::size_t, serve::HttpResponse&)>& on_reply,
      const std::function<bool(std::size_t)>& skip = {});

  // Control-plane handlers (blocking fan-out over backend HTTP).
  serve::HttpReply handle_readyz();
  serve::HttpReply handle_metrics();
  serve::HttpReply handle_summary();
  /// /v1/users/{id}/verdicts or /score, proxied to the ring owner
  /// (docs/DETECTION.md for the score).
  serve::HttpReply proxy_to_owner(serve::Route route,
                                  std::string_view id_text);
  /// /v1/suspects[?k=N]: fan out, merge the per-backend top-k lists into
  /// one ranking (score desc, user id asc; score bytes re-emitted
  /// verbatim), lead the body with "backends":N.
  serve::HttpReply handle_suspects(std::string_view target);
  serve::HttpReply handle_checkpoint();
  serve::HttpReply handle_replace(const std::string& name,
                                  const std::string& json);
  void complete_drain();

  RouteConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Forwarder>> forwarders_;  ///< ring order
  std::vector<BackendController> controllers_;          ///< parallel to ^
  std::vector<Probe> probes_;                           ///< parallel to ^
  /// The decisions apply() carries out, reserved once for kMaxActions: a
  /// tick allocates nothing.
  BackendController::Actions actions_;
  std::optional<stream::NetFaultInjector> fault_injector_;
  std::optional<stream::Quarantine> quarantine_;

  /// The connection core (listeners, cap, connections) and its hub.
  serve::ConnHub hub_;
  serve::ConnCore core_{hub_, *this};
  bool started_ = false;
  bool paused_ = false;  ///< backpressure: ingest reads suspended

  /// Each user's epoch accounting and ring owner, found on first sight.
  /// The ring is built in the constructor, a replacement keeps its name,
  /// and `HashRing` has no remove operation, so owners never go stale.
  struct UserRoute {
    stream::CoverageEntry coverage;
    std::size_t owner = 0;
  };
  std::unordered_map<trace::UserId, UserRoute> users_;
  UserRoute& route_of(trace::UserId user);

  /// Reused per-frame partition scratch: one event bucket per backend
  /// (ring order) plus the re-encode buffer — no allocation per frame
  /// once warm.
  std::vector<std::vector<stream::Event>> route_scratch_;
  std::string frame_scratch_;

  bool drain_requested_ = false;
  bool drain_done_ = false;
  serve::HttpReply drain_reply_;  ///< the answer for (late) drain callers

  RouteStats stats_;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace geovalid::cluster
