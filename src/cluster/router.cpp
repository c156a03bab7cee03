#include "cluster/router.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "cluster/aggregate.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "trace/fields.h"

namespace geovalid::cluster {
namespace {

using serve::HttpReply;
using serve::NetError;
using serve::Route;

constexpr int kPollTimeoutMs = 100;

/// Opportunistic flush threshold: a forwarder buffer past this tries the
/// socket immediately instead of waiting for the next POLLOUT round.
constexpr std::size_t kFlushChunkBytes = 64 * 1024;

/// Sanity cap on a /readyz probe response; anything bigger is a protocol
/// violation, not a slow header.
constexpr std::size_t kMaxProbeResponseBytes = 64 * 1024;

/// Poll-set tags beside the connection core's (connection indices count
/// up from 0, its listeners sit at SIZE_MAX). Each forwarder can
/// contribute two pollfds: its text channel (tagged from kForwarderBase)
/// and its lazily-opened binary channel (tagged from kForwarderBinBase);
/// each in-flight health probe one more (tagged from kProbeBase). All
/// three are disjoint ranges.
constexpr std::size_t kForwarderBase = SIZE_MAX / 2;
constexpr std::size_t kForwarderBinBase = SIZE_MAX / 4;
constexpr std::size_t kProbeBase = SIZE_MAX / 8;

/// Seconds-to-ms for the config's double-valued deadlines, clamped so a
/// tiny-but-positive value still polls.
int to_ms(double seconds) {
  return std::max(1, static_cast<int>(seconds * 1000.0));
}

/// Routing key: verb + user id, the first two wire fields. Everything
/// after the second comma is the backend's business — this is the only
/// parsing the router does per record.
std::optional<trace::UserId> route_key(std::string_view line) {
  std::string_view rest;
  if (line.rfind("gps,", 0) == 0) {
    rest = line.substr(4);
  } else if (line.rfind("checkin,", 0) == 0) {
    rest = line.substr(8);
  } else {
    return std::nullopt;
  }
  const std::size_t comma = rest.find(',');
  trace::UserId id = 0;
  if (comma == std::string_view::npos ||
      !trace::parse_int(rest.substr(0, comma), id)) {
    return std::nullopt;
  }
  return id;
}

std::optional<std::string> json_string_field(std::string_view json,
                                             std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\"";
  std::size_t p = json.find(pattern);
  if (p == std::string_view::npos) return std::nullopt;
  p = json.find(':', p + pattern.size());
  if (p == std::string_view::npos) return std::nullopt;
  ++p;
  while (p < json.size() && (json[p] == ' ' || json[p] == '\t')) ++p;
  if (p >= json.size() || json[p] != '"') return std::nullopt;
  ++p;
  std::string out;
  while (p < json.size() && json[p] != '"') {
    if (json[p] == '\\' && p + 1 < json.size()) ++p;
    out += json[p++];
  }
  if (p >= json.size()) return std::nullopt;
  return out;
}

/// {"name":NAME,"response":BODY} — one backend's embedded fan-out answer.
void append_backend_response(std::string& out, const std::string& name,
                             const std::string& body) {
  if (!out.empty()) out += ',';
  out += "{\"name\":\"" + name + "\",\"response\":" + body + "}";
}

void append_json_string_array(std::string& out,
                              const std::vector<std::string>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += items[i];
    out += '"';
  }
  out += ']';
}

/// {"error":WHAT,"failed":[names]} — a fan-out that fell short.
std::string failed_json(std::string_view what,
                        const std::vector<std::string>& failed) {
  std::string out = "{\"error\":\"" + std::string(what) + "\",\"failed\":";
  append_json_string_array(out, failed);
  return out + "}";
}

/// The bare number token after `"key":` in one flat JSON object — returned
/// verbatim, so the merged suspects body re-emits each backend's score
/// bytes untouched (byte-determinism without float round-tripping).
std::string_view json_number_token(std::string_view obj,
                                   std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  std::size_t p = obj.find(pattern);
  if (p == std::string_view::npos) return {};
  p += pattern.size();
  std::size_t e = p;
  while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
  return obj.substr(p, e - p);
}

/// One row of a backend's /v1/suspects answer, kept textual.
struct SuspectToken {
  trace::UserId user = 0;
  double score_value = 0.0;   ///< parsed copy, ordering only
  std::string score_text;     ///< verbatim backend token
  std::string checkins_text;  ///< verbatim backend token
};

/// The suspect rows of one backend body
/// ({"k":K,"suspects":[{"user":U,"score":S,"checkins":C},...]}). Throws
/// std::invalid_argument when the body has no suspects array, a cut row,
/// or a row without its user, score or checkins: an unreadable answer is a
/// failed backend, never a silently shorter merge.
std::vector<SuspectToken> extract_suspects(std::string_view body) {
  const auto bad = [] {
    return std::invalid_argument("suspects JSON: unreadable body");
  };
  std::size_t p = body.find("\"suspects\":[");
  if (p == std::string_view::npos) throw bad();
  p += 12;
  std::vector<SuspectToken> out;
  while (p < body.size() && body[p] != ']') {
    const std::size_t open = body.find('{', p);
    const std::size_t close = body.find('}', open);
    if (close == std::string_view::npos) throw bad();
    const std::string_view obj = body.substr(open, close - open + 1);
    SuspectToken token;
    const std::string_view user = json_number_token(obj, "user");
    const std::string_view score = json_number_token(obj, "score");
    const std::string_view checkins = json_number_token(obj, "checkins");
    if (!trace::parse_int(user, token.user) ||
        !trace::parse_double(score, token.score_value) || checkins.empty()) {
      throw bad();
    }
    token.score_text.assign(score);
    token.checkins_text.assign(checkins);
    out.push_back(std::move(token));
    p = close + 1;
  }
  if (p >= body.size()) throw bad();  // the array never closed
  return out;
}

}  // namespace

/// Cached cluster_* metric handles; per-backend vectors are ring-ordered
/// and stay valid across replace() because labels key on the stable name.
struct Router::Metrics {
  obs::Gauge* backends = nullptr;
  std::vector<obs::Gauge*> up;
  std::vector<obs::Gauge*> state;
  std::vector<obs::Gauge*> buffered;
  std::vector<obs::Gauge*> spool_bytes;
  std::vector<obs::Gauge*> spool_records;
  std::vector<obs::Gauge*> spool_age;
  std::vector<obs::Counter*> fwd_records;
  std::vector<obs::Counter*> fwd_dropped;
  std::vector<obs::Counter*> superseded;
  std::vector<obs::Counter*> reconnects;
  std::vector<obs::Counter*> probe_failures;
  std::vector<obs::Counter*> backend_errors;
  std::vector<std::uint64_t> dropped_seen;     ///< reconcile watermark
  std::vector<std::uint64_t> superseded_seen;  ///< reconcile watermark
  std::vector<std::uint64_t> reconnects_seen;  ///< reconcile watermark
  obs::Counter* rec_forwarded = nullptr;
  obs::Counter* rec_replayed = nullptr;
  obs::Counter* rec_malformed = nullptr;
  obs::Counter* pauses = nullptr;
};

Router::Router(RouteConfig config)
    : config_(std::move(config)), ring_(RingConfig{config_.vnodes}) {
  if (config_.backends.empty()) {
    throw std::invalid_argument("Router: at least one backend is required");
  }
  for (BackendAddr& b : config_.backends) {
    if (b.name.empty()) {
      b.name = b.host + ":" + std::to_string(b.ingest_port);
    }
    ring_.add_backend(b.name);  // rejects duplicates
    forwarders_.push_back(std::make_unique<Forwarder>(b));
  }
  hub_.config = config_;
  route_scratch_.resize(forwarders_.size());
  health_.resize(forwarders_.size());
  if (!config_.net_faults.empty()) {
    fault_injector_.emplace(config_.net_faults);
  }
  for (const auto& f : forwarders_) {
    if (fault_injector_) f->set_fault_injector(&*fault_injector_);
    f->set_connect_timeout_ms(to_ms(config_.probe_timeout_s));
  }
  quarantine_.emplace(config_.quarantine);
  if (config_.metrics) register_metrics();
}

Router::~Router() = default;

void Router::register_metrics() {
  obs::Registry& r = obs::registry();
  metrics_ = std::make_unique<Metrics>();
  Metrics& m = *metrics_;
  m.backends = &r.gauge("cluster_backends",
                        "Backends configured on the hash ring");
  m.backends->set(static_cast<std::int64_t>(forwarders_.size()));
  for (const auto& f : forwarders_) {
    const obs::Labels label{{"backend", f->addr().name}};
    m.up.push_back(&r.gauge(
        "cluster_backend_up",
        "Forwarder connection state per backend (1 up, 0 down)", label));
    m.state.push_back(&r.gauge(
        "cluster_backend_state",
        "Health state machine per backend (0 down, 1 recovering, "
        "2 suspect, 3 up)", label));
    m.buffered.push_back(&r.gauge(
        "cluster_backend_buffered_bytes",
        "Unsent bytes queued for a backend while its queue drains", label));
    m.spool_bytes.push_back(&r.gauge(
        "cluster_spool_bytes",
        "Bytes held for a down or recovering backend", label));
    m.spool_records.push_back(&r.gauge(
        "cluster_spool_records",
        "Records held for a down or recovering backend", label));
    m.spool_age.push_back(&r.gauge(
        "cluster_spool_age_seconds",
        "Seconds a backend's queue has held records (0 when draining)", label));
    m.fwd_records.push_back(&r.counter(
        "cluster_forward_records_total",
        "Records forwarded to each backend", label));
    m.fwd_dropped.push_back(&r.counter(
        "cluster_forward_dropped_total",
        "Records lost at deliberate teardown with the backend still "
        "unable to absorb them (the only counted-loss path; spool "
        "overflow backpressures instead)", label));
    m.superseded.push_back(&r.counter(
        "cluster_spool_superseded_total",
        "Spooled records discarded because a backend restart made the "
        "client re-send authoritative (re-delivered, not lost)", label));
    m.reconnects.push_back(&r.counter(
        "cluster_reconnects_total",
        "Successful forwarder reconnects after a severed connection", label));
    m.probe_failures.push_back(&r.counter(
        "cluster_probe_failures_total",
        "Health probes that failed (connect/read deadline, non-200, or "
        "malformed response)", label));
    m.backend_errors.push_back(&r.counter(
        "cluster_backend_errors_total",
        "Failed control-plane calls to a backend (scrapes, fan-outs, "
        "proxies)", label));
    m.dropped_seen.push_back(0);
    m.superseded_seen.push_back(0);
    m.reconnects_seen.push_back(0);
  }
  static constexpr std::string_view kRecordHelp =
      "Ingest records seen by the router, by outcome: forwarded to the "
      "owning backend, replayed (epoch-covered prefix of a client "
      "re-send), malformed (no routing key; dead-lettered)";
  m.rec_forwarded = &r.counter("cluster_ingest_records_total", kRecordHelp,
                               {{"result", "forwarded"}});
  m.rec_replayed = &r.counter("cluster_ingest_records_total", kRecordHelp,
                              {{"result", "replayed"}});
  m.rec_malformed = &r.counter("cluster_ingest_records_total", kRecordHelp,
                               {{"result", "malformed"}});
  m.pauses = &r.counter(
      "cluster_backpressure_pauses_total",
      "Times ingest reads were suspended because a backend buffer "
      "crossed the high-water mark");
  static constexpr std::string_view kConnHelp =
      "Connections accepted by the router, by listener kind";
  serve::ConnMetrics& c = hub_.metrics;
  c.accepted[0] = &r.counter("cluster_connections_total", kConnHelp,
                             {{"kind", "ingest"}});
  c.accepted[1] = &r.counter("cluster_connections_total", kConnHelp,
                             {{"kind", "http"}});
  c.requests_family = "cluster_http_requests_total";
  c.requests_help =
      "Router control-plane requests, by route and response status";
  for (std::size_t i = 0; i < serve::kRouteCount; ++i) {
    (void)c.requests(static_cast<Route>(i), 200);
  }
}

void Router::start() {
  if (started_) throw std::logic_error("Router::start called twice");
  for (const auto& f : forwarders_) {
    if (!f->connect()) {
      throw NetError("route: backend '" + f->addr().name +
                     "' unreachable at " + f->addr().host + ":" +
                     std::to_string(f->addr().ingest_port));
    }
  }
  // Learn each backend's instance id synchronously (one deadline-bounded
  // probe per backend) so a ready backend is up before the first ingest
  // byte, and the very first asynchronous probe can already distinguish a
  // restart from a blip.
  const Clock::time_point now = Clock::now();
  const int timeout_ms = to_ms(config_.probe_timeout_s);
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    Forwarder& f = *forwarders_[i];
    BackendHealth& h = health_[i];
    try {
      const serve::HttpResponse resp = serve::http_get_deadline(
          f.addr().host, f.addr().http_port, "/readyz", timeout_ms);
      if (resp.status == 200) {
        f.set_state(BackendState::kUp);
        h.instance = resp.header("Geovalid-Instance");
      }
    } catch (const NetError&) {
      // Not ready yet: stays recovering; the probe loop promotes it.
    }
    h.next_probe_at =
        now + std::chrono::milliseconds(to_ms(config_.probe_interval_s));
  }
  hub_.listen();
  started_ = true;
}

void Router::count_malformed() {
  ++stats_.records_malformed;
  if (metrics_) metrics_->rec_malformed->inc();
}

Router::UserRoute& Router::route_of(trace::UserId user) {
  const auto [it, fresh] = users_.try_emplace(user);
  if (fresh) it->second.owner = ring_.owner_index(user);
  return it->second;
}

void Router::on_line(std::string_view text, bool truncated) {
  if (text.empty() && !truncated) return;  // blank keepalive line
  const std::optional<trace::UserId> user =
      truncated ? std::nullopt : route_key(text);
  if (!user) {
    count_malformed();
    quarantine_->record_raw(text, stream::QuarantineReason::kMalformedLine);
    return;
  }
  UserRoute& route = route_of(*user);
  if (route.coverage.arrive()) {
    // Epoch-covered prefix of a full re-send after a rebalance: the
    // owning backend already applied it. This skip is what keeps healthy
    // backends from double-applying while a replaced one catches up.
    ++stats_.records_replayed;
    if (metrics_) metrics_->rec_replayed->inc();
    return;
  }
  const std::size_t owner = route.owner;
  Forwarder& f = *forwarders_[owner];
  // enqueue() cannot lose the record: a down or recovering owner holds it
  // (bounded by run()'s backpressure check) until recovery settles replay.
  f.enqueue(text);
  ++stats_.records_forwarded;
  if (metrics_) {
    metrics_->rec_forwarded->inc();
    metrics_->fwd_records[owner]->inc();
  }
  if (f.buffered() >= kFlushChunkBytes) f.flush();
}

void Router::on_frame(serve::BinaryFrameDecoder::Frame& frame) {
  // Same per-record epoch discipline as the text path — the frame is just
  // a denser envelope. Events that survive the replay skip are bucketed
  // by ring owner; each touched backend then gets exactly one re-encoded
  // sub-frame on its binary channel.
  for (auto& bucket : route_scratch_) bucket.clear();
  for (const stream::Event& e : frame.events) {
    UserRoute& route = route_of(e.user);
    if (route.coverage.arrive()) {
      ++stats_.records_replayed;
      if (metrics_) metrics_->rec_replayed->inc();
      continue;
    }
    route_scratch_[route.owner].push_back(e);
  }
  for (std::size_t owner = 0; owner < route_scratch_.size(); ++owner) {
    const std::vector<stream::Event>& bucket = route_scratch_[owner];
    if (bucket.empty()) continue;
    frame_scratch_.clear();
    serve::append_binary_frame(frame_scratch_, bucket);
    Forwarder& f = *forwarders_[owner];
    f.enqueue_frame(frame_scratch_, bucket.size());
    stats_.records_forwarded += bucket.size();
    if (metrics_) {
      metrics_->rec_forwarded->inc(bucket.size());
      metrics_->fwd_records[owner]->inc(bucket.size());
    }
    if (f.buffered() >= kFlushChunkBytes) f.flush();
  }
}

void Router::on_frame_error(const serve::FrameError& error) {
  // One rejected frame = one malformed ingest record: its claimed record
  // count is exactly what cannot be trusted.
  count_malformed();
  quarantine_->record_raw(error.detail,
                          stream::QuarantineReason::kMalformedFrame);
}

HttpReply Router::handle_readyz() {
  // Per-backend verdict: the probe-driven state machine first (a backend
  // the router cannot forward to is not ready, whatever its own /readyz
  // says), then a live deadline-bounded probe for up backends.
  std::string not_ready;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    const Forwarder& f = *forwarders_[i];
    std::string why;
    if (f.state() != BackendState::kUp) {
      why = to_string(f.state());
    } else {
      try {
        if (serve::http_get_deadline(f.addr().host, f.addr().http_port,
                                     "/readyz",
                                     to_ms(config_.probe_timeout_s))
                .status != 200) {
          why = "not_ready";
        }
      } catch (const NetError&) {
        why = "unreachable";
        if (metrics_) metrics_->backend_errors[i]->inc();
      }
    }
    if (why.empty()) continue;
    if (!not_ready.empty()) not_ready += ',';
    not_ready += "{\"name\":\"" + f.addr().name + "\",\"state\":\"" + why +
                 "\"}";
  }
  if (not_ready.empty()) return {Route::kReadyz, 200, "ready\n", "text/plain"};
  return {Route::kReadyz, 503, "{\"not_ready\":[" + not_ready + "]}"};
}

std::vector<std::string> Router::fan_out(
    const std::string& method, const std::string& target,
    const std::function<bool(std::size_t, serve::HttpResponse&)>& on_reply,
    const std::function<bool(std::size_t)>& skip) {
  std::vector<std::string> failed;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    const BackendAddr& addr = forwarders_[i]->addr();
    bool ok = false;
    if (!skip || !skip(i)) {
      try {
        serve::HttpResponse resp =
            method == "GET"
                ? serve::http_get_deadline(addr.host, addr.http_port, target,
                                           fanout_deadline_ms())
                : serve::http_post_deadline(addr.host, addr.http_port,
                                            target, fanout_deadline_ms());
        ok = on_reply(i, resp);
      } catch (const NetError&) {
        if (metrics_) metrics_->backend_errors[i]->inc();
      } catch (const std::invalid_argument&) {
        // An answer on_reply cannot read fails its backend, like no answer.
        if (metrics_) metrics_->backend_errors[i]->inc();
      }
    }
    if (!ok) failed.push_back(addr.name);
  }
  return failed;
}

HttpReply Router::handle_metrics() {
  update_backend_gauges();
  // A degraded scrape merges what answered: the missing backend is
  // visible through the router's own cluster_backend_state gauge, so a
  // partial merge is still truthful.
  std::vector<std::string> texts;
  (void)fan_out("GET", "/metrics",
                [&](std::size_t i, serve::HttpResponse& resp) {
                  if (resp.status == 200) {
                    texts.push_back(strip_prometheus(resp.body, "cluster_"));
                  } else if (metrics_) {
                    metrics_->backend_errors[i]->inc();
                  }
                  return resp.status == 200;
                });
  // Only the router's own cluster_* families join the merge: in-process
  // deployments (tests, bench) share one registry with the backends, and
  // re-adding their serve_* families here would double-count them.
  texts.push_back(filter_prometheus(obs::to_prometheus(obs::registry()),
                                    "cluster_"));
  return {Route::kMetrics, 200, merge_prometheus(texts),
          std::string(obs::kPrometheusContentType)};
}

HttpReply Router::handle_summary() {
  std::vector<std::string> bodies;
  const std::vector<std::string> failed =
      fan_out("GET", "/v1/summary", [&](std::size_t, serve::HttpResponse& r) {
        if (r.status != 200) return false;
        (void)flatten_json_numbers(r.body);  // throws on an unreadable body
        bodies.push_back(std::move(r.body));
        return true;
      });
  if (bodies.empty()) {
    // Nothing to merge: the whole cluster is unreachable, error out.
    return {Route::kSummary, 502,
            failed_json("summary fan-out failed", failed)};
  }
  std::string body = merge_summaries(bodies);
  if (!failed.empty()) {
    // Partial sum: a partially-down cluster degrades instead of erroring,
    // and the annotation keeps the understatement explicit.
    std::string annotation = "\"degraded\":";
    append_json_string_array(annotation, failed);
    body.insert(1, annotation + ',');
  }
  return {Route::kSummary, 200, std::move(body)};
}

HttpReply Router::proxy_to_owner(Route route, std::string_view id_text) {
  const std::optional<trace::UserId> id = serve::parse_user_id(id_text);
  if (!id) return {route, 400, "{\"error\":\"bad user id\"}"};
  // The ring owner holds every record of this user, so its answer — 404
  // for an unknown user, 409 for a score without a model — is the
  // cluster's.
  const std::size_t owner = ring_.owner_index(*id);
  const BackendAddr& addr = forwarders_[owner]->addr();
  try {
    serve::HttpResponse resp = serve::http_get_deadline(
        addr.host, addr.http_port,
        "/v1/users/" + std::to_string(*id) +
            (route == Route::kScore ? "/score" : "/verdicts"),
        fanout_deadline_ms());
    return {route, resp.status, std::move(resp.body)};
  } catch (const NetError&) {
    if (metrics_) metrics_->backend_errors[owner]->inc();
    return {route, 502,
            "{\"error\":\"backend unreachable\",\"backend\":\"" + addr.name +
                "\"}"};
  }
}

HttpReply Router::handle_suspects(std::string_view target) {
  const std::optional<std::size_t> k = serve::parse_suspects_k(target);
  if (!k) return {Route::kSuspects, 400, "{\"error\":\"bad k\"}"};
  // Every backend's top-k is a superset of its contribution to the
  // cluster top-k (users never span backends), so fan out the same k and
  // re-rank the union with the backends' own total order.
  std::vector<SuspectToken> merged;
  std::size_t answered = 0;
  bool saw_no_model = false;
  const std::vector<std::string> failed = fan_out(
      "GET", "/v1/suspects?k=" + std::to_string(*k),
      [&](std::size_t, serve::HttpResponse& resp) {
        saw_no_model |= resp.status == 409;
        if (resp.status != 200) return false;
        const std::vector<SuspectToken> rows = extract_suspects(resp.body);
        merged.insert(merged.end(), rows.begin(), rows.end());
        ++answered;
        return true;
      });
  if (answered == 0 && saw_no_model) {
    // Uniform config case: the cluster serves without a model.
    return {Route::kSuspects, 409, "{\"error\":\"serving without a model\"}"};
  }
  if (answered == 0) {
    return {Route::kSuspects, 502,
            failed_json("suspects fan-out failed", failed)};
  }
  std::sort(merged.begin(), merged.end(),
            [](const SuspectToken& a, const SuspectToken& b) {
              if (a.score_value != b.score_value) {
                return a.score_value > b.score_value;
              }
              return a.user < b.user;
            });
  if (merged.size() > *k) merged.resize(*k);
  std::string body = "{\"backends\":" + std::to_string(answered);
  if (!failed.empty()) {
    body += ",\"degraded\":";
    append_json_string_array(body, failed);
  }
  body += ",\"k\":" + std::to_string(*k) + ",\"suspects\":[";
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"user\":" + std::to_string(merged[i].user) + ",\"score\":" +
            merged[i].score_text + ",\"checkins\":" +
            merged[i].checkins_text + "}";
  }
  return {Route::kSuspects, 200, body + "]}"};
}

HttpReply Router::handle_checkpoint() {
  // Buffered records must reach the backends first, or the fanned-out
  // checkpoints would not cover everything the router has accepted.
  flush_all_blocking(fanout_deadline_ms());
  std::string ok_entries;
  const std::vector<std::string> failed = fan_out(
      "POST", "/admin/checkpoint",
      [&](std::size_t i, serve::HttpResponse& resp) {
        if (resp.status == 200) {
          append_backend_response(ok_entries, forwarders_[i]->addr().name,
                                  resp.body);
        }
        return resp.status == 200;
      },
      [&](std::size_t i) {
        // Holding records (down, recovering, or severed by the flush
        // deadline): its checkpoint could not cover the shard.
        return !forwarders_[i]->sending();
      });
  if (!failed.empty()) {
    return {Route::kCheckpoint, 502,
            failed_json("checkpoint fan-out failed", failed)};
  }
  return {Route::kCheckpoint, 200,
          "{\"status\":\"ok\",\"backends\":[" + ok_entries + "]}"};
}

HttpReply Router::handle_replace(const std::string& name,
                                 const std::string& json) {
  const auto reply = [](int status, std::string body) {
    return HttpReply(Route::kBackends, status, std::move(body));
  };
  std::size_t index = 0;
  while (index < forwarders_.size() &&
         forwarders_[index]->addr().name != name) {
    ++index;
  }
  if (index == forwarders_.size()) {
    return reply(404, "{\"error\":\"unknown backend\"}");
  }
  double ingest = 0.0;
  double http = 0.0;
  try {
    for (const auto& [path, value] : flatten_json_numbers(json)) {
      if (path == "ingest_port") ingest = value;
      if (path == "http_port") http = value;
    }
  } catch (const std::invalid_argument&) {
    return reply(400, "{\"error\":\"malformed body\"}");
  }
  if (ingest < 1.0 || ingest > 65535.0 || http < 1.0 || http > 65535.0) {
    return reply(400,
                 "{\"error\":\"body must carry ingest_port and http_port "
                 "(1-65535)\"}");
  }
  BackendAddr addr;
  addr.name = name;
  addr.host = json_string_field(json, "host")
                  .value_or(forwarders_[index]->addr().host);
  addr.ingest_port = static_cast<std::uint16_t>(ingest);
  addr.http_port = static_cast<std::uint16_t>(http);
  if (!forwarders_[index]->replace(addr)) {
    return reply(502, "{\"error\":\"replacement unreachable\"}");
  }

  const std::uint64_t reset_users = begin_new_epoch(index);

  // Fresh health episode for the replacement process: forget the old
  // instance and probe immediately, so the promotion to up (and the
  // spool drain that comes with it) happens within one loop iteration.
  BackendHealth& h = health_[index];
  h.instance.clear();
  h.consecutive_failures = 0;
  h.reconnect_attempts = 0;
  h.phase = BackendHealth::ProbePhase::kIdle;
  h.probe_fd.reset();
  h.next_probe_at = Clock::now();

  return reply(200, "{\"status\":\"replaced\",\"backend\":\"" + name +
                        "\",\"users_reset\":" + std::to_string(reset_users) +
                        "}");
}

std::uint64_t Router::begin_new_epoch(std::size_t index) {
  // New epoch. Everything forwarded so far is folded into the covered
  // prefix for users on healthy backends; users owned by backend `index`
  // reset to zero — its process's own checkpoint-resume skip deduplicates
  // whatever its restored snapshot already covers. Clients must now
  // re-send their full traces (docs/CLUSTER.md runbook).
  //
  // Sever every ingest connection first: bytes still queued on them
  // (kernel buffers, half-decoded lines or frames) are deliveries of the
  // epoch being invalidated. Interpreting them under the cleared arrival
  // table would re-forward an arbitrary mid-trace suffix as if it were a
  // fresh prefix and corrupt the resume skip — the exact at-least-once
  // hole the re-send protocol exists to close.
  core_.sever_ingest();
  std::uint64_t reset_users = 0;
  for (auto& [user, route] : users_) {
    route.coverage.begin_epoch(route.owner == index);
    reset_users += route.owner == index ? 1 : 0;
  }
  return reset_users;
}

int Router::fanout_deadline_ms() const {
  return to_ms(config_.fanout_deadline_s);
}

void Router::check_health_timers(Clock::time_point now) {
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    BackendHealth& h = health_[i];
    Forwarder& f = *forwarders_[i];
    if (h.phase != BackendHealth::ProbePhase::kIdle &&
        now >= h.probe_deadline) {
      finish_probe(i, /*ok=*/false, {});
    }
    if (h.phase == BackendHealth::ProbePhase::kIdle &&
        now >= h.next_probe_at) {
      start_probe(i, now);
    }
    if (!f.connected() && !drain_requested_ && now >= h.next_reconnect_at) {
      if (f.connect()) {
        // Probe immediately and afresh: the instance comparison decides
        // whether the spool drains (same process) or a new epoch starts
        // (restart), and an answer in flight may be the dead process's.
        h.phase = BackendHealth::ProbePhase::kIdle;
        h.probe_fd.reset();
        h.next_probe_at = now;
      } else {
        const std::uint32_t delay = stream::backoff_with_jitter(
            config_.reconnect_backoff_ms, config_.reconnect_backoff_cap_ms,
            h.reconnect_attempts, config_.net_faults.seed, i);
        ++h.reconnect_attempts;
        h.next_reconnect_at = now + std::chrono::milliseconds(delay);
      }
    }
  }
}

void Router::start_probe(std::size_t index, Clock::time_point now) {
  BackendHealth& h = health_[index];
  const BackendAddr& addr = forwarders_[index]->addr();
  // Interval runs probe-start to probe-start, independent of outcome.
  h.next_probe_at =
      now + std::chrono::milliseconds(to_ms(config_.probe_interval_s));
  h.probe_deadline =
      now + std::chrono::milliseconds(to_ms(config_.probe_timeout_s));
  h.probe_in.clear();
  try {
    h.probe_fd = serve::tcp_connect_start(addr.host, addr.http_port);
  } catch (const NetError&) {
    h.phase = BackendHealth::ProbePhase::kIdle;
    on_probe_failure(index);
    return;
  }
  h.phase = BackendHealth::ProbePhase::kConnecting;
}

void Router::probe_io(std::size_t index, short revents) {
  BackendHealth& h = health_[index];
  if (h.phase == BackendHealth::ProbePhase::kIdle || !h.probe_fd.valid()) {
    return;
  }
  const int fd = h.probe_fd.get();
  if ((revents & (POLLERR | POLLNVAL)) != 0) {
    finish_probe(index, /*ok=*/false, {});
    return;
  }
  if (h.phase == BackendHealth::ProbePhase::kConnecting) {
    // The connect settled. A fresh socket's send buffer takes the small
    // request whole, so a refused connect or a short send fails the probe.
    const std::string request =
        serve::build_request(forwarders_[index]->addr().host, "GET", "/readyz");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0 ||
        ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(request.size())) {
      finish_probe(index, /*ok=*/false, {});
      return;
    }
    h.phase = BackendHealth::ProbePhase::kReading;
  }
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n > 0 && h.probe_in.size() + static_cast<std::size_t>(n) <=
                     kMaxProbeResponseBytes) {
      h.probe_in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    // EOF ends the response; an error or an oversized answer fails it.
    bool ok = false;
    std::string instance;
    if (n == 0) {
      try {
        const serve::HttpResponse resp =
            serve::parse_http_response(h.probe_in, "probe");
        ok = resp.status == 200;
        instance = resp.header("Geovalid-Instance");
      } catch (const NetError&) {
        // Malformed or cut short: a failed probe.
      }
    }
    finish_probe(index, ok, std::move(instance));
    return;
  }
}

void Router::finish_probe(std::size_t index, bool ok,
                          std::string instance) {
  BackendHealth& h = health_[index];
  h.phase = BackendHealth::ProbePhase::kIdle;
  h.probe_fd.reset();
  h.probe_in.clear();
  if (ok) {
    on_probe_success(index, std::move(instance));
  } else {
    on_probe_failure(index);
  }
}

void Router::on_probe_success(std::size_t index, std::string instance) {
  BackendHealth& h = health_[index];
  Forwarder& f = *forwarders_[index];
  h.consecutive_failures = 0;

  const bool restarted = !h.instance.empty() && !instance.empty() &&
                         instance != h.instance;
  if (restarted) {
    // The process behind this name changed: the spool's records were
    // applied (at most) by the dead instance, and the new one resumes
    // from its checkpoint. The client re-send is authoritative —
    // discard the spool (counted superseded, not dropped) and start a
    // new epoch so re-sent prefixes replay correctly everywhere.
    if (f.state() == BackendState::kUp ||
        f.state() == BackendState::kSuspect) {
      // A restart that beat our EOF detection: the live-looking
      // connection belongs to a dead process. Drop it and reconnect.
      f.sever();
    }
    (void)f.discard_spool();
    begin_new_epoch(index);
  }
  if (!instance.empty()) h.instance = std::move(instance);

  if (!f.connected()) {
    // Probes pass but the forwarder is not connected yet (e.g. the
    // ingest listener came up a beat after /readyz): reconnect now.
    h.next_reconnect_at = Clock::now();
    return;
  }
  if (f.state() != BackendState::kUp) {
    // Same instance (or first sighting): the backend's applied state
    // includes everything we ever flushed, so the held queue simply
    // drains in arrival order.
    if (f.drain_spool()) {
      f.set_state(BackendState::kUp);
      h.reconnect_attempts = 0;
      f.flush();
    }
    // drain_spool() failure re-severed; the reconnect timer retries.
  }
}

void Router::on_probe_failure(std::size_t index) {
  BackendHealth& h = health_[index];
  Forwarder& f = *forwarders_[index];
  ++h.consecutive_failures;
  if (metrics_) metrics_->probe_failures[index]->inc();
  if (!f.connected()) {
    f.set_state(BackendState::kDown);
    return;
  }
  if (h.consecutive_failures >= config_.probe_down_after) {
    // The connection still looks live but the process has stopped
    // answering: a hung backend will never flush its queue. Sever so the
    // queue holds and recovery owns it.
    f.sever();
    h.reconnect_attempts = 0;
    h.next_reconnect_at = Clock::now();
  } else if (f.state() == BackendState::kUp) {
    f.set_state(BackendState::kSuspect);
  }
}

HttpReply Router::on_request(const serve::HttpRequest& req) {
  const serve::RouteMatch m = serve::match_route(req);
  if (!m.method_ok) return serve::method_not_allowed(m.route);
  switch (m.route) {
    case Route::kHealthz:
      return {m.route, 200, "ok\n", "text/plain"};
    case Route::kReadyz:
      if (!drain_requested_) return handle_readyz();
      return {m.route, 503, "{\"error\":\"draining\"}"};
    case Route::kMetrics:
      return handle_metrics();
    case Route::kSummary:
      return handle_summary();
    case Route::kVerdicts:
    case Route::kScore:
      return proxy_to_owner(m.route, m.arg);
    case Route::kSuspects:
      return handle_suspects(req.target);
    case Route::kCheckpoint:
      return handle_checkpoint();
    case Route::kDrain: {
      if (drain_done_) return drain_reply_;
      // Deferred: the router stops accepting ingest, reads the connected
      // streams to EOF, pushes every buffered record, closes the
      // forwarder connections (EOF to the backends) and fans the drain
      // out — the caller is answered only when the whole cluster has
      // quiesced (complete_drain()).
      drain_requested_ = true;
      HttpReply reply(m.route, 200, {});
      reply.deferred = true;
      return reply;
    }
    case Route::kBackends:
      return handle_replace(std::string(m.arg), req.body);
    case Route::kOther:
      break;
  }
  return {};
}

void Router::update_backend_gauges() {
  const Clock::time_point now = Clock::now();
  std::uint64_t dropped_total = 0;
  std::uint64_t superseded_total = 0;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    const Forwarder& f = *forwarders_[i];
    dropped_total += f.dropped;
    superseded_total += f.superseded;
    if (!metrics_) continue;
    metrics_->up[i]->set(f.connected() ? 1 : 0);
    metrics_->state[i]->set(static_cast<std::int64_t>(f.state()));
    metrics_->buffered[i]->set(static_cast<std::int64_t>(f.buffered()));
    metrics_->spool_bytes[i]->set(
        static_cast<std::int64_t>(f.spool_bytes()));
    metrics_->spool_records[i]->set(
        static_cast<std::int64_t>(f.spool_records()));
    metrics_->spool_age[i]->set(
        static_cast<std::int64_t>(f.spool_age_seconds(now)));
    obs::sync_counter(*metrics_->fwd_dropped[i], f.dropped,
                      metrics_->dropped_seen[i]);
    obs::sync_counter(*metrics_->superseded[i], f.superseded,
                      metrics_->superseded_seen[i]);
    obs::sync_counter(*metrics_->reconnects[i], f.reconnects,
                      metrics_->reconnects_seen[i]);
  }
  stats_.records_dropped = dropped_total;
  stats_.records_superseded = superseded_total;
}

bool Router::flush_all_blocking(int deadline_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  bool all = true;
  for (const auto& f : forwarders_) {
    while (f->wants_write() || f->wants_binary_write()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now())
              .count();
      if (remaining <= 0) {
        f->sever();
        all = false;
        break;
      }
      pollfd ps[2];
      nfds_t nfds = 0;
      if (f->wants_write()) ps[nfds++] = {f->fd(), POLLOUT, 0};
      if (f->wants_binary_write()) {
        ps[nfds++] = {f->binary_fd(), POLLOUT, 0};
      }
      if (::poll(ps, nfds, static_cast<int>(remaining)) < 0 &&
          errno != EINTR) {
        f->sever();
        all = false;
        break;
      }
      f->flush();
      if (!f->sending()) {
        all = false;
        break;
      }
    }
  }
  update_backend_gauges();
  return all;
}

void Router::complete_drain() {
  flush_all_blocking(fanout_deadline_ms());
  std::vector<std::string> failed;
  for (const auto& f : forwarders_) {
    // A backend that still holds queued or spooled records at drain time
    // cannot have applied them: name it failed (close() counts the loss).
    if (f->buffered() > 0 || f->spool_records() > 0) {
      failed.push_back(f->addr().name);
    }
    f->close();  // EOF: the backend's drain can now see ingest quiesce
  }
  std::string ok_entries;
  const std::vector<std::string> refused = fan_out(
      "POST", "/admin/drain", [&](std::size_t i, serve::HttpResponse& resp) {
        if (resp.status == 200) {
          append_backend_response(ok_entries, forwarders_[i]->addr().name,
                                  resp.body);
        }
        return resp.status == 200;
      });
  for (const std::string& name : refused) {
    if (std::find(failed.begin(), failed.end(), name) == failed.end()) {
      failed.push_back(name);
    }
  }
  // Not atomic on failure: backends that answered 200 have drained and
  // exited; the rest are listed for the operator (docs/CLUSTER.md, failure
  // semantics).
  drain_reply_ =
      failed.empty()
          ? HttpReply(Route::kDrain, 200,
                      "{\"status\":\"drained\",\"backends\":[" + ok_entries +
                          "]}")
          : HttpReply(Route::kDrain, 502,
                      failed_json("drain fan-out failed", failed));
  drain_done_ = true;
  core_.answer_deferred(drain_reply_);
}

RouteStats Router::run(const std::atomic<bool>* stop) {
  if (!started_) throw std::logic_error("Router::run before start()");

  std::vector<pollfd> pollfds;
  std::vector<std::size_t> tags;  // parallel to pollfds

  while (true) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    if (drain_done_ && !core_.answering()) break;

    // Backpressure with hysteresis: pause client reads when any backend
    // queue crosses its mark — the high-water mark while it drains, the
    // spool budget while it holds (a long outage fills the spool budget
    // instead of router memory; the overflow is backpressure, never a
    // drop) — resume once all are under half of each.
    bool over = false;
    bool under = true;
    for (const auto& f : forwarders_) {
      if (f->buffered() > config_.backend_buffer_bytes ||
          f->spool_bytes() > config_.spool_bytes) {
        over = true;
      }
      if (f->buffered() > config_.backend_buffer_bytes / 2 ||
          f->spool_bytes() > config_.spool_bytes / 2) {
        under = false;
      }
    }
    if (!paused_ && over) {
      paused_ = true;
      if (metrics_) metrics_->pauses->inc();
    } else if (paused_ && under) {
      paused_ = false;
    }

    pollfds.clear();
    tags.clear();
    for (std::size_t i = 0; i < forwarders_.size(); ++i) {
      const Forwarder& f = *forwarders_[i];
      if (!f.connected()) continue;
      // POLLIN watches for the backend closing its end (drain/death);
      // POLLOUT drains the queue. The binary channel, once open, gets
      // the same treatment under its own sentinel range.
      short events = POLLIN;
      if (f.wants_write()) events |= POLLOUT;
      pollfds.push_back({f.fd(), events, 0});
      tags.push_back(kForwarderBase + i);
      if (f.binary_fd() >= 0) {
        short bin_events = POLLIN;
        if (f.wants_binary_write()) bin_events |= POLLOUT;
        pollfds.push_back({f.binary_fd(), bin_events, 0});
        tags.push_back(kForwarderBinBase + i);
      }
    }
    for (std::size_t i = 0; i < health_.size(); ++i) {
      const BackendHealth& h = health_[i];
      if (h.phase == BackendHealth::ProbePhase::kIdle ||
          !h.probe_fd.valid()) {
        continue;
      }
      const short events =
          h.phase == BackendHealth::ProbePhase::kReading ? POLLIN
                                                         : POLLOUT;
      pollfds.push_back({h.probe_fd.get(), events, 0});
      tags.push_back(kProbeBase + i);
    }
    // A paused router leaves its ingest connections unread (their bytes
    // queue in the kernel) and stops accepting new ones.
    core_.add_to_poll(pollfds, tags, !drain_requested_ && !paused_,
                      /*accept_http=*/true, /*read_ingest=*/!paused_);

    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()),
                             kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) {
      throw NetError(std::string("poll: ") + std::strerror(errno));
    }
    const Clock::time_point polled_at = Clock::now();

    for (std::size_t i = 0; i < pollfds.size(); ++i) {
      if (pollfds[i].revents == 0) continue;
      const std::size_t tag = tags[i];
      if (core_.service(tag, pollfds[i].revents)) continue;
      if (tag >= kForwarderBinBase) {
        const bool binary = tag < kForwarderBase;
        Forwarder& f = *forwarders_[binary ? tag - kForwarderBinBase
                                           : tag - kForwarderBase];
        if (!f.connected()) continue;
        if ((pollfds[i].revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
          f.sever();
          continue;
        }
        if ((pollfds[i].revents & POLLIN) != 0) {
          // The backend never sends on its ingest sockets; readable here
          // means EOF or reset (either channel — one dead channel means
          // the process behind both is gone).
          char probe[256];
          const ssize_t n =
              ::recv(binary ? f.binary_fd() : f.fd(), probe, sizeof(probe),
                     0);
          if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                         errno != EINTR)) {
            f.sever();
            continue;
          }
        }
        if ((pollfds[i].revents & POLLOUT) != 0) f.flush();
        continue;
      }
      probe_io(tag - kProbeBase, pollfds[i].revents);
    }

    if (!drain_done_) check_health_timers(Clock::now());

    core_.sweep_and_reap(polled_at);

    if (drain_requested_ && !drain_done_ && hub_.open_ingest.load() == 0) {
      complete_drain();
    }

    update_backend_gauges();
  }

  // Teardown. The drain path already flushed and closed everything; the
  // stop path (SIGTERM) pushes what it can and leaves the backends up.
  hub_.ingest_listener.reset();
  hub_.http_listener.reset();
  core_.clear();
  stats_.http_requests = core_.requests();
  stats_.connections = core_.accepted();
  if (drain_done_) {
    stats_.exit = RouteExit::kDrained;
  } else {
    flush_all_blocking(5'000);
    for (const auto& f : forwarders_) f->close();
    stats_.exit = RouteExit::kStopped;
  }
  update_backend_gauges();
  quarantine_->flush();
  return stats_;
}

}  // namespace geovalid::cluster
