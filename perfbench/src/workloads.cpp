#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "cluster/router.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "detect/detector.h"
#include "harness.h"
#include "layers.h"
#include "loadgen.h"
#include "match/pipeline.h"
#include "score/model.h"
#include "serve/net.h"
#include "serve/server.h"
#include "stream/replay.h"
#include "synth/study_generator.h"
#include "trace/csv.h"
#include "trace/visit_detector.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using namespace geovalid;
using namespace std::chrono_literals;
namespace fs = std::filesystem;

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Timed passes per run at least, after one warm-up pass.
constexpr std::size_t kMinPasses = 3;
/// serve_mixed offered ingest: text at about half the capacity of its
/// 1-reactor, 2-shard server with scoring, checkpoints and queries on
/// (1.2 M events/s unpaced on a 4-core x86 box). To re-measure on another
/// box, set it to 2e7 (unpaced in effect) and halve the events_per_s seen.
constexpr double kServeMixedRate = 6e5;
/// serve_mixed queries per second: the cadence of the repository's own
/// query load, `geovalid_loadgen --probe-suspects`, which sends one scan
/// and one per-user lookup about every 100 ms (src/serve/client.cpp).
constexpr double kServeMixedQps = 20.0;
/// Above this p99 lateness the generator, not the server, set the
/// schedule (README.md).
constexpr double kLateLimitMs = 5.0;
constexpr auto kLagSample = 1ms;
/// Processed-count polling period of the unpaced workloads' clock.
constexpr auto kProgressPoll = 200us;
/// A stuck pass fails the run instead of hanging it.
constexpr auto kPassDeadline = 60s;
constexpr int kHttpDeadlineMs = 60000;
/// Users whose served score bodies serve_mixed checks bit for bit.
constexpr std::size_t kScoreChecks = 16;

enum class Kind { kBatchAudit, kIngestBinary, kServeMixed, kClusterMixed };

Kind parse_kind(const std::string& name) {
  if (name == "batch_audit") return Kind::kBatchAudit;
  if (name == "ingest_binary") return Kind::kIngestBinary;
  if (name == "serve_mixed") return Kind::kServeMixed;
  if (name == "cluster_mixed") return Kind::kClusterMixed;
  throw std::invalid_argument("unknown workload: " + name);
}

/// A temporary directory under the working directory (the benchmark reads
/// and writes only inside the tree it runs in), removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::current_path() / ".bench_tmp" /
            (tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::remove(path_.parent_path(), ec);  // only succeeds once empty
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Everything set-up derives from the seed.
struct Prepared {
  explicit Prepared(const std::string& tag) : dir(tag) {}

  TempDir dir;
  trace::Dataset dataset;
  std::vector<stream::Event> events;  ///< merged order (stream workloads)
  std::uint64_t study_events = 0;     ///< GPS samples + checkins
  std::size_t checkins = 0;
  std::size_t users = 0;
  match::Partition reference;  ///< batch partition (stream workloads)
  std::optional<match::ValidationResult> batch_reference;  ///< batch_audit
  WireLoad load;
  std::optional<score::ScoreModel> model;  ///< serve_mixed
  fs::path model_path;
  std::vector<std::pair<trace::UserId, double>> expected_scores;
  std::vector<LookupUser> lookup_users;  ///< sorted by first checkin
};

bool same_partition(const match::Partition& a, const match::Partition& b) {
  return a.honest == b.honest && a.extraneous == b.extraneous &&
         a.missing == b.missing && a.checkins == b.checkins &&
         a.visits == b.visits && a.by_class == b.by_class;
}

bool same_validation(const match::ValidationResult& a,
                     const match::ValidationResult& b) {
  if (!same_partition(a.totals, b.totals) || a.users.size() != b.users.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.users.size(); ++i) {
    const match::UserValidation& x = a.users[i];
    const match::UserValidation& y = b.users[i];
    if (x.id != y.id || x.labels != y.labels ||
        x.match.visit_matched != y.match.visit_matched ||
        x.match.checkins.size() != y.match.checkins.size()) {
      return false;
    }
    for (std::size_t j = 0; j < x.match.checkins.size(); ++j) {
      const match::CheckinMatch& m = x.match.checkins[j];
      const match::CheckinMatch& n = y.match.checkins[j];
      if (m.visit != n.visit || m.dt != n.dt || m.dist_m != n.dist_m) {
        return false;
      }
    }
  }
  return true;
}

std::unique_ptr<Prepared> setup(Kind kind, const Options& o,
                                std::size_t threads) {
  auto p = std::make_unique<Prepared>(o.workload);
  synth::StudyConfig config =
      o.preset == "tiny" ? synth::tiny_preset() : synth::primary_preset();
  config.seed = o.seed;
  p->dataset = synth::generate_study(config).dataset;
  p->users = p->dataset.user_count();
  for (const trace::UserRecord& u : p->dataset.users()) {
    p->checkins += u.checkins.size();
    p->study_events += u.checkins.size() + u.gps.size();
  }
  core::ThreadPool pool(threads);

  if (kind == Kind::kBatchAudit) {
    const fs::path csv = p->dir.path() / "csv";
    trace::write_dataset_csv(p->dataset, csv);
    p->batch_reference =
        core::analyze_csv(csv, "bench", true, {}, {}, 1).validation;
    return p;
  }

  // The stream reference: visits from the engine's own detector config,
  // then the batch matcher.
  const trace::VisitDetector detector(stream::StreamEngineConfig{}.detector);
  for (trace::UserRecord& u : p->dataset.mutable_users()) {
    u.visits = detector.detect(u.gps);
  }
  const match::ValidationResult validation =
      match::validate_dataset(p->dataset, {}, {}, pool);
  p->reference = validation.totals;
  p->events = stream::flatten_dataset(p->dataset);

  switch (kind) {
    case Kind::kIngestBinary:
      p->load = encode_load(p->events, std::vector<Wire>(4, Wire::kBinary),
                            false);
      break;
    case Kind::kClusterMixed:
      p->load = encode_load(
          p->events, {Wire::kText, Wire::kText, Wire::kBinary, Wire::kBinary},
          false);
      break;
    case Kind::kServeMixed: {
      p->load = encode_load(p->events, std::vector<Wire>(3, Wire::kText), true);
      const detect::TrainedDetector det =
          detect::train_detector(p->dataset, validation);
      p->model.emplace(score::ScoreModel::from_detector(det));
      p->model_path = p->dir.path() / "model.gvsm";
      score::save_model(p->model_path, *p->model);
      std::vector<const trace::UserRecord*> candidates;
      for (const trace::UserRecord& u : p->dataset.users()) {
        if (!u.checkins.empty()) candidates.push_back(&u);
      }
      std::unordered_set<trace::UserId> seen;
      for (std::size_t k = 0; k < p->events.size(); ++k) {
        const stream::Event& e = p->events[k];
        if (e.kind == stream::Event::Kind::kCheckin && seen.insert(e.user).second) {
          p->lookup_users.push_back({k, e.user});
        }
      }
      std::mt19937_64 rng(o.seed);
      std::shuffle(candidates.begin(), candidates.end(), rng);
      candidates.resize(std::min(candidates.size(), kScoreChecks));
      for (const trace::UserRecord* u : candidates) {
        // Summed in checkin order, the scorer's order.
        double sum = 0.0;
        const std::vector<double> scores = det.score_user(*u);
        for (const double s : scores) sum += s;
        p->expected_scores.emplace_back(u->id,
                                        sum / static_cast<double>(scores.size()));
      }
      break;
    }
    case Kind::kBatchAudit:
      break;
  }
  return p;
}

/// A serve::Server or cluster::Router whose listeners are bound on
/// construction; launch() runs its event loop on a thread of its own.
template <typename Daemon>
class Running {
 public:
  template <typename Config>
  explicit Running(Config config) : daemon_(std::move(config)) {
    daemon_.start();
  }
  ~Running() { join(false); }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;

  void launch() {
    thread_ = std::thread([this] {
      try {
        (void)daemon_.run(&stop_);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: event loop failed: " << e.what() << "\n";
        failed_.store(true);
      }
    });
  }
  /// After a completed /admin/drain run() returns by itself; otherwise
  /// the stop flag ends it.
  void join(bool drained) {
    if (!drained) stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] bool failed() const { return failed_.load(); }
  [[nodiscard]] Daemon& get() { return daemon_; }

 private:
  Daemon daemon_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

using RunningServer = Running<serve::Server>;
using RunningRouter = Running<cluster::Router>;

serve::ServeConfig serve_config(std::size_t reactors, std::size_t shards,
                                bool metrics) {
  serve::ServeConfig c;
  c.reactors = reactors;
  c.engine.shards = shards;
  c.metrics = metrics;
  c.engine.metrics = metrics;
  c.idle_timeout_s = 0;
  return c;
}

bool post_drain(std::uint16_t http_port) {
  try {
    return serve::http_post_deadline("127.0.0.1", http_port, "/admin/drain",
                                     kHttpDeadlineMs)
               .status == 200;
  } catch (const serve::NetError&) {
    return false;
  }
}

/// Served /v1/users/{id}/score body's "score" equals `expected` bit for bit.
bool score_matches(std::uint16_t http_port, trace::UserId user,
                   double expected) {
  try {
    const serve::HttpResponse r = serve::http_get_deadline(
        "127.0.0.1", http_port, "/v1/users/" + std::to_string(user) + "/score",
        kHttpDeadlineMs);
    const std::size_t at = r.body.find("\"score\":");
    if (r.status != 200 || at == std::string::npos) return false;
    const char* first = r.body.data() + at + 8;
    double served = 0.0;
    const auto [ptr, ec] =
        std::from_chars(first, r.body.data() + r.body.size(), served);
    return ec == std::errc{} && served == expected;
  } catch (const serve::NetError&) {
    return false;
  }
}

/// Events a server may hold back without fault: each reactor keeps a
/// partial staging batch (under batch_size events) per shard until the
/// next quiesce point, and the last one comes only with the drain, after
/// the reactor wakes from a poll tick of up to 100 ms. The pass clock
/// therefore stops once the sender is done and at most this many events
/// are unprocessed; the drain then makes the count exact, and the run
/// checks that it is.
std::uint64_t staging_slack(std::size_t reactors, std::size_t shards) {
  return reactors * shards * (stream::StreamEngineConfig{}.batch_size - 1);
}

bool pass_done(std::uint64_t processed, std::uint64_t total,
               std::uint64_t slack, const std::atomic<bool>& sender_done) {
  return sender_done.load() && processed + slack >= total;
}

/// Polls the server-side processed count until the pass is done.
template <typename Fn>
std::optional<Clock::time_point> wait_processed(
    Fn&& processed, std::uint64_t total, std::uint64_t slack,
    const std::atomic<bool>& sender_done) {
  const Clock::time_point deadline = Clock::now() + kPassDeadline;
  while (true) {
    if (pass_done(processed(), total, slack, sender_done)) return Clock::now();
    if (Clock::now() > deadline) return std::nullopt;
    std::this_thread::sleep_for(kProgressPoll);
  }
}

SendStats send_or_fail(std::vector<serve::Fd>& fds, const WireLoad& load,
                       const OpenLoop* schedule) {
  try {
    return send_load(fds, load, schedule);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: sender failed: " << e.what() << "\n";
    SendStats failed;
    failed.ok = false;
    return failed;
  }
}

struct Pass {
  double seconds = 0.0;  ///< the pass clock
  double cpu_s = 0.0;
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double send_s = 0.0;  ///< first byte to last byte accepted (unpaced)
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  std::vector<QuerySample> queries;
};

/// Books an ingest pass: every event sent is one operation, and events the
/// server never processed are failures.
void settle_ingest(Pass& pass, const SendStats& send,
                   std::optional<Clock::time_point> done, std::uint64_t events,
                   std::uint64_t processed, bool outputs_ok) {
  pass.attempted += events;
  pass.failed += events - std::min(events, processed);
  pass.ok = pass.ok && outputs_ok && send.ok && done.has_value() &&
            processed == events;
  if (pass.ok) {
    pass.seconds = seconds_between(send.first_byte, *done);
    pass.send_s = seconds_between(send.first_byte, send.last_byte);
  }
}

Pass batch_pass(const Prepared& p, std::size_t threads) {
  Pass pass;
  pass.attempted = 1;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const core::StudyAnalysis a =
      core::analyze_csv(p.dir.path() / "csv", "bench", true, {}, {}, threads);
  pass.seconds = seconds_between(t0, Clock::now());
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.ok = same_validation(a.validation, *p.batch_reference);
  pass.failed = pass.ok ? 0 : 1;
  return pass;
}

Pass ingest_binary_pass(const Prepared& p, bool trace) {
  Pass pass;
  RunningServer srv(serve_config(2, 2, trace));
  std::vector<serve::Fd> fds = connect_load(srv.get().ingest_port(), p.load);
  srv.launch();
  stream::StreamEngine& engine = srv.get().engine();
  const std::uint64_t n = p.load.events;
  SendStats send;
  std::atomic<bool> sent{false};
  bool drained = false;
  const double cpu0 = process_cpu_s();
  std::thread sender([&] {
    send = send_or_fail(fds, p.load, nullptr);
    sent.store(true);
    drained = post_drain(srv.get().http_port());
  });
  const auto done = wait_processed([&] { return engine.events_processed(); },
                                   n, staging_slack(2, 2), sent);
  pass.cpu_s = process_cpu_s() - cpu0;
  sender.join();
  srv.join(drained);
  settle_ingest(pass, send, done, n, engine.events_processed(),
                drained && !srv.failed() &&
                    same_partition(engine.partition(), p.reference));
  return pass;
}

Pass serve_mixed_pass(const Prepared& p, const Options& o, std::size_t index) {
  Pass pass;
  serve::ServeConfig config = serve_config(1, 2, o.trace);
  config.model_path = p.model_path;
  config.checkpoint_dir = p.dir.path() / ("checkpoints-" + std::to_string(index));
  RunningServer srv(std::move(config));
  std::vector<serve::Fd> fds = connect_load(srv.get().ingest_port(), p.load);
  srv.launch();
  stream::StreamEngine& engine = srv.get().engine();
  const std::uint16_t http = srv.get().http_port();
  const std::uint64_t n = p.load.events;

  const Clock::time_point t0 = Clock::now() + 20ms;
  const OpenLoop ingest(t0, kServeMixedRate);
  const OpenLoop queries(t0, kServeMixedQps);
  std::atomic<bool> stop{false};
  std::atomic<bool> sent{false};
  SendStats send;
  std::thread sender([&] {
    send = send_or_fail(fds, p.load, &ingest);
    sent.store(true);
  });
  std::thread querier([&] {
    pass.queries = run_queries(http, queries, ingest, p.lookup_users,
                               o.seed * 1000 + index, stop);
  });

  // Lag sampler: lag(t) = t - due(P(t)) about every millisecond.
  std::this_thread::sleep_until(t0);
  const double cpu0 = process_cpu_s();
  const Clock::time_point deadline =
      ingest.due(n) + std::chrono::duration_cast<Clock::duration>(kPassDeadline);
  std::optional<Clock::time_point> done;
  while (true) {
    const Clock::time_point now = Clock::now();
    const std::uint64_t processed = engine.events_processed();
    pass.lag_ms.push_back(ingest.lag_ms(processed, n, now));
    if (pass_done(processed, n, staging_slack(1, 2), sent)) {
      done = now;
      break;
    }
    if (now > deadline) break;
    std::this_thread::sleep_until(now + kLagSample);
  }
  pass.cpu_s = process_cpu_s() - cpu0;
  stop.store(true);
  querier.join();
  sender.join();

  bool outputs_ok = true;
  for (const auto& [user, expected] : p.expected_scores) {
    ++pass.attempted;
    if (!score_matches(http, user, expected)) {
      ++pass.failed;
      outputs_ok = false;
    }
  }
  for (const QuerySample& q : pass.queries) {
    ++pass.attempted;
    if (!q.ok) ++pass.failed;
  }
  pass.late_ms = send.late_ms;
  for (const QuerySample& q : pass.queries) pass.late_ms.push_back(q.late_ms);

  const bool drained = post_drain(http);
  srv.join(drained);
  settle_ingest(pass, send, done, n, engine.events_processed(),
                outputs_ok && drained && !srv.failed() &&
                    same_partition(engine.partition(), p.reference));
  // Paced: the pass runs from the first due time, not the first byte.
  if (pass.ok) pass.seconds = seconds_between(t0, *done);
  return pass;
}

Pass cluster_pass(const Prepared& p, bool trace) {
  Pass pass;
  std::vector<std::unique_ptr<RunningServer>> backends;
  cluster::RouteConfig rc;
  rc.metrics = trace;
  rc.idle_timeout_s = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    backends.push_back(std::make_unique<RunningServer>(serve_config(1, 1, trace)));
    backends.back()->launch();
    cluster::BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = backends.back()->get().ingest_port();
    addr.http_port = backends.back()->get().http_port();
    rc.backends.push_back(std::move(addr));
  }
  RunningRouter router(std::move(rc));
  std::vector<serve::Fd> fds = connect_load(router.get().ingest_port(), p.load);
  router.launch();
  const auto processed = [&] {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b->get().engine().events_processed();
    return total;
  };
  const std::uint64_t n = p.load.events;
  SendStats send;
  std::atomic<bool> sent{false};
  bool drained = false;
  const double cpu0 = process_cpu_s();
  std::thread sender([&] {
    send = send_or_fail(fds, p.load, nullptr);
    sent.store(true);
    drained = post_drain(router.get().http_port());
  });
  const auto done = wait_processed(processed, n, 2 * staging_slack(1, 1), sent);
  pass.cpu_s = process_cpu_s() - cpu0;
  sender.join();
  router.join(drained);
  match::Partition total;
  bool servers_ok = !router.failed();
  for (const auto& b : backends) {
    b->join(drained);
    servers_ok = servers_ok && !b->failed();
    const match::Partition part = b->get().engine().partition();
    total.honest += part.honest;
    total.extraneous += part.extraneous;
    total.missing += part.missing;
    total.checkins += part.checkins;
    total.visits += part.visits;
    for (std::size_t c = 0; c < part.by_class.size(); ++c) {
      total.by_class[c] += part.by_class[c];
    }
  }
  settle_ingest(pass, send, done, n, processed(),
                drained && servers_ok && same_partition(total, p.reference));
  return pass;
}

Pass run_pass(Kind kind, const Prepared& p, const Options& o,
              std::size_t threads, std::size_t index) {
  switch (kind) {
    case Kind::kBatchAudit:
      return batch_pass(p, threads);
    case Kind::kIngestBinary:
      return ingest_binary_pass(p, o.trace);
    case Kind::kServeMixed:
      return serve_mixed_pass(p, o, index);
    case Kind::kClusterMixed:
      return cluster_pass(p, o.trace);
  }
  throw std::logic_error("unreachable");
}

template <typename Fn>
std::vector<double> per_pass(const std::vector<Pass>& passes, Fn&& fn) {
  std::vector<double> out;
  for (const Pass& pass : passes) out.push_back(fn(pass));
  return out;
}

double metric_value(const std::vector<Metric>& metrics, std::string_view name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("missing metric " + std::string(name));
}

void set_metric(std::vector<Metric>& metrics, std::string_view name,
                double value) {
  for (Metric& m : metrics) {
    if (m.name == name) m.value = value;
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "batch_audit", "ingest_binary", "serve_mixed", "cluster_mixed"};
  return names;
}

int run(const Options& o) {
  const Kind kind = parse_kind(o.workload);
  const std::size_t threads = core::resolve_threads(0);

  // --- set-up, several times (setup_s is the median) ----------------------
  std::unique_ptr<Prepared> p;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    p.reset();
    const Clock::time_point t0 = Clock::now();
    p = setup(kind, o, threads);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // --- measure: a warm-up pass (unpaced workloads: their passes are
  // short, and the first one pays for cold allocations and page cache),
  // then passes until the time is up ------------------------------------
  const Clock::time_point start = Clock::now();
  std::size_t index = 0;
  const Pass warmup = kind == Kind::kServeMixed
                          ? Pass{}
                          : run_pass(kind, *p, o, threads, index++);
  if (o.trace) obs::registry().reset_values();
  std::vector<Pass> passes;
  while (passes.size() < kMinPasses ||
         seconds_between(start, Clock::now()) < o.seconds) {
    passes.push_back(run_pass(kind, *p, o, threads, index++));
  }

  bool correct = warmup.ok;
  std::uint64_t attempted = warmup.attempted;
  std::uint64_t failed = warmup.failed;
  for (const Pass& pass : passes) {
    correct = correct && pass.ok;
    attempted += pass.attempted;
    failed += pass.failed;
  }
  if (!correct) failed = attempted;  // a failed output check voids the run

  // --- end-to-end metrics -------------------------------------------------
  const double events = static_cast<double>(p->study_events);
  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"events_per_s",
       median(per_pass(passes,
                       [&](const Pass& x) {
                         return x.seconds > 0.0 ? events / x.seconds : 0.0;
                       })),
       "events/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };

  std::vector<Metric> detail = e2e;
  detail.push_back(
      {"cpu_ns_per_event",
       median(per_pass(passes,
                       [&](const Pass& x) { return x.cpu_s * 1e9 / events; })),
       "ns"});
  detail.push_back({"failed_frac",
                    static_cast<double>(failed) /
                        static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                    "ratio"});
  const double pass_median =
      median(per_pass(passes, [](const Pass& x) { return x.seconds; }));
  double offered_eps = 0.0;
  double offered_qps = 0.0;
  Tail lookup_tail, scan_tail;
  std::vector<double> lookups, scans;
  switch (kind) {
    case Kind::kBatchAudit:
      detail.push_back({"batch_s", pass_median, "s"});
      break;
    case Kind::kIngestBinary:
    case Kind::kClusterMixed:
      detail.push_back({"ingest_eps", metric_value(e2e, "events_per_s"),
                        "events/s"});
      detail.push_back(
          {"loadgen.send_s",
           median(per_pass(passes, [](const Pass& x) { return x.send_s; })),
           "s"});
      break;
    case Kind::kServeMixed: {
      offered_eps = kServeMixedRate;
      offered_qps = kServeMixedQps;
      std::vector<double> lag, late;
      for (const Pass& pass : passes) {
        lag.insert(lag.end(), pass.lag_ms.begin(), pass.lag_ms.end());
        late.insert(late.end(), pass.late_ms.begin(), pass.late_ms.end());
        for (const QuerySample& q : pass.queries) {
          (is_lookup(q.kind) ? lookups : scans).push_back(q.latency_ms);
        }
      }
      lookup_tail = tail(lookups);
      scan_tail = tail(scans);
      detail.push_back({"ingest_lag_p99_ms", percentile(lag, 99.0), "ms"});
      detail.push_back({"lookup_p50_ms", median(lookups), "ms"});
      detail.push_back({"lookup_tail_ms", lookup_tail.value, "ms"});
      detail.push_back({"scan_p50_ms", median(scans), "ms"});
      detail.push_back({"scan_tail_ms", scan_tail.value, "ms"});
      const double late_p99 = percentile(late, 99.0);
      detail.push_back({"loadgen.late_p99_ms", late_p99, "ms"});
      if (late_p99 > kLateLimitMs) {
        std::cerr << "perfbench: the load generator ran late (p99 " << late_p99
                  << " ms > " << kLateLimitMs << " ms); discard this run\n";
      }
      break;
    }
  }

  // --- traced run: per-layer metrics --------------------------------------
  std::vector<Metric> layers;
  if (o.trace) {
    const double n_passes = static_cast<double>(passes.size());
    std::vector<Metric> from_servers;
    if (kind != Kind::kBatchAudit) {
      // The workload's own servers' registry families, per pass.
      from_servers = {
          {"stream.backpressure_wait_ms",
           static_cast<double>(histogram_total("stream_backpressure_wait_ns").sum) /
               1e6 / n_passes,
           "ms"},
          {"stream.batch_latency_p99_ns",
           histogram_percentile(histogram_total("stream_batch_latency_ns"), 99.0),
           "ns"},
          {"stream.shard_skew", counter_skew("stream_shard_events_total"),
           "ratio"},
      };
      detail.push_back(
          {"serve.reactor_loop_p99_ns",
           histogram_percentile(histogram_total("serve_reactor_loop_ns"), 99.0),
           "ns"});
      detail.push_back(
          {"serve.reactor_stalls",
           static_cast<double>(counter_total("serve_reactor_stalls_total")) /
               n_passes,
           "count"});
    }
    if (kind == Kind::kClusterMixed) {
      detail.push_back({"cluster.backend_skew",
                        counter_skew("cluster_forward_records_total"), "ratio"});
      detail.push_back(
          {"cluster.backpressure_pauses",
           static_cast<double>(counter_total("cluster_backpressure_pauses_total")) /
               n_passes,
           "count"});
    }

    if (p->events.empty()) p->events = stream::flatten_dataset(p->dataset);
    LayerInputs in;
    in.dataset = &p->dataset;
    in.events = p->events;
    in.checkins = p->checkins;
    if (kind == Kind::kBatchAudit) in.csv_dir = p->dir.path() / "csv";
    in.work_dir = p->dir.path();
    in.model = p->model ? &*p->model : nullptr;
    in.shards = kind == Kind::kClusterMixed ? 1 : 2;
    in.threads = threads;
    LayerMetrics probed = probe_layers(in);
    layers = std::move(probed.per_layer);
    detail.insert(detail.end(), probed.detail.begin(), probed.detail.end());
    for (const Metric& m : from_servers) set_metric(layers, m.name, m.value);

    if (kind == Kind::kIngestBinary) {
      detail.push_back({"serve.overhead_ns",
                        1e9 / metric_value(e2e, "events_per_s") -
                            metric_value(layers, "serve.binary_decode_ns") -
                            metric_value(layers, "stream.engine_ns"),
                        "ns"});
    }
    if (kind == Kind::kServeMixed) {
      // A query is one of the two operations its stream.hold_* times,
      // drawn evenly, so its expected hold is half of the pair.
      detail.push_back({"serve.gate_wait_lookup_ms",
                        median(lookups) -
                            metric_value(layers, "stream.hold_lookup_ms") / 2,
                        "ms"});
      detail.push_back({"serve.gate_wait_scan_ms",
                        median(scans) -
                            metric_value(layers, "stream.hold_scan_ms") / 2,
                        "ms"});
    }
  }

  // --- tags and output ------------------------------------------------------
  const auto num = [](double v) { return json_number(v); };
  std::vector<std::pair<std::string, std::string>> tags = {
      {"cores", num(std::thread::hardware_concurrency())},
      {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
      {"git_sha", json_string(o.git_sha)},
      {"src_digest", json_string(o.src_digest)},
      {"seed", std::to_string(o.seed)},
      {"preset", json_string(o.preset)},
      {"run_seconds", num(o.seconds)},
      {"users", num(static_cast<double>(p->users))},
      {"events", num(events)},
      {"checkins", num(static_cast<double>(p->checkins))},
      {"setup_repeats", num(kSetupRepeats)},
      {"passes", num(static_cast<double>(passes.size()))},
      {"pass_seconds", [&] {
         std::string list = "[";
         for (const Pass& x : passes) {
           if (list.size() > 1) list += ',';
           list += num(x.seconds);
         }
         return list + "]";
       }()},
      {"attempted", std::to_string(attempted)},
      {"failed", std::to_string(failed)},
      {"offered_eps", offered_eps > 0.0 ? num(offered_eps) : "\"unpaced\""},
      {"offered_qps", num(offered_qps)},
  };
  if (kind == Kind::kServeMixed) {
    tags.push_back({"lookup_tail_pct", num(lookup_tail.percentile)});
    tags.push_back({"lookup_samples", num(static_cast<double>(lookup_tail.samples))});
    tags.push_back({"scan_tail_pct", num(scan_tail.percentile)});
    tags.push_back({"scan_samples", num(static_cast<double>(scan_tail.samples))});
  }
  if (!correct) {
    std::cerr << "perfbench: " << o.workload
              << ": output check failed; every operation counts as failed\n";
  }
  std::cout << report_line(o.workload, o.trace, tags, detail) << "\n"
            << result_line(correct, attempted, failed, o.trace ? layers : e2e)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
