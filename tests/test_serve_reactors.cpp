// Reactor-count invariance for the serve daemon's edge behavior: the
// hostile-client bounds (malformed/oversized lines, idle sweep, the global
// --max-connections cap) must hold identically at 1, 2, and 4 reactors,
// and the per-reactor observability families must be exported for every
// reactor. The byte-identical-verdict property lives in
// test_serve_equivalence.cpp (also parameterized on reactors).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "serve/net.h"
#include "serve/server.h"
#include "stream/quarantine.h"

namespace geovalid::serve {
namespace {

using namespace std::chrono_literals;

/// In-process daemon: start() on construction, run() on a thread, stats
/// captured at exit (same shape as test_serve_server.cpp's harness).
struct TestServer {
  Server server;
  std::atomic<bool> stop{false};
  ServeStats stats;
  std::thread loop;

  explicit TestServer(ServeConfig config) : server(std::move(config)) {
    server.start();
    loop = std::thread([this] { stats = server.run(&stop); });
  }

  ~TestServer() {
    if (loop.joinable()) stop_and_join();
  }

  void stop_and_join() {
    stop.store(true);
    loop.join();
  }

  HttpResponse drain_and_join() {
    const HttpResponse r =
        http_post("127.0.0.1", server.http_port(), "/admin/drain");
    loop.join();
    return r;
  }
};

/// Parameterized on the reactor count (GetParam()).
class ServeReactors : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServeReactors, HostileIngestQuarantinesAtAnyReactorCount) {
  ServeConfig config;
  config.metrics = false;
  config.reactors = GetParam();
  config.max_line_bytes = 128;  // make "oversized" cheap to trigger
  TestServer ts(std::move(config));
  ASSERT_EQ(ts.server.reactor_count(), GetParam());

  // Several hostile clients at once: with N reactors the connections land
  // on whichever reactor wins the accept race, so the caps are exercised
  // wherever they live. Distinct users per connection keep the wire
  // contract (a user's records on one connection).
  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&ts, i] {
      const std::string user = std::to_string(100 + i);
      Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
      std::string payload;
      payload += "checkin," + user + ",1000,1,Food,37.0,-122.0\n";  // good
      payload += "this is not a record\n";                     // malformed
      payload += std::string(500, 'x') + "\n";                 // oversized
      payload += "gps," + user + ",2000,999.0,0.0,1,0,0.0\n";  // bad coords
      payload += "checkin," + user + ",3000,2,Food,37.0,-122.0\n";  // good
      payload += "checkin," + user + ",4000,3,Fo";  // cut mid-record
      ASSERT_TRUE(send_all(c.get(), payload));
    });  // abrupt close mid-record
  }
  for (std::thread& t : clients) t.join();

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);

  // Per connection: 3 wire-level rejects (malformed + oversized +
  // truncated-by-disconnect), 1 semantic quarantine, 3 parsed records.
  const stream::Quarantine& q = ts.server.quarantine();
  EXPECT_EQ(q.count(stream::QuarantineReason::kMalformedLine), 3 * kClients);
  EXPECT_EQ(q.count(stream::QuarantineReason::kBadCoordinates), kClients);
  EXPECT_EQ(ts.stats.records_malformed, 3 * kClients);
  EXPECT_EQ(ts.stats.records_parsed, 3 * kClients);
  EXPECT_EQ(ts.stats.records_applied, 3 * kClients);
  EXPECT_EQ(ts.server.engine().partition().checkins, 2 * kClients);
}

TEST_P(ServeReactors, IdleSweepClosesStragglersOnEveryReactor) {
  ServeConfig config;
  config.metrics = false;
  config.reactors = GetParam();
  config.idle_timeout_s = 0.3;
  TestServer ts(std::move(config));

  // More stragglers than reactors: every reactor that won a connection
  // must run its own idle sweep — the sweep is per reactor, there is no
  // central janitor to lean on.
  constexpr std::size_t kClients = 6;
  std::vector<Fd> conns;
  conns.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
    const std::string user = std::to_string(200 + i);
    ASSERT_TRUE(send_all(
        c.get(), "checkin," + user + ",1000,1,Food,37.0,-122.0\nchec"));
    conns.push_back(std::move(c));
  }
  // Stop talking: each sweep must close its stragglers and dead-letter
  // their half records. recv_all returns empty at the server-side EOF.
  for (Fd& c : conns) EXPECT_TRUE(recv_all(c.get()).empty());
  conns.clear();

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_EQ(ts.stats.records_applied, kClients);
  EXPECT_EQ(
      ts.server.quarantine().count(stream::QuarantineReason::kMalformedLine),
      kClients);
}

TEST_P(ServeReactors, MaxConnectionsCapIsGlobalAcrossReactors) {
  ServeConfig config;
  config.metrics = false;
  config.reactors = GetParam();
  config.max_connections = 1;  // the harshest cap: one slot, N reactors
  TestServer ts(std::move(config));

  // Hold the only slot on an ingest connection. A second client connects
  // (the kernel backlog completes the handshake) but no reactor may accept
  // it — the CAS slot reservation is global, not per reactor.
  std::optional<Fd> holder = tcp_connect("127.0.0.1", ts.server.ingest_port());
  ASSERT_TRUE(send_all(holder->get(), "checkin,1,1000,1,Food,37.0,-122.0\n"));

  std::optional<Fd> queued = tcp_connect("127.0.0.1", ts.server.ingest_port());
  ASSERT_TRUE(send_all(queued->get(), "checkin,2,1000,1,Food,37.0,-122.0\n"));
  queued.reset();  // EOF already queued behind the accept

  // Release the slot: the queued client must now be accepted, read to EOF,
  // and fully applied — cap pressure delays work, it never loses it.
  holder.reset();

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_EQ(ts.stats.records_applied, 2u);
  EXPECT_EQ(ts.stats.records_malformed, 0u);
  EXPECT_GE(ts.stats.connections, 3u);  // holder + queued + the drain POST
}

TEST_P(ServeReactors, QueriesOnAnIdleServerNeverWaitOutThePollTick) {
  ServeConfig config;
  config.metrics = false;
  config.reactors = GetParam();
  TestServer ts(std::move(config));

  // Every /v1/summary parks all other reactors first. An idle reactor
  // sits in poll() for up to its 100 ms tick unless the pause gate wakes
  // it, which made these 30 sequential queries take about 3 s.
  constexpr int kQueries = 30;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(
        http_get("127.0.0.1", ts.server.http_port(), "/v1/summary").status,
        200);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1500ms);

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
}

INSTANTIATE_TEST_SUITE_P(Reactors, ServeReactors,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto& param_info) {
                           return "reactors" +
                                  std::to_string(param_info.param);
                         });

TEST(ServeReactors, MetricsExposePerReactorFamilies) {
  ServeConfig config;  // metrics on: the exporter must show every reactor
  config.reactors = 2;
  TestServer ts(std::move(config));

  {
    Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(), "checkin,7,1000,1,Food,37.0,-122.0\n"));
  }

  const HttpResponse r =
      http_get("127.0.0.1", ts.server.http_port(), "/metrics");
  EXPECT_EQ(r.status, 200);
  // All four families, registered for BOTH reactors up front — a reactor
  // that never wins a connection still exports zeros (absence would read
  // as a scrape bug, not an idle reactor). Histograms export as
  // _bucket/_sum/_count series.
  for (const char* family :
       {"serve_reactor_events_total", "serve_reactor_connections_total",
        "serve_reactor_stalls_total", "serve_reactor_loop_ns_count"}) {
    const std::string name(family);
    EXPECT_NE(r.body.find(name + "{reactor=\"0\"}"), std::string::npos)
        << family;
    EXPECT_NE(r.body.find(name + "{reactor=\"1\"}"), std::string::npos)
        << family;
  }
  // The histogram exports cumulative buckets per reactor (+Inf at least).
  EXPECT_NE(r.body.find("serve_reactor_loop_ns_bucket{reactor=\"0\",le="),
            std::string::npos);

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
}

TEST(ServeReactors, LeaderDealsIngestConnectionsEvenly) {
  obs::registry().reset_values();
  ServeConfig config;  // metrics on: the per-reactor counters are the proof
  config.reactors = 2;
  Server server(std::move(config));
  server.start();

  // All four wait in the listen backlog before any loop runs, so a
  // reactor racing for the listener would take every one of them.
  constexpr std::size_t kClients = 4;
  std::vector<Fd> conns;
  for (std::size_t i = 0; i < kClients; ++i) {
    conns.push_back(tcp_connect("127.0.0.1", server.ingest_port()));
  }
  std::atomic<bool> stop{false};
  ServeStats stats;
  std::thread loop([&] { stats = server.run(&stop); });
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::string user = std::to_string(300 + i);
    EXPECT_TRUE(send_all(conns[i].get(),
                         "checkin," + user + ",1000,1,Food,37.0,-122.0\n"));
  }
  conns.clear();
  const HttpResponse drained =
      http_post("127.0.0.1", server.http_port(), "/admin/drain");
  loop.join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_EQ(stats.records_applied, kClients);

  const auto per_reactor = [](const char* family, const char* reactor) {
    return obs::registry().counter(family, "", {{"reactor", reactor}}).value();
  };
  EXPECT_EQ(per_reactor("serve_reactor_connections_total", "1"), 2u);
  EXPECT_EQ(per_reactor("serve_reactor_events_total", "0"), 2u);
  EXPECT_EQ(per_reactor("serve_reactor_events_total", "1"), 2u);
}

TEST(ServeReactors, SlotFreedAtTheCapWakesTheAcceptingReactor) {
  ServeConfig config;
  config.metrics = false;
  config.reactors = 2;
  config.max_connections = 2;
  TestServer ts(std::move(config));

  // `first` stays on reactor 0; each `second` is dealt to reactor 1 and
  // fills the hub, so reactor 0 stops polling the listeners. When reactor
  // 1 reaps `second`, only its wake lets reactor 0 accept the queued
  // request before its next 100 ms tick.
  Fd first = tcp_connect("127.0.0.1", ts.server.ingest_port());
  constexpr int kRounds = 10;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    { Fd second = tcp_connect("127.0.0.1", ts.server.ingest_port()); }
    ASSERT_EQ(http_get("127.0.0.1", ts.server.http_port(), "/healthz").status,
              200);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 500ms);

  first.reset();
  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
}

TEST(ServeReactors, DrainAnswersAsSoonAsTheLastDealtConnectionCloses) {
  // One ingest connection per reactor, the one on the highest index closed
  // last, with a drain pending. Its reactor must wake reactor 0 to finish
  // the drain, and reactor 0 must wake the others to exit, so the caller's
  // answer (read to EOF) never waits out a 100 ms poll tick.
  using Clock = std::chrono::steady_clock;
  for (const std::size_t reactors : {2u, 4u}) {
    SCOPED_TRACE("reactors " + std::to_string(reactors));
    constexpr int kRounds = 5;
    Clock::duration waited{};
    for (int round = 0; round < kRounds; ++round) {
      ServeConfig config;
      config.metrics = false;
      config.reactors = reactors;
      Server server(std::move(config));
      server.start();
      // Opened before run(): reactor 0 deals them in order, one per
      // reactor (ties go to the lowest index).
      std::vector<Fd> conns;
      for (std::size_t i = 0; i < reactors; ++i) {
        conns.push_back(tcp_connect("127.0.0.1", server.ingest_port()));
      }
      std::atomic<bool> stop{false};
      ServeStats stats;
      std::thread loop([&] { stats = server.run(&stop); });
      for (std::size_t i = 0; i < reactors; ++i) {
        const std::string user = std::to_string(400 + i);
        EXPECT_TRUE(send_all(conns[i].get(),
                             "checkin," + user + ",1000,1,Food,37.0,-122.0\n"));
      }
      HttpResponse drained;
      Clock::time_point answered;
      std::thread caller([&] {
        drained = http_post("127.0.0.1", server.http_port(), "/admin/drain");
        answered = Clock::now();
      });
      while (http_get("127.0.0.1", server.http_port(), "/readyz").status !=
             503) {
        std::this_thread::sleep_for(1ms);
      }
      for (std::size_t i = 0; i + 1 < reactors; ++i) conns[i].reset();
      std::this_thread::sleep_for(20ms);  // those closes are reaped first
      const Clock::time_point closed = Clock::now();
      conns.back().reset();
      caller.join();
      loop.join();
      waited += answered - closed;
      EXPECT_EQ(drained.status, 200);
      EXPECT_EQ(stats.records_applied, reactors);
    }
    EXPECT_LT(waited, 250ms);
  }
}

TEST(ServeReactors, ZeroResolvesToHardwareConcurrency) {
  ServeConfig config;
  config.metrics = false;
  config.reactors = 0;  // 0 = all hardware threads, clamped like --threads
  Server server(std::move(config));
  EXPECT_EQ(server.reactor_count(), core::resolve_threads(0));
  EXPECT_GE(server.reactor_count(), 1u);
  EXPECT_LE(server.reactor_count(), core::kMaxThreads);
}

}  // namespace
}  // namespace geovalid::serve
