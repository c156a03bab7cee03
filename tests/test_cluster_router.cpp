// The cluster router end to end over real loopback sockets, with
// in-process serve backends: ring-sharded ingest forwarding, the merged
// and fanned-out control plane (readyz, metrics, summary, proxied
// verdicts, checkpoint, drain), dead-lettering of unroutable lines, the
// rebalance hook's error statuses, and the loadgen's measure-don't-abort
// contract against a dead ingest port.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "stream/quarantine.h"

namespace geovalid::cluster {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using serve::Fd;
using serve::HttpResponse;
using serve::http_get;
using serve::http_post;
using serve::send_all;
using serve::tcp_connect;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One in-process serve backend: start() on construction, run() on a
/// thread.
struct TestBackend {
  serve::Server server;
  std::atomic<bool> stop{false};
  serve::ServeStats stats;
  std::thread loop;

  explicit TestBackend(serve::ServeConfig config)
      : server(std::move(config)) {
    server.start();
    loop = std::thread([this] { stats = server.run(&stop); });
  }

  ~TestBackend() {
    if (loop.joinable()) {
      stop.store(true);
      loop.join();
    }
  }

  void join() { loop.join(); }
};

/// N backends fronted by one router, all in-process. Backends are named
/// "b0".."bN-1". Drain via POST /admin/drain on the router (which fans
/// out and joins everything) or stop via the flag (backends stay up).
struct TestCluster {
  std::vector<std::unique_ptr<TestBackend>> backends;
  std::optional<Router> router;
  std::atomic<bool> stop{false};
  RouteStats stats;
  std::thread loop;

  explicit TestCluster(
      std::size_t n,
      const std::function<void(serve::ServeConfig&, std::size_t)>& tweak =
          {},
      const std::function<void(RouteConfig&)>& route_tweak = {}) {
    RouteConfig rc;
    rc.metrics = false;
    for (std::size_t i = 0; i < n; ++i) {
      serve::ServeConfig sc;
      sc.metrics = false;
      if (tweak) tweak(sc, i);
      backends.push_back(std::make_unique<TestBackend>(std::move(sc)));
      BackendAddr addr;
      addr.name = "b" + std::to_string(i);
      addr.ingest_port = backends.back()->server.ingest_port();
      addr.http_port = backends.back()->server.http_port();
      rc.backends.push_back(std::move(addr));
    }
    if (route_tweak) route_tweak(rc);
    router.emplace(std::move(rc));
    router->start();
    loop = std::thread([this] { stats = router->run(&stop); });
  }

  ~TestCluster() {
    if (loop.joinable()) stop_and_join();
  }

  [[nodiscard]] std::uint16_t http_port() const {
    return router->http_port();
  }
  [[nodiscard]] std::uint16_t ingest_port() const {
    return router->ingest_port();
  }

  void stop_and_join() {
    stop.store(true);
    loop.join();
  }

  /// Drains the whole cluster: router fan-out plus every backend loop.
  HttpResponse drain_and_join() {
    const HttpResponse r =
        http_post("127.0.0.1", http_port(), "/admin/drain");
    loop.join();
    for (auto& b : backends) b->join();
    return r;
  }
};

TEST(ClusterRouter, RejectsEmptyAndDuplicateBackends) {
  EXPECT_THROW(Router{RouteConfig{}}, std::invalid_argument);
  RouteConfig rc;
  BackendAddr a;
  a.name = "same";
  a.ingest_port = 1;
  a.http_port = 2;
  rc.backends = {a, a};
  EXPECT_THROW(Router{std::move(rc)}, std::invalid_argument);
}

TEST(ClusterRouter, StartFailsLoudlyOnUnreachableBackend) {
  RouteConfig rc;
  rc.metrics = false;
  BackendAddr dead;
  dead.name = "dead";
  dead.ingest_port = 1;  // nothing listens on port 1
  dead.http_port = 1;
  rc.backends = {dead};
  Router router(std::move(rc));
  EXPECT_THROW(router.start(), serve::NetError);
}

TEST(ClusterRouter, ShardsIngestByRingOwnerAndDrainsCleanly) {
  TestCluster tc(2);
  // Users spread across both shards (the pinned ring makes this stable);
  // find one user per backend so the placement assertion is meaningful.
  const std::string payload =
      "checkin,0,1000,1,Food,37.0,-122.0\n"
      "checkin,4,1000,2,Food,37.1,-122.1\n"
      "checkin,6,1000,3,Food,37.2,-122.2\n"
      "checkin,7,2000,4,Shop,37.3,-122.3\n"
      "gps,8,1000,37.0,-122.0,1,0,0.0\n";
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    ASSERT_TRUE(send_all(c.get(), payload));
  }
  const HttpResponse drained = tc.drain_and_join();
  ASSERT_EQ(drained.status, 200);
  EXPECT_NE(drained.body.find("\"status\":\"drained\""), std::string::npos);
  EXPECT_NE(drained.body.find("\"b0\""), std::string::npos);
  EXPECT_NE(drained.body.find("\"b1\""), std::string::npos);
  EXPECT_EQ(tc.stats.exit, RouteExit::kDrained);
  EXPECT_EQ(tc.stats.records_forwarded, 5u);
  EXPECT_EQ(tc.stats.records_malformed, 0u);
  EXPECT_EQ(tc.stats.records_dropped, 0u);

  // Every record landed on its ring owner, nowhere else.
  const HashRing& ring = tc.router->ring();
  std::vector<std::uint64_t> expected(2, 0);
  for (trace::UserId u : {0u, 4u, 6u, 7u, 8u}) {
    ++expected[ring.owner_index(u)];
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(tc.backends[i]->stats.records_applied, expected[i])
        << "backend " << i;
  }
  EXPECT_GT(expected[0], 0u);
  EXPECT_GT(expected[1], 0u);
}

TEST(ClusterRouter, UnroutableLinesDeadLetterAtTheRouter) {
  TestCluster tc(2);
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    ASSERT_TRUE(send_all(c.get(),
                         "checkin,5,1000,1,Food,37.0,-122.0\n"
                         "garbage with no key\n"
                         "checkin,notanumber,1000,1,Food,37.0,-122.0\n"
                         "gps,6,1000,37.0,-122.0,1,0,0.0\n"));
  }
  const HttpResponse drained = tc.drain_and_join();
  ASSERT_EQ(drained.status, 200);
  EXPECT_EQ(tc.stats.records_forwarded, 2u);
  EXPECT_EQ(tc.stats.records_malformed, 2u);
  EXPECT_EQ(tc.router->quarantine().count(
                stream::QuarantineReason::kMalformedLine),
            2u);
  // The garbage never reached a backend.
  EXPECT_EQ(tc.backends[0]->stats.records_malformed +
                tc.backends[1]->stats.records_malformed,
            0u);
}

TEST(ClusterRouter, ControlPlaneStatusesAndReadyz) {
  TestCluster tc(2);
  const std::uint16_t port = tc.http_port();

  EXPECT_EQ(http_get("127.0.0.1", port, "/healthz").status, 200);
  const HttpResponse ready = http_get("127.0.0.1", port, "/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");

  EXPECT_EQ(http_get("127.0.0.1", port, "/nope").status, 404);
  EXPECT_EQ(http_post("127.0.0.1", port, "/healthz").status, 405);
  EXPECT_EQ(http_post("127.0.0.1", port, "/readyz").status, 405);
  EXPECT_EQ(http_post("127.0.0.1", port, "/metrics").status, 405);
  EXPECT_EQ(http_get("127.0.0.1", port, "/admin/drain").status, 405);
  EXPECT_EQ(http_get("127.0.0.1", port, "/admin/checkpoint").status, 405);
  EXPECT_EQ(http_get("127.0.0.1", port, "/v1/users/abc/verdicts").status,
            400);
  EXPECT_EQ(http_get("127.0.0.1", port, "/v1/users//verdicts").status, 400);

  // Rebalance hook errors: unknown name, malformed body, missing ports.
  EXPECT_EQ(http_post("127.0.0.1", port, "/admin/backends/nope").status,
            404);
  EXPECT_EQ(http_get("127.0.0.1", port, "/admin/backends/b0").status, 405);
  EXPECT_EQ(
      http_post("127.0.0.1", port, "/admin/backends/b0", "not json").status,
      400);
  EXPECT_EQ(http_post("127.0.0.1", port, "/admin/backends/b0", "{}").status,
            400);
}

TEST(ClusterRouter, RefusedRebalanceLeavesTheBackendAsItWas) {
  // A replacement the router cannot reach is answered 502 and changes
  // nothing: b0 keeps its address, receives its records and its drain.
  TestCluster tc(2);
  std::uint16_t closed = 0;
  {
    const Fd gone = serve::tcp_listen("127.0.0.1", 0);
    closed = serve::local_port(gone.get());
  }  // nothing listens there now
  const std::string port = std::to_string(closed);
  EXPECT_EQ(http_post("127.0.0.1", tc.http_port(), "/admin/backends/b0",
                      "{\"ingest_port\":" + port + ",\"http_port\":" + port +
                          "}")
                .status,
            502);

  // Five records: three owned by b0, two by b1.
  const HashRing& ring = tc.router->ring();
  std::string payload;
  const std::size_t want[2] = {3, 2};
  std::size_t owned[2] = {0, 0};
  for (trace::UserId u = 0; owned[0] < want[0] || owned[1] < want[1]; ++u) {
    const std::size_t owner = ring.owner_index(u);
    if (owned[owner] == want[owner]) continue;
    ++owned[owner];
    payload += "checkin," + std::to_string(u) + ",1000,1,Food,37.0,-122.0\n";
  }
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    ASSERT_TRUE(send_all(c.get(), payload));
  }
  const HttpResponse drained =
      http_post("127.0.0.1", tc.http_port(), "/admin/drain");
  tc.loop.join();
  // Checked before joining the backends: a backend that never got its
  // drain never exits (the TestBackend destructor stops it instead).
  ASSERT_EQ(drained.status, 200) << drained.body;
  for (auto& b : tc.backends) b->join();
  EXPECT_EQ(tc.stats.records_dropped, 0u);
  EXPECT_EQ(tc.backends[0]->stats.records_applied, 3u);
  EXPECT_EQ(tc.backends[1]->stats.records_applied, 2u);
}

TEST(ClusterRouter, ProxiesVerdictsToTheRingOwner) {
  TestCluster tc(2);
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    ASSERT_TRUE(send_all(c.get(),
                         "checkin,7,1000,1,Food,37.0,-122.0\n"
                         "checkin,7,5000,2,Nightlife,37.0,-122.0\n"));
  }
  // Poll through the router until the record has flowed all the way to
  // the owning backend (two single-threaded poll loops in the path).
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  HttpResponse r;
  while (true) {
    r = http_get("127.0.0.1", tc.http_port(), "/v1/users/7/verdicts");
    if (r.status == 200 || std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"user\":7"), std::string::npos);
  EXPECT_NE(r.body.find("\"gaps\":1"), std::string::npos);

  // A user nobody has seen 404s from its owner, through the proxy.
  EXPECT_EQ(
      http_get("127.0.0.1", tc.http_port(), "/v1/users/999/verdicts").status,
      404);
  (void)tc.drain_and_join();
}

TEST(ClusterRouter, SummaryMergesAcrossBackends) {
  TestCluster tc(2);
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    // Users 0 and 4 live on different backends (pinned ring assignment),
    // so the merged user count spans both summaries.
    ASSERT_TRUE(send_all(c.get(),
                         "checkin,0,1000,1,Food,37.0,-122.0\n"
                         "checkin,4,1000,2,Food,37.1,-122.1\n"));
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  HttpResponse r;
  while (true) {
    r = http_get("127.0.0.1", tc.http_port(), "/v1/summary");
    if ((r.status == 200 &&
         r.body.find("\"records_parsed\":2") != std::string::npos) ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.body.rfind("{\"backends\":2,", 0), 0u) << r.body;
  EXPECT_NE(r.body.find("\"users\":2"), std::string::npos) << r.body;
  (void)tc.drain_and_join();
}

TEST(ClusterRouter, MetricsAggregateWithClusterFamilies) {
  // Shared-registry deployment: backends and router register in the same
  // process registry. The router must still present exactly one copy of
  // its cluster_* families on top of the summed serve_* view.
  const auto serve_metrics_on = [](serve::ServeConfig& sc, std::size_t) {
    sc.metrics = true;
  };
  const auto route_metrics_on = [](RouteConfig& rc) { rc.metrics = true; };
  TestCluster tc(2, serve_metrics_on, route_metrics_on);

  const HttpResponse r = http_get("127.0.0.1", tc.http_port(), "/metrics");
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(r.body.find("cluster_backend_up{backend=\"b0\"} 1"),
            std::string::npos);
  EXPECT_NE(r.body.find("cluster_backend_up{backend=\"b1\"} 1"),
            std::string::npos);
  EXPECT_NE(r.body.find("cluster_forward_records_total"),
            std::string::npos);
  EXPECT_NE(r.body.find("serve_ingest_records_total"), std::string::npos);
  // Exactly one exposition of the cluster gauge per backend — the merge
  // must not double-count the shared registry's echo of it.
  const std::size_t first = r.body.find("cluster_backend_up{backend=\"b0\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(r.body.find("cluster_backend_up{backend=\"b0\"", first + 1),
            std::string::npos);
  (void)tc.drain_and_join();
}

TEST(ClusterRouter, CheckpointFanOutIsAllOrError) {
  // Backends without a checkpoint dir refuse (409): the router must
  // report the fan-out as failed, naming every refusing backend.
  {
    TestCluster tc(2);
    const HttpResponse r =
        http_post("127.0.0.1", tc.http_port(), "/admin/checkpoint");
    EXPECT_EQ(r.status, 502);
    EXPECT_NE(r.body.find("\"failed\":[\"b0\",\"b1\"]"), std::string::npos)
        << r.body;
    (void)tc.drain_and_join();
  }
  // With checkpoint dirs everywhere the fan-out succeeds and embeds each
  // backend's own response.
  const fs::path dir = fresh_dir("cluster_checkpoint");
  const auto with_dirs = [&](serve::ServeConfig& sc, std::size_t i) {
    const fs::path sub = dir / ("b" + std::to_string(i));
    fs::create_directories(sub);
    sc.checkpoint_dir = sub;
  };
  TestCluster tc(2, with_dirs);
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    ASSERT_TRUE(send_all(c.get(), "checkin,3,1000,1,Food,37.0,-122.0\n"));
  }
  const HttpResponse r =
      http_post("127.0.0.1", tc.http_port(), "/admin/checkpoint");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.body.find("\"name\":\"b0\""), std::string::npos);
  EXPECT_NE(r.body.find("\"name\":\"b1\""), std::string::npos);
  (void)tc.drain_and_join();
}

/// A stand-in backend whose control plane answers every request with one
/// canned `200` body; its ingest port only listens (the kernel backlog
/// completes the router's connects).
struct FakeBackend {
  Fd ingest = serve::tcp_listen("127.0.0.1", 0);
  Fd http = serve::tcp_listen("127.0.0.1", 0);
  std::atomic<bool> stop{false};
  std::thread loop;

  explicit FakeBackend(const std::string& body) {
    const std::string response =
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        "Content-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    loop = std::thread([this, response] {
      while (!stop.load()) {
        pollfd p{http.get(), POLLIN, 0};
        if (::poll(&p, 1, 20) <= 0) continue;
        const Fd c(::accept(http.get(), nullptr, nullptr));
        if (!c.valid()) continue;
        std::string request;
        char buf[4096];
        while (request.find("\r\n\r\n") == std::string::npos) {
          const ssize_t n = ::recv(c.get(), buf, sizeof(buf), 0);
          if (n <= 0) break;
          request.append(buf, static_cast<std::size_t>(n));
        }
        (void)send_all(c.get(), response);
      }
    });
  }

  ~FakeBackend() {
    stop.store(true);
    loop.join();
  }

  [[nodiscard]] BackendAddr addr(const std::string& name) const {
    BackendAddr a;
    a.name = name;
    a.ingest_port = serve::local_port(ingest.get());
    a.http_port = serve::local_port(http.get());
    return a;
  }
};

/// Runs a metrics-on router over `backends`, answers one GET of `target`
/// through it, then stops it. `threw` reports whether the loop let an
/// exception escape instead of answering.
HttpResponse route_one_get(std::vector<BackendAddr> backends,
                           const std::string& target, bool& threw) {
  RouteConfig rc;
  rc.backends = std::move(backends);
  Router router(std::move(rc));
  router.start();
  std::atomic<bool> stop{false};
  threw = false;
  std::thread loop([&] {
    try {
      (void)router.run(&stop);
    } catch (...) {
      threw = true;
    }
  });
  HttpResponse r;
  try {
    r = serve::http_get_deadline("127.0.0.1", router.http_port(), target,
                                 5000);
  } catch (const serve::NetError&) {
    r.status = 0;  // no answer: the loop died with the request in it
  }
  stop.store(true);
  loop.join();
  return r;
}

std::uint64_t backend_errors(const std::string& name) {
  return obs::registry()
      .counter("cluster_backend_errors_total", "", {{"backend", name}})
      .value();
}

TEST(ClusterRouter, UnreadableSummaryAnswerIsAFailedBackend) {
  // One backend answers /v1/summary with a cut body. The router must
  // degrade around it, not let the merge's parse error escape its loop.
  obs::registry().reset_values();
  serve::ServeConfig sc;
  sc.metrics = false;
  TestBackend real(std::move(sc));
  BackendAddr good;
  good.name = "good";
  good.ingest_port = real.server.ingest_port();
  good.http_port = real.server.http_port();
  const FakeBackend garbled("{\"users\":");

  bool threw = false;
  const HttpResponse r =
      route_one_get({good, garbled.addr("garbled")}, "/v1/summary", threw);
  EXPECT_FALSE(threw);
  EXPECT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"degraded\":[\"garbled\"]"), std::string::npos)
      << r.body;
  EXPECT_NE(r.body.find("\"backends\":1"), std::string::npos) << r.body;
  EXPECT_EQ(backend_errors("garbled"), 1u);
  EXPECT_EQ(backend_errors("good"), 0u);

  // With no readable answer at all there is nothing to merge: 502.
  const HttpResponse alone =
      route_one_get({garbled.addr("garbled")}, "/v1/summary", threw);
  EXPECT_FALSE(threw);
  EXPECT_EQ(alone.status, 502) << alone.body;
  EXPECT_NE(alone.body.find("\"failed\":[\"garbled\"]"), std::string::npos)
      << alone.body;
}

TEST(ClusterRouter, UnreadableSuspectsAnswerIsAFailedBackend) {
  // Each body below is unreadable as a suspects answer; none may count as
  // an answered backend with fewer rows.
  for (const char* body :
       {"{\"k\":10}",                                          // no array
        "{\"k\":10,\"suspects\":[{\"user\":1,\"score\":0.5,\"chec",  // cut row
        "{\"k\":10,\"suspects\":[{\"user\":1,\"score\":0.5}]}"}) {  // no checkins
    SCOPED_TRACE(body);
    obs::registry().reset_values();
    const FakeBackend garbled(body);
    bool threw = false;
    const HttpResponse r =
        route_one_get({garbled.addr("garbled")}, "/v1/suspects", threw);
    EXPECT_FALSE(threw);
    EXPECT_EQ(r.status, 502) << r.body;
    EXPECT_NE(r.body.find("\"failed\":[\"garbled\"]"), std::string::npos)
        << r.body;
    EXPECT_EQ(backend_errors("garbled"), 1u);
  }
}

TEST(ClusterRouter, SuspectsKOfZeroIsABadRequest) {
  // Rejected at the router, before any fan-out: model-less backends would
  // otherwise answer 409 for a request that is malformed.
  TestCluster tc(2);
  EXPECT_EQ(http_get("127.0.0.1", tc.http_port(), "/v1/suspects?k=0").status,
            400);
  EXPECT_EQ(http_get("127.0.0.1", tc.http_port(), "/v1/suspects?k=1").status,
            409);
  (void)tc.drain_and_join();
}

TEST(ClusterRouter, StopFlagLeavesBackendsRunning) {
  TestCluster tc(2);
  {
    Fd c = tcp_connect("127.0.0.1", tc.ingest_port());
    ASSERT_TRUE(send_all(c.get(), "checkin,1,1000,1,Food,37.0,-122.0\n"));
  }
  tc.stop_and_join();
  EXPECT_EQ(tc.stats.exit, RouteExit::kStopped);
  // The backends are still alive and answering: the router's stop path
  // flushes and closes its forwarder connections but kills nothing.
  for (auto& b : tc.backends) {
    EXPECT_EQ(
        http_get("127.0.0.1", b->server.http_port(), "/healthz").status,
        200);
  }
}

TEST(ClusterRouter, LoadgenMeasuresConnectFailuresInsteadOfAborting) {
  // Find a dead port by binding-then-releasing an ephemeral listener.
  std::uint16_t dead_port = 0;
  {
    serve::Fd listener = serve::tcp_listen("127.0.0.1", 0);
    dead_port = serve::local_port(listener.get());
  }
  serve::LoadgenConfig lg;
  lg.port = dead_port;
  lg.connections = 3;
  const std::vector<stream::Event> none;
  const serve::LoadgenStats stats = serve::run_loadgen(none, lg);
  EXPECT_EQ(stats.connect_failures, 3u);
  EXPECT_EQ(stats.failed_connections, 0u);
  EXPECT_NE(serve::to_json(stats).find("\"connect_failures\":3"),
            std::string::npos);
}

}  // namespace
}  // namespace geovalid::cluster
