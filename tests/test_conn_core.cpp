// The connection core (serve/conn.h) exercised through both front ends it
// serves — a serve daemon, and a router in front of one serve backend —
// with one parameterized suite: hostile ingest lines and frames
// dead-lettering, malformed HTTP requests, the idle sweep, the global
// connection cap, and the sweep's rule that only the client's silence
// counts as idle (a waiting /admin/drain caller and a router paused on
// backpressure are never swept).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "serve/net.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stream/faults.h"
#include "stream/quarantine.h"

namespace geovalid {
namespace {

using namespace std::chrono_literals;
using serve::Fd;
using serve::HttpResponse;

enum class Kind { kServe, kRoute };

/// One serve daemon on its own run thread.
struct Daemon {
  serve::Server server;
  std::atomic<bool> stop{false};
  serve::ServeStats stats;
  std::thread loop;

  explicit Daemon(serve::ServeConfig config) : server(std::move(config)) {
    server.start();
    loop = std::thread([this] { stats = server.run(&stop); });
  }
  ~Daemon() {
    if (loop.joinable()) {
      stop.store(true);
      loop.join();
    }
  }
};

/// A front end under test, started in-process: a serve daemon with
/// `conn` as its connection settings, or a router with those settings
/// (and `tweak`'s) in front of `backends` default serve daemons (named
/// b0, b1, ...).
class FrontEnd {
 public:
  FrontEnd(Kind kind, const serve::ConnConfig& conn,
           std::size_t backends = 1,
           const std::function<void(cluster::RouteConfig&)>& tweak = {}) {
    if (kind == Kind::kServe) {
      serve::ServeConfig sc;
      static_cast<serve::ConnConfig&>(sc) = conn;
      sc.metrics = false;
      daemon_ = std::make_unique<Daemon>(std::move(sc));
      return;
    }
    cluster::RouteConfig rc;
    static_cast<serve::ConnConfig&>(rc) = conn;
    rc.metrics = false;
    if (tweak) tweak(rc);
    for (std::size_t i = 0; i < backends; ++i) {
      serve::ServeConfig sc;
      sc.metrics = false;
      backends_.push_back(std::make_unique<Daemon>(std::move(sc)));
      cluster::BackendAddr addr;
      addr.name = "b" + std::to_string(i);
      addr.ingest_port = backends_.back()->server.ingest_port();
      addr.http_port = backends_.back()->server.http_port();
      rc.backends.push_back(std::move(addr));
    }
    router_.emplace(std::move(rc));
    router_->start();
    loop_ = std::thread([this] { route_stats_ = router_->run(&stop_); });
  }

  ~FrontEnd() {
    if (loop_.joinable()) {
      stop_.store(true);
      loop_.join();
    }
  }

  [[nodiscard]] std::uint16_t ingest_port() const {
    return daemon_ ? daemon_->server.ingest_port() : router_->ingest_port();
  }
  [[nodiscard]] std::uint16_t http_port() const {
    return daemon_ ? daemon_->server.http_port() : router_->http_port();
  }
  [[nodiscard]] const stream::Quarantine& quarantine() const {
    return daemon_ ? daemon_->server.quarantine() : router_->quarantine();
  }
  [[nodiscard]] const cluster::Router& router() const { return *router_; }

  /// Joins every loop; call once a drain has been answered.
  void join() {
    if (daemon_) daemon_->loop.join();
    if (loop_.joinable()) loop_.join();
    for (auto& b : backends_) b->loop.join();
  }

  HttpResponse drain_and_join() {
    HttpResponse r = serve::http_post("127.0.0.1", http_port(), "/admin/drain");
    join();
    return r;
  }

  /// Records the front end passed on: applied by serve, forwarded by the
  /// router.
  [[nodiscard]] std::uint64_t records_in() const {
    return daemon_ ? daemon_->stats.records_applied
                   : route_stats_.records_forwarded;
  }
  [[nodiscard]] std::uint64_t records_malformed() const {
    return daemon_ ? daemon_->stats.records_malformed
                   : route_stats_.records_malformed;
  }
  /// Records applied by backend `i` (router only).
  [[nodiscard]] std::uint64_t backend_applied(std::size_t i) const {
    return backends_[i]->stats.records_applied;
  }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<Daemon>> backends_;
  std::optional<cluster::Router> router_;
  std::atomic<bool> stop_{false};
  cluster::RouteStats route_stats_;
  std::thread loop_;
};

std::string checkin_line(trace::UserId user, trace::TimeSec t) {
  return "checkin," + std::to_string(user) + "," + std::to_string(t) +
         ",1,Food,37.0,-122.0\n";
}

std::string frame(trace::UserId user, trace::TimeSec t) {
  trace::Checkin c;
  c.t = t;
  c.poi = 1;
  c.category = trace::PoiCategory::kFood;
  c.location = {37.0, -122.0};
  std::string out;
  const stream::Event e = stream::Event::checkin_event(user, c);
  serve::append_binary_frame(out, {&e, 1});
  return out;
}

/// One raw request on the HTTP port, answered and closed by the server.
HttpResponse raw_request(std::uint16_t port, const std::string& bytes) {
  Fd fd = serve::tcp_connect("127.0.0.1", port);
  EXPECT_TRUE(serve::send_all(fd.get(), bytes));
  return serve::parse_http_response(serve::recv_all(fd.get()), "raw");
}

class ConnCore : public ::testing::TestWithParam<Kind> {};

TEST_P(ConnCore, OversizedLineAndMidRecordEofDeadLetterAsMalformedLine) {
  serve::ConnConfig conn;
  conn.max_line_bytes = 128;
  FrontEnd fe(GetParam(), conn);
  {
    Fd c = serve::tcp_connect("127.0.0.1", fe.ingest_port());
    ASSERT_TRUE(serve::send_all(c.get(), checkin_line(1, 1000) +
                                             std::string(500, 'x') + "\n" +
                                             checkin_line(1, 2000) +
                                             "checkin,1,3000,1,Fo"));
  }  // abrupt close mid-record
  EXPECT_EQ(fe.drain_and_join().status, 200);
  EXPECT_EQ(fe.quarantine().count(stream::QuarantineReason::kMalformedLine),
            2u);
  EXPECT_EQ(fe.records_malformed(), 2u);
  EXPECT_EQ(fe.records_in(), 2u);
}

TEST_P(ConnCore, MidFrameEofAndCrcBrokenFrameDeadLetterAsMalformedFrame) {
  FrontEnd fe(GetParam(), {});
  std::string broken = frame(2, 2000);
  broken.back() = static_cast<char>(broken.back() ^ 0x10);  // CRC trailer
  const std::string cut = frame(4, 4000);
  {
    Fd c = serve::tcp_connect("127.0.0.1", fe.ingest_port());
    ASSERT_TRUE(serve::send_all(c.get(), frame(1, 1000) + broken +
                                             frame(3, 3000) +
                                             cut.substr(0, cut.size() / 2)));
  }  // abrupt close mid-frame
  EXPECT_EQ(fe.drain_and_join().status, 200);
  EXPECT_EQ(fe.quarantine().count(stream::QuarantineReason::kMalformedFrame),
            2u);
  EXPECT_EQ(fe.records_malformed(), 2u);
  EXPECT_EQ(fe.records_in(), 2u);
}

TEST_P(ConnCore, MalformedRequestGets400AndOversizedHeadGets431) {
  FrontEnd fe(GetParam(), {});
  EXPECT_EQ(raw_request(fe.http_port(), "NOT-HTTP\r\n\r\n").status, 400);
  // One send, read by the server in one recv: the 431 is written before
  // the close, with nothing unread to turn the FIN into a reset.
  EXPECT_EQ(raw_request(fe.http_port(),
                        "GET /healthz HTTP/1.1\r\nX-Pad: " +
                            std::string(9 * 1024, 'a') + "\r\n")
                .status,
            431);
  EXPECT_EQ(fe.drain_and_join().status, 200);
}

TEST_P(ConnCore, IdleStragglerIsSweptAndItsHalfLineDeadLettered) {
  serve::ConnConfig conn;
  conn.idle_timeout_s = 0.3;
  FrontEnd fe(GetParam(), conn);
  Fd c = serve::tcp_connect("127.0.0.1", fe.ingest_port());
  ASSERT_TRUE(serve::send_all(c.get(), checkin_line(5, 1000) + "chec"));
  // Stop talking: the sweep closes us (EOF) and dead-letters the half.
  EXPECT_TRUE(serve::recv_all(c.get()).empty());
  EXPECT_EQ(fe.drain_and_join().status, 200);
  EXPECT_EQ(fe.records_in(), 1u);
  EXPECT_EQ(fe.quarantine().count(stream::QuarantineReason::kMalformedLine),
            1u);
}

TEST_P(ConnCore, MaxConnectionsHoldsAcrossBothPorts) {
  serve::ConnConfig conn;
  conn.max_connections = 1;
  FrontEnd fe(GetParam(), conn);
  std::optional<Fd> holder = serve::tcp_connect("127.0.0.1", fe.ingest_port());
  ASSERT_TRUE(serve::send_all(holder->get(), checkin_line(1, 1000)));
  // Once the holder owns the only slot, the control plane waits in the
  // kernel backlog and never answers within a deadline. (A probe that
  // beats the holder's accept is answered; the next one is not.)
  bool refused = false;
  for (int i = 0; i < 10 && !refused; ++i) {
    try {
      (void)serve::http_get_deadline("127.0.0.1", fe.http_port(), "/healthz",
                                     300);
    } catch (const serve::NetError&) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  holder.reset();  // EOF frees the slot; the drain gets through
  EXPECT_EQ(fe.drain_and_join().status, 200);
  EXPECT_EQ(fe.records_in(), 1u);
}

TEST_P(ConnCore, DrainCallerIsNeverSweptAsIdle) {
  // The drain answers only after the ingest stream ends, a second after
  // the call; the caller sends nothing meanwhile, and must not be swept.
  serve::ConnConfig conn;
  conn.idle_timeout_s = 0.3;
  FrontEnd fe(GetParam(), conn);
  Fd c = serve::tcp_connect("127.0.0.1", fe.ingest_port());
  HttpResponse drained;
  std::thread drainer([&] {
    std::this_thread::sleep_for(50ms);
    try {
      drained = serve::http_post("127.0.0.1", fe.http_port(), "/admin/drain");
    } catch (const serve::NetError& e) {
      ADD_FAILURE() << "drain caller lost its answer: " << e.what();
    }
  });
  // EXPECT, not ASSERT, below: the drainer thread must still be joined.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(serve::send_all(c.get(), checkin_line(1, 1000 * (i + 1))));
    std::this_thread::sleep_for(100ms);
  }
  c.reset();
  drainer.join();
  fe.join();
  EXPECT_EQ(drained.status, 200) << drained.body;
  EXPECT_EQ(fe.records_in(), 10u);
}

INSTANTIATE_TEST_SUITE_P(FrontEnds, ConnCore,
                         ::testing::Values(Kind::kServe, Kind::kRoute),
                         [](const auto& param_info) {
                           return param_info.param == Kind::kServe
                                      ? "serve"
                                      : "route";
                         });

TEST(ConnCorePause, RouterBackpressurePauseNeverSweepsIngest) {
  // A stalled backend fills its small forwarder buffer, so the router
  // stops reading ingest for 1.5 s — five idle timeouts. The paused
  // connection is waiting on the router, not idle: every record must
  // still arrive once the stall ends.
  serve::ConnConfig conn;
  conn.idle_timeout_s = 0.3;
  FrontEnd fe(Kind::kRoute, conn, 2, [](cluster::RouteConfig& rc) {
    rc.backend_buffer_bytes = 4096;
    rc.net_faults = stream::parse_net_fault_spec("netstall=b1@1:1500");
  });
  std::vector<trace::UserId> users;
  for (trace::UserId u = 0; users.size() < 50; ++u) {
    if (fe.router().ring().owner_index(u) == 1) users.push_back(u);
  }
  std::string payload;
  for (trace::TimeSec t = 1; t <= 1170; ++t) {
    for (trace::UserId u : users) payload += checkin_line(u, t * 60);
  }
  ASSERT_GT(payload.size(), 2'000'000u);  // about 2 MiB
  {
    Fd c = serve::tcp_connect("127.0.0.1", fe.ingest_port());
    EXPECT_TRUE(serve::send_all(c.get(), payload));
  }
  EXPECT_EQ(fe.drain_and_join().status, 200);
  EXPECT_EQ(fe.records_in(), 58500u);
  EXPECT_EQ(fe.records_malformed(), 0u);
  EXPECT_EQ(fe.backend_applied(1), 58500u);
}

}  // namespace
}  // namespace geovalid
