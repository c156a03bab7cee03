// cluster::Forwarder driven directly against plain loopback listeners
// standing in for a backend's ingest port: a held queue drains in arrival
// order once the backend is up; a sever during a partial send rewinds to
// the half-sent record, which the next connection receives whole; and a
// record leaves a queue unsent only as superseded (discard_spool(), a
// successful replace()) or dropped (close()) — never through a refused
// replace().
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "cluster/forwarder.h"
#include "serve/net.h"

namespace geovalid::cluster {
namespace {

using namespace std::chrono_literals;
using serve::Fd;
using Clock = std::chrono::steady_clock;

/// A plain loopback listener: it accepts and reads, and nothing else.
struct Listener {
  Fd fd = serve::tcp_listen("127.0.0.1", 0);
  std::uint16_t port = serve::local_port(fd.get());

  [[nodiscard]] BackendAddr addr() const {
    BackendAddr a;
    a.name = "b0";
    a.ingest_port = port;
    a.http_port = port;
    return a;
  }

  /// The next connection a forwarder opened (a blocking socket).
  [[nodiscard]] Fd accept() const {
    pollfd p{fd.get(), POLLIN, 0};
    EXPECT_EQ(::poll(&p, 1, 5000), 1);
    Fd conn(::accept4(fd.get(), nullptr, nullptr, SOCK_CLOEXEC));
    EXPECT_TRUE(conn.valid());
    return conn;
  }
};

/// A loopback port nothing listens on: connects to it are refused.
std::uint16_t closed_port() {
  const Listener gone;
  return gone.port;
}

/// Flushes until both queues are empty, waiting on the sockets the way
/// the router's poll loop does.
void flush_all(Forwarder& f) {
  for (int i = 0; i < 1000 && f.buffered() > 0; ++i) {
    pollfd ps[2];
    nfds_t n = 0;
    if (f.wants_write()) ps[n++] = {f.fd(), POLLOUT, 0};
    if (f.wants_binary_write()) ps[n++] = {f.binary_fd(), POLLOUT, 0};
    (void)::poll(ps, n, 100);
    f.flush();
  }
  EXPECT_EQ(f.buffered(), 0u);
}

/// Caps one socket buffer (the kernel doubles the value), so a peer that
/// does not read stops a flush after some tens of KiB.
void cap_buffer(int fd, int option) {
  const int bytes = 16 * 1024;
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, option, &bytes, sizeof(bytes)), 0);
}

/// Records much larger than the capped socket buffers, so one flush
/// leaves a record half-sent. The size is prime so no kernel chunking
/// lands on a record boundary.
constexpr std::size_t kBigRecord = 99'991;

TEST(Forwarder, HeldQueueDrainsInArrivalOrderOnceUp) {
  const Listener backend;
  Forwarder f(backend.addr());
  ASSERT_TRUE(f.connect());
  const Fd text = backend.accept();
  EXPECT_EQ(f.state(), BackendState::kRecovering);

  // Recovering: both queues hold, and what they hold is the spool.
  const std::string frame_a = "\xB1GVF-a";
  const std::string frame_b = "\xB1GVF-b";
  f.enqueue("one");
  f.enqueue_frame(frame_a, 3);
  f.enqueue("two");
  f.enqueue_frame(frame_b, 2);
  f.enqueue("three");
  f.flush();  // holds: nothing leaves
  EXPECT_EQ(f.spool_records(), 8u);
  EXPECT_EQ(f.spool_bytes(), 14 + frame_a.size() + frame_b.size());
  EXPECT_EQ(f.buffered(), 0u);
  EXPECT_FALSE(f.wants_write());
  EXPECT_EQ(f.binary_fd(), -1);
  EXPECT_GE(f.spool_age_seconds(Clock::now() + 1s), 1.0);

  // Same process: the held queues drain as they are once up.
  ASSERT_TRUE(f.drain_spool());
  const Fd binary = backend.accept();
  f.set_state(BackendState::kUp);
  EXPECT_EQ(f.spool_records(), 0u);
  EXPECT_EQ(f.spool_bytes(), 0u);
  EXPECT_EQ(f.spool_age_seconds(Clock::now()), 0.0);
  flush_all(f);
  f.close();
  EXPECT_EQ(f.dropped, 0u);
  EXPECT_EQ(serve::recv_all(text.get()), "one\ntwo\nthree\n");
  EXPECT_EQ(serve::recv_all(binary.get()), frame_a + frame_b);
}

TEST(Forwarder, SeverMidRecordResendsTheHalfSentRecordWhole) {
  const Listener backend;
  cap_buffer(backend.fd.get(), SO_RCVBUF);
  Forwarder f(backend.addr());
  ASSERT_TRUE(f.connect());
  cap_buffer(f.fd(), SO_SNDBUF);
  const Fd first = backend.accept();
  f.set_state(BackendState::kUp);

  constexpr std::size_t kRecords = 8;
  std::string stream;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const std::string record(kBigRecord, static_cast<char>('a' + i));
    f.enqueue(record);
    stream += record + "\n";
  }
  f.flush();
  const std::size_t unsent = f.buffered();
  ASSERT_GT(unsent, 0u);
  ASSERT_LT(unsent, stream.size());
  f.sever();
  EXPECT_EQ(f.state(), BackendState::kDown);
  EXPECT_FALSE(f.connected());

  // The first connection delivered exactly what the kernel took, ending
  // inside a record.
  const std::string delivered = serve::recv_all(first.get());
  ASSERT_EQ(delivered.size(), stream.size() - unsent);
  EXPECT_TRUE(delivered == stream.substr(0, delivered.size()));
  ASSERT_NE(delivered.back(), '\n');
  const std::size_t whole = delivered.size() / (kBigRecord + 1);

  // The spool starts at the half-sent record's first byte.
  const std::string rest = stream.substr(whole * (kBigRecord + 1));
  EXPECT_EQ(f.spool_records(), kRecords - whole);
  EXPECT_EQ(f.spool_bytes(), rest.size());

  // Same process, next connection: the stream resumes exactly there.
  ASSERT_TRUE(f.connect());
  const Fd second = backend.accept();
  ASSERT_TRUE(f.drain_spool());
  f.set_state(BackendState::kUp);
  std::string received;
  std::thread reader([&] { received = serve::recv_all(second.get()); });
  flush_all(f);
  f.close();
  reader.join();
  EXPECT_EQ(f.dropped, 0u);
  EXPECT_EQ(f.reconnects, 1u);
  EXPECT_EQ(received.size(), rest.size());
  EXPECT_TRUE(received == rest);
}

TEST(Forwarder, DiscardSpoolCountsTheHeldRecordsSuperseded) {
  const Listener backend;
  Forwarder f(backend.addr());
  ASSERT_TRUE(f.connect());
  const Fd conn = backend.accept();
  f.enqueue("one");
  f.enqueue("two");
  f.enqueue_frame("\xB1GVF", 4);
  EXPECT_EQ(f.discard_spool(), 6u);
  EXPECT_EQ(f.superseded, 6u);
  EXPECT_EQ(f.spool_records(), 0u);
  EXPECT_EQ(f.spool_bytes(), 0u);

  // Nothing discarded is ever sent.
  ASSERT_TRUE(f.drain_spool());
  f.set_state(BackendState::kUp);
  f.enqueue("three");
  flush_all(f);
  f.close();
  EXPECT_EQ(f.dropped, 0u);
  EXPECT_EQ(serve::recv_all(conn.get()), "three\n");
}

TEST(Forwarder, CloseCountsQueuedRecordsDropped) {
  const Listener backend;
  {
    // Held records.
    Forwarder f(backend.addr());
    ASSERT_TRUE(f.connect());
    const Fd conn = backend.accept();
    f.enqueue("one");
    f.enqueue_frame("\xB1GVF", 4);
    f.close();
    EXPECT_EQ(f.dropped, 5u);
    EXPECT_EQ(f.superseded, 0u);
    EXPECT_EQ(f.state(), BackendState::kDown);
    EXPECT_FALSE(f.connected());
    EXPECT_EQ(f.spool_records(), 0u);
    EXPECT_TRUE(serve::recv_all(conn.get()).empty());
  }
  {
    // Draining records: every record with an unsent byte, the half-sent
    // one included.
    cap_buffer(backend.fd.get(), SO_RCVBUF);
    Forwarder f(backend.addr());
    ASSERT_TRUE(f.connect());
    cap_buffer(f.fd(), SO_SNDBUF);
    const Fd conn = backend.accept();
    f.set_state(BackendState::kUp);
    for (int i = 0; i < 8; ++i) f.enqueue(std::string(kBigRecord, 'x'));
    f.flush();
    const std::size_t unsent = f.buffered();
    ASSERT_GT(unsent, 0u);
    f.close();
    EXPECT_EQ(f.dropped, (unsent + kBigRecord) / (kBigRecord + 1));
  }
}

TEST(Forwarder, RefusedReplaceLeavesAddressStateAndQueue) {
  const Listener backend;
  Forwarder f(backend.addr());
  ASSERT_TRUE(f.connect());
  const Fd conn = backend.accept();
  f.set_state(BackendState::kUp);
  f.enqueue("one");
  f.enqueue("two");

  BackendAddr dead = backend.addr();
  dead.ingest_port = closed_port();
  EXPECT_FALSE(f.replace(dead));
  EXPECT_EQ(f.addr().ingest_port, backend.port);
  EXPECT_EQ(f.state(), BackendState::kUp);
  EXPECT_TRUE(f.connected());
  EXPECT_EQ(f.buffered(), 8u);
  EXPECT_EQ(f.superseded, 0u);

  // The same connection still carries the same records.
  flush_all(f);
  f.close();
  EXPECT_EQ(f.dropped, 0u);
  EXPECT_EQ(serve::recv_all(conn.get()), "one\ntwo\n");
}

TEST(Forwarder, ReplaceSupersedesTheOldProcessQueue) {
  const Listener old_backend;
  const Listener new_backend;
  Forwarder f(old_backend.addr());
  ASSERT_TRUE(f.connect());
  const Fd old_conn = old_backend.accept();
  f.enqueue("one");
  f.enqueue_frame("\xB1GVF", 4);

  ASSERT_TRUE(f.replace(new_backend.addr()));
  const Fd new_conn = new_backend.accept();
  EXPECT_EQ(f.superseded, 5u);
  EXPECT_EQ(f.addr().ingest_port, new_backend.port);
  EXPECT_EQ(f.state(), BackendState::kRecovering);
  EXPECT_EQ(f.spool_records(), 0u);
  EXPECT_TRUE(serve::recv_all(old_conn.get()).empty());

  f.set_state(BackendState::kUp);
  f.enqueue("two");
  flush_all(f);
  f.close();
  EXPECT_EQ(serve::recv_all(new_conn.get()), "two\n");
}

}  // namespace
}  // namespace geovalid::cluster
