#include "cluster/forwarder.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace geovalid::cluster {
namespace {

using Clock = std::chrono::steady_clock;

/// Sent bytes a draining queue keeps before it compacts its buffer.
constexpr std::size_t kCompactBytes = 256 * 1024;

}  // namespace

const char* to_string(BackendState state) {
  switch (state) {
    case BackendState::kDown:
      return "down";
    case BackendState::kRecovering:
      return "recovering";
    case BackendState::kSuspect:
      return "suspect";
    case BackendState::kUp:
      return "up";
  }
  return "unknown";
}

serve::Fd Forwarder::dial(const BackendAddr& addr) const noexcept {
  try {
    return serve::tcp_connect_deadline(addr.host, addr.ingest_port,
                                       connect_timeout_ms_);
  } catch (const serve::NetError&) {
    return {};
  }
}

bool Forwarder::adopt(serve::Fd fd) noexcept {
  text_.fd = std::move(fd);
  if (!text_.fd.valid()) {
    state_ = BackendState::kDown;
    return false;
  }
  if (ever_connected_) ++reconnects;
  ever_connected_ = true;
  // Not up yet: the router promotes once a probe passes and the replay
  // decision (drain vs. discard the held queues) has been made.
  state_ = BackendState::kRecovering;
  return true;
}

bool Forwarder::connect() noexcept { return adopt(dial(addr_)); }

bool Forwarder::open_binary() noexcept {
  // Lazy second connection: the backend negotiates per connection from
  // the first byte, so binary frames need their own socket — the frame
  // magic 0xB1 the first flush sends is the negotiation.
  if (!binary_.fd.valid()) binary_.fd = dial(addr_);
  return binary_.fd.valid();
}

double Forwarder::spool_age_seconds(Clock::time_point now) const {
  if (spool_records() == 0) return 0.0;
  return std::chrono::duration<double>(now - held_since_).count();
}

void Forwarder::on_injected(const stream::NetFaultInjector::Triggered& t) {
  if (t.reset) inject_reset_ = true;
  if (t.drop) inject_drop_ = true;
  if (t.stall_millis > 0) {
    const Clock::time_point until =
        Clock::now() + std::chrono::milliseconds(t.stall_millis);
    if (until > stall_until_) stall_until_ = until;
  }
}

std::string& Forwarder::queue(Channel& ch, std::size_t size,
                              std::uint64_t records) {
  if (!sending() && text_.records + binary_.records == 0) {
    held_since_ = Clock::now();
  }
  const auto bytes = static_cast<std::uint32_t>(size);
  ch.pending.push_back(
      Pending{bytes, bytes, static_cast<std::uint32_t>(records)});
  ch.records += records;
  return ch.buf;
}

void Forwarder::enqueue(std::string_view line) {
  if (fault_injector_ != nullptr) {
    on_injected(fault_injector_->on_records(addr_.name, 1));
  }
  std::string& buf = queue(text_, line.size() + 1, 1);
  buf.append(line.data(), line.size());
  buf.push_back('\n');
}

void Forwarder::enqueue_frame(std::string_view frame, std::uint64_t records) {
  if (fault_injector_ != nullptr) {
    on_injected(fault_injector_->on_records(addr_.name, records));
  }
  queue(binary_, frame.size(), records).append(frame.data(), frame.size());
  // A backend that accepts no new connection has failed like any other:
  // the queue holds and recovery starts.
  if (sending() && !open_binary()) sever();
}

/// Credits sent bytes to the oldest records; a record stays queued until
/// it is fully sent, so rewind() can re-send it whole. A fatal socket
/// error (EPIPE/ECONNRESET/anything unexpected) returns false — the
/// caller severs the whole forwarder; a backend that lost one channel has
/// lost the process behind both.
bool Forwarder::Channel::send() {
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd.get(), buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
    for (auto sent = static_cast<std::size_t>(n); sent > 0;) {
      Pending& p = pending.front();
      const auto take =
          static_cast<std::uint32_t>(std::min<std::size_t>(sent, p.left));
      p.left -= take;
      sent -= take;
      if (p.left == 0) {
        records -= p.records;
        pending.pop_front();
      }
    }
  }
  if (pending.empty()) {
    buf.clear();
    off = 0;
  } else if (off > kCompactBytes) {
    // Keep the oldest record's sent head: rewind() may need it.
    const std::size_t head = off - (pending.front().size - pending.front().left);
    buf.erase(0, head);
    off -= head;
  }
  return true;
}

void Forwarder::Channel::rewind() {
  // Every byte before the oldest record's first one belonged to a
  // complete record on a connection closed in order, so it is the
  // backend's; the half-sent record's delivered head dead-letters there
  // as a truncated fragment, and its whole copy is re-sent.
  std::size_t start = off;
  if (!pending.empty()) {
    start -= pending.front().size - pending.front().left;
    pending.front().left = pending.front().size;
  }
  buf.erase(0, start);
  off = 0;
}

std::uint64_t Forwarder::Channel::clear() {
  const std::uint64_t held = records;
  buf.clear();
  off = 0;
  pending.clear();
  records = 0;
  return held;
}

void Forwarder::flush() {
  if (!sending()) return;
  if (inject_reset_) {
    // Simulated ECONNRESET from `netreset=`: the next flush fails
    // abruptly, exactly as if the kernel reported the peer reset.
    inject_reset_ = false;
    sever();
    return;
  }
  if (inject_drop_) {
    // Simulated severed link from `netdrop=`: FIN both channels without
    // telling the forwarder. The router's normal peer-EOF detection (or
    // the next send's EPIPE) discovers it, exercising the passive path.
    inject_drop_ = false;
    if (text_.fd.valid()) ::shutdown(text_.fd.get(), SHUT_RDWR);
    if (binary_.fd.valid()) ::shutdown(binary_.fd.get(), SHUT_RDWR);
    return;
  }
  if (stall_until_ != Clock::time_point{} && Clock::now() < stall_until_) {
    // Simulated kernel stall from `netstall=`: behave as if every send
    // returned EAGAIN until the window passes.
    return;
  }
  if (!text_.send() || !binary_.send()) sever();
}

void Forwarder::sever() {
  // Records queued while sending start holding now.
  if (sending()) held_since_ = Clock::now();
  text_.fd.reset();
  binary_.fd.reset();
  text_.rewind();
  binary_.rewind();
  state_ = BackendState::kDown;
}

bool Forwarder::drain_spool() {
  if (binary_.records > 0 && !open_binary()) {
    sever();
    return false;
  }
  return true;
}

std::uint64_t Forwarder::discard_spool() {
  const std::uint64_t count = text_.clear() + binary_.clear();
  superseded += count;
  return count;
}

void Forwarder::close() {
  // Deliberate teardown: whatever is still queued has no re-delivery
  // path from here, so the loss is counted, never silent.
  dropped += text_.clear() + binary_.clear();
  text_.fd.reset();
  binary_.fd.reset();
  state_ = BackendState::kDown;
}

bool Forwarder::replace(BackendAddr addr) noexcept {
  serve::Fd fd = dial(addr);
  if (!fd.valid()) return false;  // refused: the backend stays as it was
  // The rebalance re-send supersedes everything queued for the old
  // process: discard without counting dropped.
  (void)discard_spool();
  binary_.fd.reset();
  addr_ = std::move(addr);
  return adopt(std::move(fd));
}

}  // namespace geovalid::cluster
