#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <random>
#include <thread>

#include "serve/net.h"
#include "serve/wire.h"

namespace perfbench {

namespace serve = geovalid::serve;
using geovalid::stream::Event;

WireLoad encode_load(std::span<const Event> events,
                     const std::vector<Wire>& formats, bool paced) {
  const std::size_t conns = formats.size();
  std::vector<std::vector<std::uint32_t>> members(conns);
  for (std::size_t k = 0; k < events.size(); ++k) {
    members[events[k].user % conns].push_back(static_cast<std::uint32_t>(k));
  }
  WireLoad load;
  load.bytes.resize(conns);
  load.events = events.size();
  if (paced) {
    load.index = members;
    load.end.resize(conns);
  }
  std::vector<Event> frame;
  for (std::size_t c = 0; c < conns; ++c) {
    std::string& out = load.bytes[c];
    const std::vector<std::uint32_t>& mine = members[c];
    if (formats[c] == Wire::kText) {
      for (const std::uint32_t k : mine) {
        serve::append_wire_record(out, events[k]);
        if (paced) load.end[c].push_back(out.size());
      }
      continue;
    }
    for (std::size_t i = 0; i < mine.size(); i += kFrameRecords) {
      const std::size_t n = std::min(kFrameRecords, mine.size() - i);
      frame.clear();
      for (std::size_t j = 0; j < n; ++j) frame.push_back(events[mine[i + j]]);
      serve::append_binary_frame(out, frame);
      if (paced) load.end[c].insert(load.end[c].end(), n, out.size());
    }
  }
  return load;
}

std::vector<serve::Fd> connect_load(std::uint16_t port, const WireLoad& load) {
  std::vector<serve::Fd> fds;
  for (std::size_t c = 0; c < load.bytes.size(); ++c) {
    fds.push_back(serve::tcp_connect("127.0.0.1", port));
    serve::set_nonblocking(fds.back().get());
  }
  return fds;
}

SendStats send_load(std::vector<serve::Fd>& fds, const WireLoad& load,
                    const OpenLoop* schedule) {
  using namespace std::chrono_literals;
  constexpr auto kTick = 200us;  // paced release granularity
  constexpr auto kDeadline = 120s;
  constexpr std::size_t kMaxSend = 1 << 20;

  const std::size_t conns = load.bytes.size();
  std::vector<std::uint64_t> sent(conns, 0);
  std::vector<std::uint64_t> target(conns, 0);
  std::vector<std::size_t> released(conns, 0);
  if (schedule == nullptr) {
    for (std::size_t c = 0; c < conns; ++c) target[c] = load.bytes[c].size();
  }

  SendStats stats;
  bool stamped = false;
  const Clock::time_point give_up = Clock::now() + kDeadline;
  Clock::time_point next_tick = schedule ? schedule->start() : Clock::now();
  while (true) {
    const Clock::time_point now = Clock::now();
    if (now > give_up) {
      stats.ok = false;
      break;
    }
    if (schedule != nullptr) {
      const std::uint64_t due = schedule->due_count(now);
      for (std::size_t c = 0; c < conns; ++c) {
        const std::vector<std::uint32_t>& index = load.index[c];
        const std::size_t first = released[c];
        while (released[c] < index.size() && index[released[c]] < due) {
          ++released[c];
        }
        if (released[c] > first) {
          stats.late_ms.push_back(schedule->late_ms(index[first], now));
          target[c] = load.end[c][released[c] - 1];
        }
      }
    }
    bool done = true;
    std::vector<pollfd> blocked;
    for (std::size_t c = 0; c < conns; ++c) {
      while (sent[c] < target[c]) {
        if (!stamped) {
          stats.first_byte = Clock::now();
          stamped = true;
        }
        const std::size_t len =
            std::min<std::uint64_t>(target[c] - sent[c], kMaxSend);
        const ssize_t n = ::send(fds[c].get(), load.bytes[c].data() + sent[c],
                                 len, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          sent[c] += static_cast<std::uint64_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked.push_back({fds[c].get(), POLLOUT, 0});
          break;
        }
        stats.ok = false;  // the server went away mid-send
        return stats;
      }
      if (sent[c] < load.bytes[c].size()) done = false;
    }
    if (done) {
      stats.last_byte = Clock::now();
      break;
    }
    if (schedule == nullptr) {
      (void)::poll(blocked.data(), blocked.size(), 100);
    } else {
      next_tick += kTick;
      if (next_tick > Clock::now()) std::this_thread::sleep_until(next_tick);
    }
  }
  for (serve::Fd& fd : fds) ::shutdown(fd.get(), SHUT_WR);
  return stats;
}

bool is_lookup(Query q) { return q == Query::kVerdicts || q == Query::kScore; }

std::vector<QuerySample> run_queries(std::uint16_t http_port,
                                     const OpenLoop& schedule,
                                     const OpenLoop& ingest,
                                     std::span<const LookupUser> users,
                                     std::uint64_t seed,
                                     const std::atomic<bool>& stop) {
  using namespace std::chrono_literals;
  constexpr auto kReachEngine = 50ms;
  // Scans and lookups alternate, as in the repository's query prober.
  constexpr Query kRotation[] = {Query::kSuspects, Query::kScore,
                                 Query::kSummary, Query::kVerdicts};
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<QuerySample> out;
  for (std::uint64_t j = 0;; ++j) {
    const Clock::time_point due = schedule.due(j);
    while (Clock::now() < due && !stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(std::min(due, Clock::now() + 10ms));
    }
    if (stop.load(std::memory_order_relaxed)) break;
    const std::uint64_t arrived = ingest.due_count(due - kReachEngine);
    const std::size_t eligible = static_cast<std::size_t>(
        std::partition_point(users.begin(), users.end(),
                             [&](const LookupUser& u) {
                               return u.first_checkin < arrived;
                             }) -
        users.begin());
    QuerySample s;
    s.kind = kRotation[j % std::size(kRotation)];
    if (is_lookup(s.kind) && eligible == 0) s.kind = Query::kSummary;  // nobody yet
    std::string target;
    if (is_lookup(s.kind)) {
      const std::uint32_t user =
          users[static_cast<std::size_t>(rng() % eligible)].id;
      target = "/v1/users/" + std::to_string(user) +
               (s.kind == Query::kScore ? "/score" : "/verdicts");
    } else {
      target = s.kind == Query::kSummary ? "/v1/summary" : "/v1/suspects?k=10";
    }
    const Clock::time_point started = Clock::now();
    s.late_ms = schedule.late_ms(j, started);
    try {
      s.ok = serve::http_get_deadline("127.0.0.1", http_port, target, 30000)
                 .status == 200;
    } catch (const serve::NetError&) {
      s.ok = false;
    }
    s.latency_ms = ms_between(due, Clock::now());
    out.push_back(s);
  }
  return out;
}

}  // namespace perfbench
