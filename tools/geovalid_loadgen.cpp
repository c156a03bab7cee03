// geovalid_loadgen — replay a CSV dataset against a running `geovalid
// serve` daemon over N concurrent ingest connections and print one line of
// JSON throughput/latency stats (docs/SERVICE.md).
//
//   geovalid_loadgen <dataset_dir> --port N [--http-port N] [--host ADDR]
//                    [--connections N] [--rate EVENTS/S]
//                    [--format text|binary] [--retries N]
//                    [--inject-net-faults SPEC] [--route]
//                    [--probe-suspects]
//
// Events are partitioned by `user % connections` so each user's records
// arrive in trace order over one connection — the ordering the engine's
// verdicts depend on. --format binary replays columnar frames instead of
// text lines (docs/SERVICE.md wire protocol); the JSON reports the
// format used plus encode_events_per_sec, the client-side serialization
// throughput. With --http-port the control plane is probed after
// the replay: /healthz, /metrics (status + content type), and a timed
// /v1/summary whose body is embedded in the output verbatim.
//
// --probe-suspects (requires --http-port) additionally hits the scoring
// control plane while the replay runs: periodic GET /v1/suspects?k=5 plus
// a score lookup for a deterministically-cycled user from the trace, with
// one final probe after the replay. The JSON gains probe counts, the mean
// suspects latency, and the last suspects body verbatim; zero successful
// suspects probes is a run failure (the target has no model loaded).
//
// --route marks the target as a `geovalid route` front end under test:
// per-connection failures (connect_failures / failed_connections in the
// JSON) are loss-window *measurements* for cluster kill/recover benches,
// not run failures, so they never turn into a non-zero exit.
//
// --retries N rides out a dying/recovering target: a refused connect or a
// peer lost mid-replay (EPIPE) waits a jittered exponential backoff,
// re-dials, and re-sends the shard from the beginning — the full re-send
// the cluster's epoch protocol deduplicates. The JSON reports `reconnects`
// (re-dials made) and `retry_exhausted` (replay still incomplete).
// --inject-net-faults SPEC applies the deterministic net fault grammar
// (stream/faults.h) client-side, with the zero-based connection index as
// the target name.
//
// Exit codes: 0 success, 1 runtime failure (daemon unreachable, replay
// connections dropped, or a failed control-plane probe — all waived
// under --route), 2 usage error.
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "serve/client.h"
#include "serve/net.h"
#include "stream/replay.h"
#include "trace/csv.h"
#include "trace/fields.h"

namespace {

using namespace geovalid;

int usage() {
  std::cerr
      << "usage: geovalid_loadgen <dataset_dir> --port N [--http-port N]\n"
         "                        [--host ADDR] [--connections N]\n"
         "                        [--rate EVENTS/S] [--format text|binary]\n"
         "                        [--retries N] [--inject-net-faults SPEC]\n"
         "                        [--route] [--probe-suspects]\n";
  return 2;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::optional<std::string> string_flag_value(int argc, char** argv,
                                             const char* name) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

std::optional<std::uint64_t> int_flag_value(int argc, char** argv,
                                            const char* name) {
  const auto raw = string_flag_value(argc, argv, name);
  std::uint64_t v = 0;
  if (raw && !trace::parse_int(*raw, v)) {
    throw std::runtime_error(std::string(name) +
                             " must be a non-negative integer, got '" +
                             *raw + "'");
  }
  return raw ? std::optional(v) : std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::filesystem::path dir = argv[1];

  serve::LoadgenConfig cfg;
  try {
    const auto port = int_flag_value(argc - 2, argv + 2, "--port");
    if (!port || *port == 0 || *port > 65535) {
      std::cerr << "error: --port is required (1-65535)\n";
      return usage();
    }
    cfg.port = static_cast<std::uint16_t>(*port);
    if (const auto http = int_flag_value(argc - 2, argv + 2, "--http-port")) {
      if (*http > 65535) {
        std::cerr << "error: --http-port must be at most 65535\n";
        return usage();
      }
      cfg.http_port = static_cast<std::uint16_t>(*http);
    }
    if (const auto host = string_flag_value(argc - 2, argv + 2, "--host")) {
      cfg.host = *host;
    }
    if (const auto conns =
            int_flag_value(argc - 2, argv + 2, "--connections")) {
      if (*conns == 0) {
        std::cerr << "error: --connections must be positive\n";
        return usage();
      }
      cfg.connections = static_cast<std::size_t>(*conns);
    }
    if (const auto rate = string_flag_value(argc - 2, argv + 2, "--rate")) {
      if (!trace::parse_double(*rate, cfg.rate_events_per_sec) ||
          !(cfg.rate_events_per_sec > 0.0)) {
        std::cerr << "error: --rate must be positive, got '" << *rate
                  << "'\n";
        return usage();
      }
    }
    if (const auto format =
            string_flag_value(argc - 2, argv + 2, "--format")) {
      if (*format == "binary") {
        cfg.binary = true;
      } else if (*format != "text") {
        std::cerr << "error: --format must be text or binary\n";
        return usage();
      }
    }
    if (const auto retries =
            int_flag_value(argc - 2, argv + 2, "--retries")) {
      cfg.retries = static_cast<std::size_t>(*retries);
    }
    if (has_flag(argc - 2, argv + 2, "--probe-suspects")) {
      if (cfg.http_port == 0) {
        std::cerr << "error: --probe-suspects requires --http-port\n";
        return usage();
      }
      cfg.probe_suspects = true;
    }
    if (const auto spec =
            string_flag_value(argc - 2, argv + 2, "--inject-net-faults")) {
      try {
        cfg.net_faults = stream::parse_net_fault_spec(*spec);
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: --inject-net-faults: " << e.what() << "\n";
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  const bool route_mode = has_flag(argc - 2, argv + 2, "--route");
  try {
    const trace::Dataset ds =
        trace::read_dataset_csv(dir, dir.filename().string());
    const std::vector<stream::Event> events = stream::flatten_dataset(ds);
    const serve::LoadgenStats stats = serve::run_loadgen(events, cfg);
    std::cout << serve::to_json(stats) << "\n";
    if (route_mode) return 0;  // failure counts are the measurement
    if (stats.failed_connections > 0 || stats.connect_failures > 0) {
      return 1;
    }
    if (cfg.http_port != 0 && (!stats.healthz_ok || !stats.metrics_ok ||
                               stats.summary_json.empty())) {
      return 1;
    }
    if (cfg.probe_suspects && stats.suspect_probes_ok == 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
