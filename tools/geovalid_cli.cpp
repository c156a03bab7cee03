// geovalid — command-line front end.
//
//   geovalid generate <primary|baseline|tiny> <output_dir> [--seed N]
//       Generate a synthetic study and write it as CSV.
//
//   geovalid validate <dataset_dir> [--detect-visits] [--alpha M]
//                     [--beta MIN]
//       Load a CSV dataset, run the full §4-§5 validation pipeline and
//       print the partition, taxonomy and headline analyses.
//
//   geovalid repair <dataset_dir> <output_csv> [--gap MIN]
//       Load a dataset, flag extraneous checkins with the burstiness
//       filter (checkin-only; no GPS needed), infer home/work anchors,
//       and write the repaired event stream as CSV
//       (user,t,lat,lon,kind).
//
//   geovalid import-snap <checkins.txt> <output_dir> [--max-users N]
//       Convert a SNAP-format (Gowalla/Brightkite) checkin dump into a
//       geovalid CSV dataset (checkins only; run `repair` on it next).
//
//   geovalid stream <dataset_dir> [--shards N] [--rate E] [--verify]
//                   [--snapshot-interval S] [--checkpoint-dir D]
//                   [--checkpoint-interval N] [--resume]
//                   [--dead-letter FILE] [--inject-faults SPEC]
//                   [--stop-after N]
//       Replay a CSV dataset through the sharded streaming engine in
//       global timestamp order (visits are re-detected online from the
//       GPS samples), print the live-aggregated partition and throughput,
//       and optionally cross-check against the batch pipeline. With
//       --checkpoint-dir the engine state is checkpointed every
//       --checkpoint-interval events (and on SIGTERM/SIGINT); --resume
//       restarts from the latest valid checkpoint and produces verdicts
//       bit-identical to an uninterrupted run. --dead-letter routes
//       malformed records to a CSV file instead of aborting (see
//       docs/ROBUSTNESS.md); --inject-faults drives the deterministic
//       fault harness (spec grammar in docs/ROBUSTNESS.md).
//
//   geovalid train <dataset_dir> <model_out> [--detect-visits]
//                  [--alpha M] [--beta MIN]
//       Run the batch validation pipeline on a CSV dataset, train the
//       logistic extraneous-checkin detector on the matcher's labels and
//       write the scaler + weights as a versioned, CRC-trailed model
//       artifact (docs/DETECTION.md) for `geovalid serve --model`.
//
//   geovalid serve [--port N] [--http-port N] [--host ADDR] [--shards N]
//                  [--reactors N] [--alpha M] [--beta MIN]
//                  [--max-connections N] [--idle-timeout S]
//                  [--checkpoint-dir D] [--checkpoint-interval N] [--resume]
//                  [--model FILE] [--dead-letter FILE] [--port-file PATH]
//                  [--crash-after N]
//       Run the online validation daemon (docs/SERVICE.md): a TCP ingest
//       port speaking the line-delimited wire protocol feeding the live
//       streaming engine through --reactors event-loop threads (0 = all
//       hardware threads), and an HTTP control plane (/healthz, /metrics,
//       /v1/summary, /v1/users/{id}/verdicts, /admin/checkpoint,
//       /admin/drain) pinned to reactor 0. With --model (a `geovalid
//       train` artifact) every checkin is additionally scored online and
//       the control plane answers /v1/users/{id}/score and
//       /v1/suspects?k=N (docs/DETECTION.md); a corrupt or mismatched
//       artifact exits 4. --port 0 (the default) binds an ephemeral port and
//       prints the one the kernel picked; --port-file additionally writes
//       both bound ports to PATH for scripts. SIGTERM/SIGINT drain the
//       engine, write a final checkpoint (with --checkpoint-dir) and exit
//       5; --resume restores the newest checkpoint so a kill + restart
//       serves verdicts identical to an uninterrupted run.
//
//   geovalid route --backend [NAME=]HOST:INGEST:HTTP [--backend ...]
//                  [--port N] [--http-port N] [--host ADDR] [--vnodes N]
//                  [--max-connections N] [--idle-timeout S]
//                  [--backend-buffer BYTES] [--spool-bytes BYTES]
//                  [--probe-interval S] [--probe-timeout S]
//                  [--probe-down-after N] [--reconnect-backoff-ms MS]
//                  [--reconnect-backoff-cap-ms MS] [--fanout-deadline-s S]
//                  [--inject-net-faults SPEC] [--dead-letter FILE]
//                  [--port-file PATH]
//       Front N independent serve daemons as one cluster
//       (docs/CLUSTER.md): ingest records are sharded by user id on a
//       consistent-hash ring and forwarded verbatim; the HTTP control
//       plane aggregates /metrics and /v1/summary, proxies per-user
//       verdict lookups, fans out /admin/checkpoint and /admin/drain
//       with all-or-error semantics, and exposes the rebalance hook
//       POST /admin/backends/{name}. The router self-heals
//       (docs/ROBUSTNESS.md): backends are health-probed, lost
//       connections reconnect with jittered backoff, and records for a
//       down backend spool (bounded by --spool-bytes, overflowing to
//       backpressure) until recovery decides between drain and client
//       re-send. --inject-net-faults takes the deterministic net fault
//       grammar (netdrop/netstall/netreset, stream/faults.h) for chaos
//       drills. A drained cluster exits 0; SIGTERM/SIGINT flush and
//       exit 5 leaving the backends running.
//
// Exit codes (docs/ROBUSTNESS.md):
//   0  success
//   1  runtime failure (incl. --verify mismatch, simulated fault kill)
//   2  usage error
//   3  dataset ingest failure (trace::IngestError)
//   4  checkpoint unusable (corrupt / version or config mismatch)
//   5  clean shutdown on SIGTERM/SIGINT or --stop-after (state saved)
//
// Every subcommand accepts --metrics-json <path>: on exit (success or
// failure) the process-wide observability registry is dumped as JSON.
// docs/OBSERVABILITY.md is the reference for every metric in the dump.
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_set>

#include "cluster/router.h"
#include "core/parallel.h"
#include "detect/detector.h"
#include "score/model.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "match/filters.h"
#include "match/incentives.h"
#include "match/missing.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "recover/upsample.h"
#include "serve/server.h"
#include "stream/checkpoint.h"
#include "stream/faults.h"
#include "stream/quarantine.h"
#include "stream/replay.h"
#include "trace/csv.h"
#include "trace/fields.h"
#include "trace/gowalla.h"

namespace {

using namespace geovalid;

/// Exit codes of the contract above, in one place.
enum ExitCode : int {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
  kExitIngest = 3,
  kExitCheckpoint = 4,
  kExitInterrupted = 5,
};

volatile std::sig_atomic_t g_stop = 0;
// The serve event loop polls an std::atomic<bool> (lock-free bool stores
// are async-signal-safe); the replay path keeps the sig_atomic_t.
std::atomic<bool> g_stop_flag{false};

extern "C" void handle_stop_signal(int) {
  g_stop = 1;
  g_stop_flag.store(true, std::memory_order_relaxed);
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  geovalid generate <primary|baseline|tiny> <output_dir> [--seed N]\n"
      "  geovalid validate <dataset_dir> [--detect-visits] [--alpha M] "
      "[--beta MIN]\n"
      "      (alias: run)\n"
      "  geovalid repair <dataset_dir> <output_csv> [--gap MIN]\n"
      "  geovalid import-snap <checkins.txt> <output_dir> [--max-users N]\n"
      "  geovalid stream <dataset_dir> [--shards N] [--rate EVENTS/S] "
      "[--verify]\n"
      "                  [--snapshot-interval SECONDS] [--checkpoint-dir D]\n"
      "                  [--checkpoint-interval EVENTS] [--resume]\n"
      "                  [--dead-letter FILE] [--inject-faults SPEC]\n"
      "                  [--stop-after EVENTS]\n"
      "  geovalid train <dataset_dir> <model_out> [--detect-visits]\n"
      "                 [--alpha M] [--beta MIN]\n"
      "  geovalid serve [--port N] [--http-port N] [--host ADDR] "
      "[--shards N]\n"
      "                 [--reactors N] [--alpha M] [--beta MIN]\n"
      "                 [--max-connections N] [--idle-timeout SECONDS]\n"
      "                 [--checkpoint-dir D] "
      "[--checkpoint-interval RECORDS]\n"
      "                 [--resume] [--model FILE] [--dead-letter FILE]\n"
      "                 [--port-file PATH] [--crash-after RECORDS]\n"
      "  geovalid route --backend [NAME=]HOST:INGEST:HTTP "
      "[--backend ...]\n"
      "                 [--port N] [--http-port N] [--host ADDR]\n"
      "                 [--vnodes N] [--max-connections N]\n"
      "                 [--idle-timeout SECONDS] [--backend-buffer BYTES]\n"
      "                 [--spool-bytes BYTES] [--probe-interval SECONDS]\n"
      "                 [--probe-timeout SECONDS] [--probe-down-after N]\n"
      "                 [--reconnect-backoff-ms MS] "
      "[--reconnect-backoff-cap-ms MS]\n"
      "                 [--fanout-deadline-s SECONDS] "
      "[--inject-net-faults SPEC]\n"
      "                 [--dead-letter FILE] [--port-file PATH]\n"
      "\n"
      "common flags:\n"
      "  --metrics-json FILE   dump the metrics registry as JSON on exit\n"
      "                        (see docs/OBSERVABILITY.md)\n"
      "  --threads N           fan per-user pipeline stages out over N\n"
      "                        threads (0 = all hardware threads, max 1024;\n"
      "                        output is identical at any thread count)\n"
      "\n"
      "--rate and --snapshot-interval must be positive; --rate omitted\n"
      "replays unthrottled. Fault-tolerance flags, the fault-spec grammar\n"
      "and the exit-code contract (0 ok, 1 runtime, 2 usage, 3 ingest,\n"
      "4 checkpoint, 5 clean shutdown on signal) are documented in\n"
      "docs/ROBUSTNESS.md.\n";
  return kExitUsage;
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

/// A bad flag value: main prints the message plus the usage text and
/// exits 2 (distinct from runtime failures, which exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void bad_flag(const char* name, const char* must,
                           const std::string& raw) {
  throw UsageError(std::string(name) + " must be " + must + ", got '" + raw +
                   "'");
}

// Number flags: absent is nullopt, and a present value must parse whole by
// trace/fields.h's grammar (no junk that reads as 0, no leading '+' or
// '-' on an unsigned) or it is a usage error naming the flag and value.

std::optional<double> flag_value(int argc, char** argv, const char* name) {
  const auto raw = string_flag_value(argc, argv, name);
  double v = 0.0;
  if (raw && !trace::parse_double(*raw, v)) bad_flag(name, "a number", *raw);
  return raw ? std::optional(v) : std::nullopt;
}

/// Integer flags (--seed, --max-users, --shards) never pass through a
/// double, which loses precision above 2^53 and would corrupt large 64-bit
/// seeds.
std::optional<std::uint64_t> int_flag_value(int argc, char** argv,
                                            const char* name) {
  const auto raw = string_flag_value(argc, argv, name);
  std::uint64_t v = 0;
  if (raw && !trace::parse_int(*raw, v)) {
    bad_flag(name, "a non-negative integer", *raw);
  }
  return raw ? std::optional(v) : std::nullopt;
}

/// Flags like --rate and --snapshot-interval: present means a positive
/// number, anything else is a usage error instead of a silently
/// unthrottled or spinning replay.
std::optional<double> positive_flag_value(int argc, char** argv,
                                          const char* name) {
  const auto raw = string_flag_value(argc, argv, name);
  double v = 0.0;
  if (raw && !(trace::parse_double(*raw, v) && v > 0.0)) {
    bad_flag(name, "positive", *raw);
  }
  return raw ? std::optional(v) : std::nullopt;
}

/// --threads and --reactors N (0 = all hardware threads; absent = 1).
/// Every subcommand accepts and validates --threads, even the ones with no
/// parallel stage. Values past core::kMaxThreads are a usage error too:
/// std::thread would fail with std::system_error long before a million
/// threads spawn, and that must not escape as an uncaught exception.
std::size_t count_flag(int argc, char** argv, const char* name) {
  const auto v = int_flag_value(argc, argv, name);
  if (v && *v > core::kMaxThreads) {
    bad_flag(name, ("at most " + std::to_string(core::kMaxThreads)).c_str(),
             std::to_string(*v));
  }
  return v ? static_cast<std::size_t>(*v) : 1;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 2) return usage();
  (void)count_flag(argc, argv, "--threads");  // no parallel stage
  const std::string preset = argv[0];
  const std::filesystem::path dir = argv[1];

  synth::StudyConfig config;
  if (preset == "primary") config = synth::primary_preset();
  else if (preset == "baseline") config = synth::baseline_preset();
  else if (preset == "tiny") config = synth::tiny_preset();
  else {
    std::cerr << "unknown preset: " << preset << "\n";
    return 2;
  }
  if (const auto seed = int_flag_value(argc, argv, "--seed")) {
    config.seed = *seed;
  }

  std::cout << "generating '" << config.name << "' (" << config.user_count
            << " users, seed " << config.seed << ")...\n";
  const synth::GeneratedStudy study = synth::generate_study(config);
  trace::write_dataset_csv(study.dataset, dir);

  const auto stats = trace::compute_stats(study.dataset);
  std::cout << "wrote " << dir << ": " << stats.users << " users, "
            << stats.checkins << " checkins, " << stats.visits
            << " visits, " << stats.gps_points << " GPS points\n";
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::size_t threads = count_flag(argc, argv, "--threads");
  const std::filesystem::path dir = argv[0];

  match::MatchConfig cfg;
  if (const auto alpha = flag_value(argc, argv, "--alpha")) cfg.alpha_m = *alpha;
  if (const auto beta = flag_value(argc, argv, "--beta")) {
    cfg.beta = static_cast<trace::TimeSec>(*beta * 60.0);
  }

  std::cout << "loading " << dir << "...\n";
  const core::StudyAnalysis analysis = core::analyze_csv(
      dir, dir.filename().string(), has_flag(argc, argv, "--detect-visits"),
      cfg, {}, threads);

  std::cout << "\n=== dataset ===\n";
  std::cout << std::left << std::setw(10) << " " << std::right << std::setw(8)
            << "users" << std::setw(12) << "avg days" << std::setw(12)
            << "checkins" << std::setw(12) << "visits" << std::setw(14)
            << "GPS points" << "\n";
  core::print_dataset_stats(std::cout, analysis.dataset.name(),
                            trace::compute_stats(analysis.dataset));

  std::cout << "\n=== matching (alpha=" << cfg.alpha_m
            << " m, beta=" << cfg.beta / 60 << " min) ===\n";
  core::print_partition(std::cout, analysis.partition());

  std::cout << "\n=== incentive correlations ===\n";
  core::print_incentive_table(
      std::cout,
      match::incentive_correlations(analysis.dataset, analysis.validation));

  const auto categories =
      match::missing_by_category(analysis.dataset, analysis.validation);
  std::cout << "\n=== missing checkins by category ===\n"
            << std::fixed << std::setprecision(1);
  for (std::size_t c = 0; c < categories.size(); ++c) {
    std::cout << "  " << std::left << std::setw(14)
              << trace::to_string(static_cast<trace::PoiCategory>(c))
              << std::right << std::setw(7) << categories[c] << "%\n";
  }
  return 0;
}

int cmd_repair(int argc, char** argv) {
  if (argc < 2) return usage();
  (void)count_flag(argc, argv, "--threads");  // no parallel stage
  const std::filesystem::path dir = argv[0];
  const std::filesystem::path out_path = argv[1];

  match::BurstinessFilterConfig filter;
  if (const auto gap = flag_value(argc, argv, "--gap")) {
    filter.gap_threshold = static_cast<trace::TimeSec>(*gap * 60.0);
  }

  std::cout << "loading " << dir << "...\n";
  const trace::Dataset ds =
      trace::read_dataset_csv(dir, dir.filename().string());
  const auto flags = match::burstiness_flags(ds, filter);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "user,t,lat,lon,kind\n";
  out.precision(10);

  std::size_t kept = 0, inferred = 0, flagged = 0;
  const auto users = ds.users();
  for (std::size_t u = 0; u < users.size(); ++u) {
    const auto events = users[u].checkins.events();
    std::vector<bool> extraneous(flags[u].begin(), flags[u].end());
    for (bool f : extraneous) {
      if (f) ++flagged;
    }
    const recover::RecoveredTrace repaired =
        recover::recover_trace(events, extraneous);
    kept += repaired.observed;
    inferred += repaired.inferred;
    for (const recover::RecoveredEvent& e : repaired.events) {
      const char* kind =
          e.kind == recover::RecoveredKind::kObserved
              ? "observed"
              : (e.kind == recover::RecoveredKind::kHomeInferred
                     ? "home"
                     : "work");
      out << users[u].id << ',' << e.t << ',' << e.position.lat_deg << ','
          << e.position.lon_deg << ',' << kind << '\n';
    }
  }
  std::cout << "repaired trace written to " << out_path << ": " << flagged
            << " checkins dropped, " << kept << " kept, " << inferred
            << " routine events inferred\n";
  return 0;
}

int cmd_import_snap(int argc, char** argv) {
  if (argc < 2) return usage();
  (void)count_flag(argc, argv, "--threads");  // no parallel stage
  const std::filesystem::path file = argv[0];
  const std::filesystem::path dir = argv[1];

  trace::GowallaImportOptions opts;
  if (const auto cap = int_flag_value(argc, argv, "--max-users")) {
    opts.max_users = static_cast<std::size_t>(*cap);
  }
  std::cout << "importing " << file << "...\n";
  const trace::Dataset ds =
      trace::read_gowalla_checkins(file, file.stem().string(), opts);
  trace::write_dataset_csv(ds, dir);
  const auto stats = trace::compute_stats(ds);
  std::cout << "wrote " << dir << ": " << stats.users << " users, "
            << stats.checkins << " checkins (no GPS in this format)\n";
  return 0;
}

int cmd_stream(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::size_t threads = count_flag(argc, argv, "--threads");
  const std::filesystem::path dir = argv[0];

  stream::StreamEngineConfig engine_cfg;
  if (const auto shards = int_flag_value(argc, argv, "--shards")) {
    engine_cfg.shards = static_cast<std::size_t>(*shards);
  }
  if (const auto alpha = flag_value(argc, argv, "--alpha")) {
    engine_cfg.match.alpha_m = *alpha;
  }
  if (const auto beta = flag_value(argc, argv, "--beta")) {
    engine_cfg.match.beta = static_cast<trace::TimeSec>(*beta * 60.0);
  }
  stream::ReplayConfig replay_cfg;
  if (const auto rate = positive_flag_value(argc, argv, "--rate")) {
    replay_cfg.rate_events_per_sec = *rate;
  }
  if (const auto interval =
          positive_flag_value(argc, argv, "--snapshot-interval")) {
    replay_cfg.snapshot_interval_seconds = *interval;
    replay_cfg.on_snapshot = [] {
      std::cout << "--- metrics snapshot ---\n";
      obs::write_prometheus(obs::registry(), std::cout);
      std::cout << "--- end snapshot ---\n";
    };
  }

  // Fault-tolerance flags (docs/ROBUSTNESS.md).
  const auto checkpoint_dir = string_flag_value(argc, argv, "--checkpoint-dir");
  const bool resume = has_flag(argc, argv, "--resume");
  if (resume && !checkpoint_dir) {
    throw UsageError("--resume requires --checkpoint-dir");
  }
  std::uint64_t checkpoint_interval = 100000;
  if (const auto v = int_flag_value(argc, argv, "--checkpoint-interval")) {
    if (*v == 0) throw UsageError("--checkpoint-interval must be positive");
    checkpoint_interval = *v;
  }
  if (const auto v = int_flag_value(argc, argv, "--stop-after")) {
    if (*v == 0) throw UsageError("--stop-after must be positive");
    replay_cfg.stop_after = *v;
  }
  const auto dead_letter = string_flag_value(argc, argv, "--dead-letter");
  std::optional<stream::FaultInjector> injector;
  if (const auto spec = string_flag_value(argc, argv, "--inject-faults")) {
    if (has_flag(argc, argv, "--verify")) {
      // Corrupted records are quarantined, so the streamed partition
      // deliberately diverges from a batch run over the corrupted files.
      throw UsageError("--verify cannot be combined with --inject-faults");
    }
    try {
      injector.emplace(stream::parse_fault_spec(*spec));
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }

  std::cout << "loading " << dir << "...\n";
  const trace::Dataset ds =
      trace::read_dataset_csv(dir, dir.filename().string());

  // Quarantine is on whenever the run can see malformed records: an
  // explicit dead-letter file, or injected corruption.
  std::optional<stream::Quarantine> quarantine;
  std::unordered_set<trace::UserId> enrolled;
  if (dead_letter || injector) {
    stream::QuarantineConfig qc;
    if (dead_letter) qc.dead_letter_path = *dead_letter;
    quarantine.emplace(qc);
    engine_cfg.quarantine = &*quarantine;
  }

  std::vector<stream::Event> events = stream::flatten_dataset(ds);
  std::size_t injected = 0;
  if (injector) {
    for (const trace::UserRecord& u : ds.users()) enrolled.insert(u.id);
    engine_cfg.known_users = &enrolled;
    engine_cfg.faults = &*injector;
    replay_cfg.kill_at = injector->plan().kill_at;
    injected = injector->corrupt_stream(events).size();
    std::cout << "fault injection: corrupted " << injected << " of "
              << events.size() << " events (seed "
              << injector->plan().seed << ")\n";
  }

  // Resume before the engine sees any event: restore the newest valid
  // checkpoint, then skip the event prefix it covers.
  std::optional<stream::Checkpoint> restored;
  if (resume) restored = stream::restore_latest(*checkpoint_dir);

  stream::StreamEngine engine(engine_cfg);
  if (restored) {
    engine.load_state(restored->payload);
    replay_cfg.resume_cursor = restored->cursor;
    std::cout << "resumed from checkpoint at cursor " << restored->cursor
              << "\n";
  }
  if (checkpoint_dir) {
    replay_cfg.checkpoint_interval_events = checkpoint_interval;
    replay_cfg.on_checkpoint =
        [&engine, ckdir = std::filesystem::path(*checkpoint_dir)](
            std::uint64_t cursor) {
          stream::write_checkpoint(ckdir, {cursor, engine.save_state()});
        };
  }
  // SIGTERM/SIGINT turn into a graceful stop: drain, checkpoint, exit 5.
  replay_cfg.stop = &g_stop;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  // Report the engine's actual shard count (it clamps 0 to 1).
  std::cout << "streaming " << ds.user_count() << " users onto "
            << engine.shard_count() << " shard(s)...\n";
  const stream::ReplayStats stats =
      stream::replay_events(events, engine, replay_cfg);

  std::cout << "\n=== replay ===\n"
            << "  events       " << stats.events << " (" << stats.gps_samples
            << " gps, " << stats.checkins << " checkins)\n"
            << std::fixed << std::setprecision(3)
            << "  feed         " << stats.feed_seconds << " s\n"
            << "  drain        " << stats.drain_seconds << " s\n"
            << std::setprecision(0)
            << "  throughput   " << stats.events_per_sec << " events/s\n"
            << "  cursor       " << stats.cursor << "\n";

  if (quarantine) {
    std::cout << "\n=== quarantine ===\n";
    for (std::size_t i = 0; i < stream::kQuarantineReasonCount; ++i) {
      const auto reason = static_cast<stream::QuarantineReason>(i);
      std::cout << "  " << std::left << std::setw(20)
                << stream::to_string(reason) << std::right << std::setw(10)
                << quarantine->count(reason) << "\n";
    }
    std::cout << "  " << std::left << std::setw(20) << "total" << std::right
              << std::setw(10) << quarantine->total() << "\n";
  }

  std::cout << "\n=== streaming partition (alpha=" << engine_cfg.match.alpha_m
            << " m, beta=" << engine_cfg.match.beta / 60 << " min) ===\n";
  const match::Partition streamed = engine.partition();
  core::print_partition(std::cout, streamed);

  if (stats.killed) {
    std::cout << "\nsimulated crash before offset " << stats.cursor
              << " (no checkpoint written; resume from the last periodic "
                 "one)\n";
    return kExitRuntime;
  }
  if (stats.interrupted) {
    std::cout << "\ninterrupted at cursor " << stats.cursor
              << (checkpoint_dir ? "; checkpoint written — rerun with "
                                   "--resume to continue\n"
                                 : "; no --checkpoint-dir, progress lost\n");
    return kExitInterrupted;
  }

  if (has_flag(argc, argv, "--verify")) {
    std::cout << "\nverifying against the batch pipeline...\n";
    trace::Dataset batch_ds =
        trace::read_dataset_csv(dir, dir.filename().string());
    const trace::VisitDetector detector(engine_cfg.detector);
    for (trace::UserRecord& u : batch_ds.mutable_users()) {
      u.visits = detector.detect(u.gps);
    }
    const match::ValidationResult batch = match::validate_dataset(
        batch_ds, engine_cfg.match, engine_cfg.classifier, threads);
    const match::Partition& b = batch.totals;
    const bool equal = b.honest == streamed.honest &&
                       b.extraneous == streamed.extraneous &&
                       b.missing == streamed.missing &&
                       b.checkins == streamed.checkins &&
                       b.visits == streamed.visits &&
                       b.by_class == streamed.by_class;
    if (!equal) {
      std::cout << "MISMATCH — batch partition:\n";
      core::print_partition(std::cout, b);
      return kExitRuntime;
    }
    std::cout << "batch partition matches exactly.\n";
  }
  return kExitOk;
}

int cmd_train(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::size_t threads = count_flag(argc, argv, "--threads");
  const std::filesystem::path dir = argv[0];
  const std::filesystem::path out_path = argv[1];

  match::MatchConfig cfg;
  if (const auto alpha = flag_value(argc, argv, "--alpha")) cfg.alpha_m = *alpha;
  if (const auto beta = flag_value(argc, argv, "--beta")) {
    cfg.beta = static_cast<trace::TimeSec>(*beta * 60.0);
  }

  std::cout << "loading " << dir << "...\n";
  const core::StudyAnalysis analysis = core::analyze_csv(
      dir, dir.filename().string(), has_flag(argc, argv, "--detect-visits"),
      cfg, {}, threads);

  std::cout << "training detector on " << analysis.dataset.users().size()
            << " users...\n";
  const detect::TrainedDetector detector =
      detect::train_detector(analysis.dataset, analysis.validation);
  const score::ScoreModel model = score::ScoreModel::from_detector(detector);
  score::save_model(out_path, model);

  std::cout << "wrote " << out_path << ": " << detect::kFeatureCount
            << " features, fingerprint " << std::hex << model.fingerprint()
            << std::dec << " (" << detector.train_users.size() << " train / "
            << detector.test_users.size() << " test users)\n"
            << "serve it with: geovalid serve --model " << out_path.string()
            << "\n";
  return kExitOk;
}

int cmd_serve(int argc, char** argv) {
  // Accepted everywhere; shards and reactors control serve parallelism.
  (void)count_flag(argc, argv, "--threads");

  serve::ServeConfig cfg;
  cfg.reactors = count_flag(argc, argv, "--reactors");
  if (const auto host = string_flag_value(argc, argv, "--host")) {
    cfg.host = *host;
  }
  if (const auto port = int_flag_value(argc, argv, "--port")) {
    if (*port > 65535) throw UsageError("--port must be at most 65535");
    cfg.ingest_port = static_cast<std::uint16_t>(*port);
  }
  if (const auto port = int_flag_value(argc, argv, "--http-port")) {
    if (*port > 65535) throw UsageError("--http-port must be at most 65535");
    cfg.http_port = static_cast<std::uint16_t>(*port);
  }
  if (const auto cap = int_flag_value(argc, argv, "--max-connections")) {
    if (*cap == 0) throw UsageError("--max-connections must be positive");
    cfg.max_connections = static_cast<std::size_t>(*cap);
  }
  if (const auto idle = flag_value(argc, argv, "--idle-timeout")) {
    cfg.idle_timeout_s = *idle;  // <= 0 disables the sweep
  }
  if (const auto shards = int_flag_value(argc, argv, "--shards")) {
    cfg.engine.shards = static_cast<std::size_t>(*shards);
  }
  if (const auto alpha = flag_value(argc, argv, "--alpha")) {
    cfg.engine.match.alpha_m = *alpha;
  }
  if (const auto beta = flag_value(argc, argv, "--beta")) {
    cfg.engine.match.beta = static_cast<trace::TimeSec>(*beta * 60.0);
  }
  const auto checkpoint_dir = string_flag_value(argc, argv, "--checkpoint-dir");
  cfg.resume = has_flag(argc, argv, "--resume");
  if (cfg.resume && !checkpoint_dir) {
    throw UsageError("--resume requires --checkpoint-dir");
  }
  if (checkpoint_dir) cfg.checkpoint_dir = *checkpoint_dir;
  if (const auto v = int_flag_value(argc, argv, "--checkpoint-interval")) {
    if (*v == 0) throw UsageError("--checkpoint-interval must be positive");
    cfg.checkpoint_interval_records = *v;
  }
  if (const auto dead_letter = string_flag_value(argc, argv, "--dead-letter")) {
    cfg.quarantine.dead_letter_path = *dead_letter;
  }
  if (const auto model = string_flag_value(argc, argv, "--model")) {
    cfg.model_path = *model;
  }
  if (const auto v = int_flag_value(argc, argv, "--crash-after")) {
    cfg.crash_after_records = *v;
  }

  serve::Server server(std::move(cfg));
  server.start();
  if (server.restored_cursor() != 0) {
    std::cout << "resumed from checkpoint at cursor "
              << server.restored_cursor() << "\n";
  }
  std::cout << "serving: ingest port " << server.ingest_port()
            << ", http port " << server.http_port() << ", reactors "
            << server.reactor_count() << "\n";
  std::cout.flush();
  if (const auto port_file = string_flag_value(argc, argv, "--port-file")) {
    // Written after both binds succeed: a script that polls for this file
    // knows the daemon is accepting connections once it appears.
    std::ofstream out(*port_file);
    if (!out) {
      std::cerr << "cannot open " << *port_file << " for writing\n";
      return kExitRuntime;
    }
    out << "ingest=" << server.ingest_port() << "\n"
        << "http=" << server.http_port() << "\n";
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  const serve::ServeStats stats = server.run(&g_stop_flag);

  std::cout << "\n=== serve ===\n"
            << "  connections  " << stats.connections << "\n"
            << "  parsed       " << stats.records_parsed << "\n"
            << "  applied      " << stats.records_applied << "\n"
            << "  replayed     " << stats.records_replayed << "\n"
            << "  malformed    " << stats.records_malformed << "\n"
            << "  http reqs    " << stats.http_requests << "\n"
            << "  cursor       " << stats.cursor << "\n";

  std::cout << "\n=== quarantine ===\n";
  for (std::size_t i = 0; i < stream::kQuarantineReasonCount; ++i) {
    const auto reason = static_cast<stream::QuarantineReason>(i);
    std::cout << "  " << std::left << std::setw(20)
              << stream::to_string(reason) << std::right << std::setw(10)
              << server.quarantine().count(reason) << "\n";
  }

  std::cout << "\n=== streaming partition ===\n";
  core::print_partition(std::cout, server.engine().partition());

  switch (stats.exit) {
    case serve::ServeExit::kCrashed:
      std::cout << "\nsimulated crash at " << stats.records_parsed
                << " records (no final checkpoint; resume from the last "
                   "periodic one)\n";
      return kExitRuntime;
    case serve::ServeExit::kStopped:
      std::cout << "\nstopped on signal at cursor " << stats.cursor
                << (checkpoint_dir ? "; checkpoint written — restart with "
                                     "--resume to continue\n"
                                   : "; no --checkpoint-dir, state lost\n");
      return kExitInterrupted;
    case serve::ServeExit::kDrained:
      std::cout << "\ndrained cleanly at cursor " << stats.cursor << "\n";
      return kExitOk;
  }
  return kExitRuntime;
}

/// --backend [NAME=]HOST:INGEST_PORT:HTTP_PORT (host may be omitted:
/// [NAME=]INGEST_PORT:HTTP_PORT binds the default host). NAME is the
/// stable ring identity; it defaults to HOST:INGEST_PORT, which is fine
/// until the first rebalance — a replacement process at a new address
/// keeps the old name, so give backends explicit names in any cluster
/// you intend to rebalance (docs/CLUSTER.md).
cluster::BackendAddr parse_backend_spec(std::string spec,
                                        const std::string& default_host) {
  cluster::BackendAddr addr;
  addr.host = default_host;
  const std::size_t eq = spec.find('=');
  if (eq != std::string::npos) {
    addr.name = spec.substr(0, eq);
    if (addr.name.empty()) {
      throw UsageError("--backend: empty name in '" + spec + "'");
    }
    spec = spec.substr(eq + 1);
  }
  trace::Fields parts;
  const std::size_t n = trace::split_fields(spec, ':', parts);
  const auto parse_port = [&](std::string_view text) -> std::uint16_t {
    std::uint16_t port = 0;
    if (!trace::parse_int(text, port) || port == 0) {
      throw UsageError("--backend: bad port '" + std::string(text) +
                       "' in spec");
    }
    return port;
  };
  if (n == 2) {
    addr.ingest_port = parse_port(parts[0]);
    addr.http_port = parse_port(parts[1]);
  } else if (n == 3) {
    if (parts[0].empty()) {
      throw UsageError("--backend: empty host in spec");
    }
    addr.host = parts[0];
    addr.ingest_port = parse_port(parts[1]);
    addr.http_port = parse_port(parts[2]);
  } else {
    throw UsageError(
        "--backend expects [NAME=]HOST:INGEST_PORT:HTTP_PORT, got '" +
        spec + "'");
  }
  return addr;
}

int cmd_route(int argc, char** argv) {
  (void)count_flag(argc, argv, "--threads");  // single-threaded

  cluster::RouteConfig cfg;
  if (const auto host = string_flag_value(argc, argv, "--host")) {
    cfg.host = *host;
  }
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") == 0) {
      cfg.backends.push_back(parse_backend_spec(argv[i + 1], cfg.host));
    }
  }
  if (cfg.backends.empty()) {
    throw UsageError("route requires at least one --backend");
  }
  if (const auto port = int_flag_value(argc, argv, "--port")) {
    if (*port > 65535) throw UsageError("--port must be at most 65535");
    cfg.ingest_port = static_cast<std::uint16_t>(*port);
  }
  if (const auto port = int_flag_value(argc, argv, "--http-port")) {
    if (*port > 65535) throw UsageError("--http-port must be at most 65535");
    cfg.http_port = static_cast<std::uint16_t>(*port);
  }
  if (const auto vnodes = int_flag_value(argc, argv, "--vnodes")) {
    if (*vnodes == 0) throw UsageError("--vnodes must be positive");
    cfg.vnodes = static_cast<std::size_t>(*vnodes);
  }
  if (const auto cap = int_flag_value(argc, argv, "--max-connections")) {
    if (*cap == 0) throw UsageError("--max-connections must be positive");
    cfg.max_connections = static_cast<std::size_t>(*cap);
  }
  if (const auto idle = flag_value(argc, argv, "--idle-timeout")) {
    cfg.idle_timeout_s = *idle;
  }
  if (const auto buf = int_flag_value(argc, argv, "--backend-buffer")) {
    if (*buf == 0) throw UsageError("--backend-buffer must be positive");
    cfg.backend_buffer_bytes = static_cast<std::size_t>(*buf);
  }
  if (const auto spool = int_flag_value(argc, argv, "--spool-bytes")) {
    if (*spool == 0) throw UsageError("--spool-bytes must be positive");
    cfg.spool_bytes = static_cast<std::size_t>(*spool);
  }
  if (const auto s = positive_flag_value(argc, argv, "--probe-interval")) {
    cfg.probe_interval_s = *s;
  }
  if (const auto s = positive_flag_value(argc, argv, "--probe-timeout")) {
    cfg.probe_timeout_s = *s;
  }
  if (const auto n = int_flag_value(argc, argv, "--probe-down-after")) {
    if (*n == 0) throw UsageError("--probe-down-after must be positive");
    cfg.probe_down_after = static_cast<std::size_t>(*n);
  }
  if (const auto ms = int_flag_value(argc, argv, "--reconnect-backoff-ms")) {
    if (*ms == 0) {
      throw UsageError("--reconnect-backoff-ms must be positive");
    }
    cfg.reconnect_backoff_ms = static_cast<std::uint32_t>(*ms);
  }
  if (const auto ms =
          int_flag_value(argc, argv, "--reconnect-backoff-cap-ms")) {
    if (*ms == 0) {
      throw UsageError("--reconnect-backoff-cap-ms must be positive");
    }
    cfg.reconnect_backoff_cap_ms = static_cast<std::uint32_t>(*ms);
  }
  if (const auto s = positive_flag_value(argc, argv, "--fanout-deadline-s")) {
    cfg.fanout_deadline_s = *s;
  }
  if (const auto spec =
          string_flag_value(argc, argv, "--inject-net-faults")) {
    try {
      cfg.net_faults = stream::parse_net_fault_spec(*spec);
    } catch (const std::invalid_argument& e) {
      throw UsageError(std::string("--inject-net-faults: ") + e.what());
    }
  }
  if (const auto dead_letter =
          string_flag_value(argc, argv, "--dead-letter")) {
    cfg.quarantine.dead_letter_path = *dead_letter;
  }

  cluster::Router router(std::move(cfg));
  router.start();
  std::cout << "routing: ingest port " << router.ingest_port()
            << ", http port " << router.http_port() << ", "
            << router.ring().size() << " backends\n";
  std::cout.flush();
  if (const auto port_file = string_flag_value(argc, argv, "--port-file")) {
    std::ofstream out(*port_file);
    if (!out) {
      std::cerr << "cannot open " << *port_file << " for writing\n";
      return kExitRuntime;
    }
    out << "ingest=" << router.ingest_port() << "\n"
        << "http=" << router.http_port() << "\n";
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  const cluster::RouteStats stats = router.run(&g_stop_flag);

  std::cout << "\n=== route ===\n"
            << "  connections  " << stats.connections << "\n"
            << "  forwarded    " << stats.records_forwarded << "\n"
            << "  replayed     " << stats.records_replayed << "\n"
            << "  malformed    " << stats.records_malformed << "\n"
            << "  dropped      " << stats.records_dropped << "\n"
            << "  superseded   " << stats.records_superseded << "\n"
            << "  http reqs    " << stats.http_requests << "\n";

  if (stats.exit == cluster::RouteExit::kStopped) {
    std::cout << "\nstopped on signal; backends left running\n";
    return kExitInterrupted;
  }
  std::cout << "\ncluster drained cleanly\n";
  return kExitOk;
}

/// Dumps the metrics registry if --metrics-json was given. Runs on every
/// exit path — error runs are precisely when the ingest-error counters
/// matter.
void maybe_dump_metrics(int argc, char** argv) {
  const auto path = string_flag_value(argc, argv, "--metrics-json");
  if (!path) return;
  try {
    obs::write_json_file(obs::registry(), *path);
    std::cout << "metrics snapshot written to " << *path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
  }
}

int dispatch(const std::string& cmd, int argc, char** argv) {
  if (cmd == "generate") return cmd_generate(argc, argv);
  if (cmd == "validate" || cmd == "run") return cmd_validate(argc, argv);
  if (cmd == "repair") return cmd_repair(argc, argv);
  if (cmd == "import-snap") return cmd_import_snap(argc, argv);
  if (cmd == "stream") return cmd_stream(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "route") return cmd_route(argc, argv);
  if (cmd == "train") return cmd_train(argc, argv);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  int rc = 0;
  try {
    rc = dispatch(cmd, argc - 2, argv + 2);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    maybe_dump_metrics(argc - 2, argv + 2);
    return usage();
  } catch (const trace::IngestError& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = kExitIngest;
  } catch (const stream::CheckpointError& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = kExitCheckpoint;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = kExitRuntime;
  }
  maybe_dump_metrics(argc - 2, argv + 2);
  return rc;
}
