// Microbenchmarks of the hot paths (google-benchmark), plus the wire
// format report: after the registered benchmarks run, main() measures
// columnar binary frame decode against text-grammar parse in rows/s and
// prints both rates and their ratio, plus the binary encoder's rate. Both
// sides are single-threaded on the same core, so the ratio is core-count
// independent — it measures the codecs, not the machine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "geo/geodesic.h"
#include "manet/simulator.h"
#include "match/matcher.h"
#include "serve/wire.h"
#include "stats/ecdf.h"
#include "stats/rng.h"
#include "stream/replay.h"
#include "stream/snapshot_io.h"
#include "synth/study_generator.h"
#include "trace/poi_grid.h"
#include "trace/visit_detector.h"

namespace {

using namespace geovalid;

const core::StudyAnalysis& tiny() {
  static const core::StudyAnalysis a =
      core::analyze_generated(synth::tiny_preset());
  return a;
}

void BM_HaversineDistance(benchmark::State& state) {
  const geo::LatLon a{34.42, -119.70};
  const geo::LatLon b{34.43, -119.68};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::distance_m(a, b));
  }
}
BENCHMARK(BM_HaversineDistance);

void BM_FastDistance(benchmark::State& state) {
  const geo::LatLon a{34.42, -119.70};
  const geo::LatLon b{34.43, -119.68};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::fast_distance_m(a, b));
  }
}
BENCHMARK(BM_FastDistance);

// The visit detectors' stay test on BM_FastDistance's pair, at a radius
// per path: 100 m is decided "beyond" by the latitude bound, 5000 m
// "within" by the cos = 1 bound, and 2000 m falls between the two and
// pays for fast_distance_m.
void BM_FastDistanceWithin(benchmark::State& state) {
  const geo::LatLon a{34.42, -119.70};
  const geo::LatLon b{34.43, -119.68};
  const auto r = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::fast_distance_within(a, b, r));
  }
}
BENCHMARK(BM_FastDistanceWithin)->Arg(100)->Arg(2000)->Arg(5000);

void BM_BoundDistance(benchmark::State& state) {
  const geo::LatLon a{34.42, -119.70};
  const geo::LatLon b{34.43, -119.68};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::bound_distance_m(a, b));
  }
}
BENCHMARK(BM_BoundDistance);

void BM_VisitDetection(benchmark::State& state) {
  const auto& a = tiny();
  const trace::VisitDetector detector;
  const trace::UserRecord& user = a.dataset.users()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(user.gps));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(user.gps.size()));
}
BENCHMARK(BM_VisitDetection);

void BM_MatchUser(benchmark::State& state) {
  const auto& a = tiny();
  // Pick the user with the most checkins for a meaningful workload.
  const trace::UserRecord* user = &a.dataset.users()[0];
  for (const auto& u : a.dataset.users()) {
    if (u.checkins.size() > user->checkins.size()) user = &u;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::match_user(user->checkins.events(), user->visits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(user->checkins.size()));
}
BENCHMARK(BM_MatchUser);

void BM_MatchUserReference(benchmark::State& state) {
  const auto& a = tiny();
  const trace::UserRecord* user = &a.dataset.users()[0];
  for (const auto& u : a.dataset.users()) {
    if (u.checkins.size() > user->checkins.size()) user = &u;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::match_user_reference(user->checkins.events(), user->visits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(user->checkins.size()));
}
BENCHMARK(BM_MatchUserReference);

void BM_PoiGridQuery(benchmark::State& state) {
  const auto& a = tiny();
  const trace::PoiGrid grid(a.dataset.pois().all(), 500.0);
  const geo::LatLon center{34.42, -119.70};
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.within(center, 500.0));
  }
}
BENCHMARK(BM_PoiGridQuery);

void BM_EcdfEvaluate(benchmark::State& state) {
  std::vector<double> xs;
  stats::Rng rng(1);
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.uniform());
  const stats::Ecdf ecdf(xs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdf.at(0.5));
  }
}
BENCHMARK(BM_EcdfEvaluate);

void BM_ValidateTinyDataset(benchmark::State& state) {
  const auto& a = tiny();
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::validate_dataset(a.dataset));
  }
}
BENCHMARK(BM_ValidateTinyDataset);

void BM_ValidateTinyDatasetThreads(benchmark::State& state) {
  const auto& a = tiny();
  const auto threads = static_cast<std::size_t>(state.range(0));
  core::ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::validate_dataset(a.dataset, {}, {}, pool));
  }
}
BENCHMARK(BM_ValidateTinyDatasetThreads)->Arg(1)->Arg(2)->Arg(4);

// Profiles the flat-accumulation rewrite of the per-user POI tallies
// (match/missing.cpp) against the whole-dataset Figure 3 analysis.
void BM_MissingRatioTopPois(benchmark::State& state) {
  const auto& a = tiny();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::missing_ratio_at_top_pois(a.dataset, a.validation));
  }
}
BENCHMARK(BM_MissingRatioTopPois);

void BM_AodvDiscoveryChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    manet::EventQueue queue;
    manet::ControlCounters counters;
    counters.pair_tx.assign(1, 0);
    manet::AodvNetwork net(
        n, manet::AodvConfig{}, queue,
        [n](manet::NodeId u) {
          std::vector<manet::NodeId> nbrs;
          if (u > 0) nbrs.push_back(u - 1);
          if (u + 1 < n) nbrs.push_back(u + 1);
          return nbrs;
        },
        counters);
    net.start_discovery(0, static_cast<manet::NodeId>(n - 1), 0, [](bool) {});
    queue.run_until(10.0);
    benchmark::DoNotOptimize(counters.total());
  }
}
BENCHMARK(BM_AodvDiscoveryChain)->Arg(8)->Arg(32)->Arg(128);

// --- Serve wire codecs -----------------------------------------------------

/// The tiny study flattened to ingest events, plus both wire encodings.
struct WireFixture {
  std::vector<stream::Event> events;
  std::string text;    ///< newline-delimited text grammar
  std::string binary;  ///< columnar frames of up to 512 records
};

/// Appends `events` to `out` as binary frames of up to 512 records.
void append_frames(std::string& out, const std::vector<stream::Event>& events) {
  constexpr std::size_t kFrameRecords = 512;
  for (std::size_t base = 0; base < events.size(); base += kFrameRecords) {
    const std::size_t n = std::min(kFrameRecords, events.size() - base);
    serve::append_binary_frame(
        out, std::span<const stream::Event>(events.data() + base, n));
  }
}

const WireFixture& wire_fixture() {
  static const WireFixture f = [] {
    WireFixture w;
    w.events = stream::flatten_dataset(tiny().dataset);
    for (const stream::Event& e : w.events) {
      serve::append_wire_record(w.text, e);
    }
    append_frames(w.binary, w.events);
    return w;
  }();
  return f;
}

/// One full pass of the serve text hot path: LineDecoder split +
/// parse_wire_record per line. Returns the events decoded (checked
/// against the fixture so the work cannot be optimized away).
std::size_t text_parse_pass(const WireFixture& f) {
  serve::LineDecoder decoder;
  decoder.feed(f.text);
  std::size_t decoded = 0;
  while (const auto line = decoder.next()) {
    if (std::holds_alternative<stream::Event>(
            serve::parse_wire_record(line->text))) {
      ++decoded;
    }
  }
  return decoded;
}

/// One full pass of the serve binary hot path: frame split + columnar
/// decode.
std::size_t binary_decode_pass(const WireFixture& f) {
  serve::BinaryFrameDecoder decoder;
  decoder.feed(f.binary);
  std::size_t decoded = 0;
  while (auto result = decoder.next()) {
    if (const auto* frame =
            std::get_if<serve::BinaryFrameDecoder::Frame>(&*result)) {
      decoded += frame->events.size();
    }
  }
  return decoded;
}

void BM_WireTextParse(benchmark::State& state) {
  const WireFixture& f = wire_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(text_parse_pass(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.events.size()));
}
BENCHMARK(BM_WireTextParse);

void BM_WireBinaryDecode(benchmark::State& state) {
  const WireFixture& f = wire_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(binary_decode_pass(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.events.size()));
}
BENCHMARK(BM_WireBinaryDecode);

/// One full pass of the binary encoder: the fixture's events as 512-record
/// frames into one reused buffer. Returns the bytes written.
std::size_t binary_encode_pass(const WireFixture& f) {
  static std::string out;
  out.clear();
  append_frames(out, f.events);
  benchmark::DoNotOptimize(out.data());
  benchmark::ClobberMemory();
  return out.size();
}

void BM_WireBinaryEncode(benchmark::State& state) {
  const WireFixture& f = wire_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(binary_encode_pass(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.events.size()));
}
BENCHMARK(BM_WireBinaryEncode);

/// CRC-32 over a buffer of pseudo-random bytes: the check every frame,
/// checkpoint and model load runs over its whole body. 63 bytes stays
/// below the carry-less fold's 64-byte threshold, 16 KiB is about a
/// 512-record frame, 64 KiB a large body.
void BM_Crc32(benchmark::State& state) {
  std::string buf(static_cast<std::size_t>(state.range(0)), '\0');
  stats::Rng rng(5);
  for (char& ch : buf) ch = static_cast<char>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::crc32(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(63)->Arg(16 * 1024)->Arg(64 * 1024);

// LineDecoder::next() hands out a string_view into its own buffer, so
// the split itself allocates and copies nothing — the zero-copy design
// the text path has had since the decoder landed. The Copy variant below
// materializes each line into a std::string, i.e. what the decoder
// *would* cost per line if it returned owned strings; the pair is the
// before/after record for keeping the string_view contract.
void BM_LineDecoderSplit(benchmark::State& state) {
  const WireFixture& f = wire_fixture();
  for (auto _ : state) {
    serve::LineDecoder decoder;
    decoder.feed(f.text);
    std::size_t lines = 0;
    while (const auto line = decoder.next()) lines += !line->text.empty();
    benchmark::DoNotOptimize(lines);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.events.size()));
}
BENCHMARK(BM_LineDecoderSplit);

void BM_LineDecoderSplitCopy(benchmark::State& state) {
  const WireFixture& f = wire_fixture();
  for (auto _ : state) {
    serve::LineDecoder decoder;
    decoder.feed(f.text);
    std::size_t bytes = 0;
    while (const auto line = decoder.next()) {
      const std::string owned(line->text);  // the copy the API avoids
      benchmark::DoNotOptimize(owned.data());
      bytes += owned.size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.events.size()));
}
BENCHMARK(BM_LineDecoderSplitCopy);

/// Text parse and columnar binary decode in rows/s, best-of-7
/// single-threaded passes over identical event content. No bar: a floor on
/// the ratio would only assert that text parsing stays slow. Binary
/// decode's own rate is guarded by perfbench's gated ingest_binary
/// workload and its serve.binary_decode_ns layer metric.
void wire_format_report() {
  using Clock = std::chrono::steady_clock;
  const WireFixture& f = wire_fixture();

  const auto best_rate = [&](auto&& pass) {
    // Calibrate repetitions so one sample spans >= ~50 ms, then take the
    // fastest of 7 samples (minimum = least scheduler noise).
    const Clock::time_point c0 = Clock::now();
    std::size_t decoded = pass(f);
    double est = std::chrono::duration<double>(Clock::now() - c0).count();
    const std::size_t reps =
        est > 0.0 ? static_cast<std::size_t>(0.05 / est) + 1 : 1;
    double best = est > 0.0 ? est : 1e9;
    for (int sample = 0; sample < 7; ++sample) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < reps; ++i) {
        decoded = pass(f);
        benchmark::DoNotOptimize(decoded);
      }
      const double per_pass =
          std::chrono::duration<double>(Clock::now() - t0).count() /
          static_cast<double>(reps);
      if (per_pass < best) best = per_pass;
    }
    if (decoded != f.events.size()) return 0.0;  // codec broke: reads 0
    return static_cast<double>(f.events.size()) / best;
  };

  const double text_rows = best_rate(text_parse_pass);
  const double binary_rows = best_rate(binary_decode_pass);
  const double encode_rows = best_rate([](const WireFixture& w) {
    return binary_encode_pass(w) == w.binary.size() ? w.events.size() : 0;
  });
  const double ratio = text_rows > 0.0 ? binary_rows / text_rows : 0.0;
  std::cout << "{\"bench\":\"wire_format\",\"rows\":" << f.events.size()
            << ",\"text_rows_per_sec\":" << text_rows
            << ",\"binary_rows_per_sec\":" << binary_rows
            << ",\"binary_encode_rows_per_sec\":" << encode_rows
            << ",\"ratio\":" << ratio << "}\n";
}

void BM_LevyTrackGeneration(benchmark::State& state) {
  mobility::LevyWalkModel m;
  m.name = "bench";
  m.flight = {100.0, 1.2};
  m.flight_max_m = 20000.0;
  m.pause = {120.0, 1.0};
  m.pause_max_s = 7200.0;
  m.time_of_distance.k = 2.0;
  m.time_of_distance.gamma = 0.5;
  mobility::ArenaConfig arena;
  stats::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mobility::generate_track(m, arena, 7200.0, rng));
  }
}
BENCHMARK(BM_LevyTrackGeneration);

}  // namespace

// Custom main (instead of benchmark_main): the registered benchmarks run
// first, then the wire format report.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  wire_format_report();
  return 0;
}
