#include "layers.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>

#include "cluster/ring.h"
#include "core/parallel.h"
#include "detect/detector.h"
#include "match/pipeline.h"
#include "score/scorer.h"
#include "serve/wire.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "trace/csv.h"
#include "trace/visit_detector.h"

namespace perfbench {

namespace {

using namespace geovalid;
using stream::Event;

/// Events per chunk of the wire probes: encode a chunk untimed, then time
/// the layer over it, so no whole-study byte buffer is ever held.
constexpr std::size_t kWireChunk = 1 << 16;

template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

struct EngineFeed {
  double ns_per_event = 0.0;
  std::uint64_t stalls = 0;
};

/// One producer thread, 512-event Producer::stage_batch calls, through
/// drain() — the engine's cost without any network in front of it.
EngineFeed feed(stream::StreamEngine& engine, std::span<const Event> events) {
  stream::StreamEngine::Producer producer(engine);
  const double s = time_s([&] {
    for (std::size_t i = 0; i < events.size(); i += 512) {
      (void)producer.stage_batch(
          events.subspan(i, std::min<std::size_t>(512, events.size() - i)));
    }
    producer.flush();
    engine.drain();
  });
  return {s * 1e9 / static_cast<double>(events.size()), producer.stalls()};
}

stream::StreamEngineConfig engine_config(std::size_t shards,
                                         const score::ScoreModel* model) {
  stream::StreamEngineConfig c;
  c.shards = shards;
  c.model = model;
  return c;
}

double feed_fresh(std::span<const Event> events, std::size_t shards,
                  const score::ScoreModel* model) {
  stream::StreamEngine engine(engine_config(shards, model));
  return feed(engine, events).ns_per_event;
}

}  // namespace

LayerMetrics probe_layers(const LayerInputs& in) {
  const std::span<const Event> events = in.events;
  const double n_events = static_cast<double>(events.size());
  core::ThreadPool pool(in.threads);

  // --- trace + match: the batch stages analyze_csv chains ---------------
  std::filesystem::path csv_dir = in.csv_dir;
  if (csv_dir.empty()) {
    csv_dir = in.work_dir / "layers_csv";
    trace::write_dataset_csv(*in.dataset, csv_dir);
  }
  trace::Dataset ds;
  const double csv_read_s =
      time_s([&] { ds = trace::read_dataset_csv(csv_dir, "bench"); });
  const double visit_s = time_s([&] {
    const trace::VisitDetector detector;
    auto users = ds.mutable_users();
    pool.run(users.size(), [&](std::size_t i) {
      users[i].visits = detector.detect(users[i].gps);
      detector.snap_to_pois(users[i].visits, ds.pois());
    });
  });
  const double validate_s =
      time_s([&] { (void)match::validate_dataset(ds, {}, {}, pool); });
  ds = trace::Dataset();

  // --- serve wire codecs ---------------------------------------------------
  double parse_s = 0.0, decode_s = 0.0, encode_s = 0.0;
  std::size_t parsed = 0, decoded = 0;
  std::string bytes;
  for (std::size_t i = 0; i < events.size(); i += kWireChunk) {
    const auto chunk =
        events.subspan(i, std::min(kWireChunk, events.size() - i));
    bytes.clear();
    for (const Event& e : chunk) serve::append_wire_record(bytes, e);
    parse_s += time_s([&] {
      serve::LineDecoder decoder;
      decoder.feed(bytes);
      while (const auto line = decoder.next()) {
        const serve::WireResult r = serve::parse_wire_record(line->text);
        if (std::holds_alternative<Event>(r)) ++parsed;
      }
    });
    bytes.clear();
    encode_s += time_s([&] {
      for (std::size_t j = 0; j < chunk.size(); j += 512) {
        serve::append_binary_frame(
            bytes, chunk.subspan(j, std::min<std::size_t>(512, chunk.size() - j)));
      }
    });
    decode_s += time_s([&] {
      serve::BinaryFrameDecoder decoder;
      decoder.feed(bytes);
      while (const auto r = decoder.next()) {
        if (const auto* f = std::get_if<serve::BinaryFrameDecoder::Frame>(&*r)) {
          decoded += f->events.size();
        }
      }
    });
  }
  if (parsed != events.size() || decoded != events.size()) {
    throw std::runtime_error("layer probe: wire codecs lost records");
  }

  // --- stream engine + score ----------------------------------------------
  std::optional<score::ScoreModel> trained;
  const score::ScoreModel* model = in.model;
  if (model == nullptr) {
    const match::ValidationResult v =
        match::validate_dataset(*in.dataset, {}, {}, pool);
    trained.emplace(score::ScoreModel::from_detector(
        detect::train_detector(*in.dataset, v)));
    model = &*trained;
  }
  // The scorer alone: OnlineScorer::observe over the study's checkins in
  // arrival order, on one thread; best of five.
  double observe_s = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    score::OnlineScorer scorer(*model);
    const double s = time_s([&] {
      for (const Event& e : events) {
        if (e.kind == Event::Kind::kCheckin) (void)scorer.observe(e.user, e.checkin);
      }
    });
    observe_s = rep == 0 ? s : std::min(observe_s, s);
  }
  // The scorer inside the engine: the difference of two single-shard
  // feeds, where one thread does all the work; best of three each,
  // interleaved.
  double engine_1shard_ns = 0.0, model_1shard_ns = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double plain = feed_fresh(events, 1, nullptr);
    const double scored = feed_fresh(events, 1, model);
    engine_1shard_ns = rep == 0 ? plain : std::min(engine_1shard_ns, plain);
    model_1shard_ns = rep == 0 ? scored : std::min(model_1shard_ns, scored);
  }
  // At the workload's shard count: a warm-up feed, then the measured one
  // whose registry families are read back.
  double engine_ns = feed_fresh(events, in.shards, nullptr);
  EngineFeed measured;
  obs::registry().reset_values();
  {
    stream::StreamEngine engine(engine_config(in.shards, nullptr));
    measured = feed(engine, events);
    engine_ns = std::min(engine_ns, measured.ns_per_event);
  }
  const double wait_ms =
      static_cast<double>(histogram_total("stream_backpressure_wait_ns").sum) /
      1e6;
  const double batch_p99_ns =
      histogram_percentile(histogram_total("stream_batch_latency_ns"), 99.0);
  const double shard_skew = counter_skew("stream_shard_events_total");

  double hold_lookup_ms = 0.0, hold_scan_ms = 0.0;
  double checkpoint_ms = 0.0, checkpoint_bytes = 0.0;
  {
    // A scoring engine at the workload's shard count, holding the
    // workload's full state, drained.
    stream::StreamEngine engine(engine_config(in.shards, model));
    (void)feed(engine, events);
    const auto users = in.dataset->users();
    const std::size_t step = std::max<std::size_t>(1, users.size() / 64);
    std::size_t lookups = 0;
    const double lookup_s = time_s([&] {
      for (std::size_t i = 0; i < users.size(); i += step, ++lookups) {
        (void)engine.user_verdicts(users[i].id);
        (void)engine.user_score(users[i].id);
      }
    });
    hold_lookup_ms = lookup_s * 1e3 / static_cast<double>(lookups);
    constexpr int kScans = 3;
    hold_scan_ms = time_s([&] {
                     for (int s = 0; s < kScans; ++s) {
                       (void)engine.all_user_verdicts();
                       (void)engine.top_suspects(10);
                     }
                   }) *
                   1e3 / kScans;
    std::filesystem::path path;
    checkpoint_ms = time_s([&] {
                      path = stream::write_checkpoint(
                          in.work_dir / "layers_ck",
                          {events.size(), engine.save_state()});
                    }) *
                    1e3;
    checkpoint_bytes = static_cast<double>(std::filesystem::file_size(path));
  }

  // --- cluster ring -------------------------------------------------------
  cluster::HashRing ring;
  ring.add_backend("b0");
  ring.add_backend("b1");
  std::size_t owners = 0;
  const double ring_s = time_s([&] {
    for (const Event& e : events) owners += ring.owner_index(e.user);
  });
  if (owners > events.size()) throw std::logic_error("ring: bad owner index");

  const double n_checkins = static_cast<double>(in.checkins);
  LayerMetrics out;
  out.detail = {
      {"score.engine_delta_ns",
       (model_1shard_ns - engine_1shard_ns) * n_events / n_checkins, "ns"},
  };
  out.per_layer = {
      {"trace.csv_read_s", csv_read_s, "s"},
      {"trace.visit_detect_s", visit_s, "s"},
      {"match.validate_s", validate_s, "s"},
      {"serve.text_parse_ns", parse_s * 1e9 / n_events, "ns"},
      {"serve.binary_decode_ns", decode_s * 1e9 / n_events, "ns"},
      {"serve.binary_encode_ns", encode_s * 1e9 / n_events, "ns"},
      {"stream.engine_ns", engine_ns, "ns"},
      {"stream.engine_1shard_ns", engine_1shard_ns, "ns"},
      {"stream.producer_stalls", static_cast<double>(measured.stalls), "count"},
      {"stream.backpressure_wait_ms", wait_ms, "ms"},
      {"stream.batch_latency_p99_ns", batch_p99_ns, "ns"},
      {"stream.shard_skew", shard_skew, "ratio"},
      {"stream.hold_lookup_ms", hold_lookup_ms, "ms"},
      {"stream.hold_scan_ms", hold_scan_ms, "ms"},
      {"stream.checkpoint_ms", checkpoint_ms, "ms"},
      {"stream.checkpoint_bytes", checkpoint_bytes, "bytes"},
      {"score.ns_per_checkin", observe_s * 1e9 / n_checkins, "ns"},
      {"cluster.ring_owner_ns", ring_s * 1e9 / n_events, "ns"},
  };
  return out;
}

}  // namespace perfbench
