// The streaming keystone: replaying a generated study through StreamEngine
// must reproduce match::validate_dataset's partition EXACTLY — same honest /
// extraneous / missing counts and the same §5.1 class breakdown — at any
// shard count. Plus engine-level contract tests (ordering, backpressure
// sanity, throttled replay).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "geo/geodesic.h"
#include "match/pipeline.h"
#include "stream/engine.h"
#include "stream/faults.h"
#include "stream/quarantine.h"
#include "stream/replay.h"
#include "synth/config.h"
#include "synth/study_generator.h"

namespace geovalid::stream {
namespace {

const geo::LatLon kVenue{34.4208, -119.6982};

void expect_partition_eq(const match::Partition& got,
                         const match::Partition& want) {
  EXPECT_EQ(got.honest, want.honest);
  EXPECT_EQ(got.extraneous, want.extraneous);
  EXPECT_EQ(got.missing, want.missing);
  EXPECT_EQ(got.checkins, want.checkins);
  EXPECT_EQ(got.visits, want.visits);
  for (std::size_t c = 0; c < got.by_class.size(); ++c) {
    EXPECT_EQ(got.by_class[c], want.by_class[c]) << "class " << c;
  }
}

match::Partition stream_study(const trace::Dataset& ds, std::size_t shards) {
  StreamEngineConfig config;
  config.shards = shards;
  StreamEngine engine(config);
  const ReplayStats stats = replay_dataset(ds, engine);
  EXPECT_EQ(engine.events_processed(), stats.events);
  return engine.partition();
}

TEST(StreamEngine, TinyStudyMatchesBatchPartition) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;
  ASSERT_GT(batch.checkins, 0u);
  ASSERT_GT(batch.visits, 0u);

  expect_partition_eq(stream_study(study.dataset, 1), batch);
  expect_partition_eq(stream_study(study.dataset, 4), batch);
}

TEST(StreamEngine, PrimaryStudyMatchesBatchPartition) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::primary_preset());
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;
  ASSERT_GT(batch.checkins, 0u);

  expect_partition_eq(stream_study(study.dataset, 1), batch);
  expect_partition_eq(stream_study(study.dataset, 4), batch);
}

TEST(StreamEngine, CustomMatchConfigFlowsThrough) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  match::MatchConfig strict;
  strict.alpha_m = 100.0;
  strict.beta = trace::minutes(10);
  const match::Partition batch =
      match::validate_dataset(study.dataset, strict).totals;

  StreamEngineConfig config;
  config.shards = 3;
  config.match = strict;
  StreamEngine engine(config);
  replay_dataset(study.dataset, engine);
  expect_partition_eq(engine.partition(), batch);
}

TEST(StreamEngine, FlattenedStreamIsGloballyTimeOrdered) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time(), events[i].time()) << "event " << i;
  }
}

TEST(StreamEngine, ReplayCountsEveryEvent) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  StreamEngine engine;
  const ReplayStats stats = replay_dataset(study.dataset, engine);

  std::size_t gps = 0, checkins = 0;
  for (const trace::UserRecord& user : study.dataset.users()) {
    gps += user.gps.points().size();
    checkins += user.checkins.events().size();
  }
  EXPECT_EQ(stats.gps_samples, gps);
  EXPECT_EQ(stats.checkins, checkins);
  EXPECT_EQ(stats.events, gps + checkins);
  EXPECT_GT(stats.events_per_sec, 0.0);
  EXPECT_GE(stats.wall_seconds, stats.feed_seconds);
}

TEST(StreamEngine, ThrottledReplayRespectsTheRate) {
  // 500 events at 5000/s must take at least ~0.1 s to feed.
  std::vector<Event> events;
  for (int i = 0; i < 500; ++i) {
    trace::GpsPoint p;
    p.t = trace::minutes(i);
    p.position = kVenue;
    events.push_back(Event::gps_sample(7, p));
  }
  StreamEngine engine;
  ReplayConfig config;
  config.rate_events_per_sec = 5000.0;
  const ReplayStats stats = replay_events(events, engine, config);
  EXPECT_EQ(stats.events, 500u);
  EXPECT_GE(stats.feed_seconds, 0.05);
}

TEST(StreamEngine, OutOfOrderUserStreamThrowsFromFinish) {
  StreamEngine engine;
  trace::GpsPoint p;
  p.t = trace::minutes(10);
  p.position = kVenue;
  engine.push(Event::gps_sample(1, p));
  p.t = trace::minutes(5);  // same user, timestamp regression
  engine.push(Event::gps_sample(1, p));
  EXPECT_THROW(engine.finish(), std::invalid_argument);
}

TEST(StreamEngine, PushAfterFinishThrows) {
  StreamEngine engine;
  engine.finish();
  trace::GpsPoint p;
  p.position = kVenue;
  EXPECT_THROW(engine.push(Event::gps_sample(1, p)), std::logic_error);
}

TEST(StreamEngine, FinishIsIdempotent) {
  StreamEngine engine;
  trace::GpsPoint p;
  p.t = 0;
  p.position = kVenue;
  engine.push(Event::gps_sample(1, p));
  engine.finish();
  const match::Partition first = engine.partition();
  engine.finish();
  expect_partition_eq(engine.partition(), first);
}

TEST(StreamEngine, ShardAssignmentIsStableAndInRange) {
  StreamEngineConfig config;
  config.shards = 4;
  StreamEngine engine(config);
  EXPECT_EQ(engine.shard_count(), 4u);
  for (trace::UserId u = 0; u < 100; ++u) {
    const std::size_t s = engine.shard_of(u);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(engine.shard_of(u), s);
  }
  engine.finish();
}

TEST(StreamEngine, TinyMailboxStillProducesExactPartition) {
  // Force heavy backpressure: a 64-event mailbox with 16-event batches.
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;

  StreamEngineConfig config;
  config.shards = 2;
  config.mailbox_capacity = 64;
  config.batch_size = 16;
  StreamEngine engine(config);
  replay_dataset(study.dataset, engine);
  expect_partition_eq(engine.partition(), batch);
}

// ---- Producer handles (the serve reactors' lock-free ingest path) ----

TEST(StreamEngine, ConcurrentProducersMatchBatchPartition) {
  // N producer threads, each with its own Producer handle and a disjoint
  // slice of users (the serve wire contract: one user, one connection, one
  // reactor), against a deliberately tiny mailbox so handoffs contend and
  // stall. The partition must still equal the batch reference exactly.
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;
  const std::vector<Event> events = flatten_dataset(study.dataset);

  constexpr std::size_t kProducers = 4;
  std::array<std::vector<Event>, kProducers> slices;
  for (const Event& e : events) {
    slices[static_cast<std::size_t>(e.user) % kProducers].push_back(e);
  }

  StreamEngineConfig config;
  config.shards = 3;
  config.mailbox_capacity = 64;
  config.batch_size = 16;
  StreamEngine engine(config);

  std::array<std::uint64_t, kProducers> stalls{};
  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (std::size_t i = 0; i < kProducers; ++i) {
    threads.emplace_back([&engine, &slices, &stalls, i] {
      StreamEngine::Producer producer(engine);
      for (const Event& e : slices[i]) {
        producer.push(e);
      }
      producer.flush();
      stalls[i] = producer.stalls();
    });
  }
  for (std::thread& t : threads) t.join();

  engine.finish();
  EXPECT_EQ(engine.events_processed(), events.size());
  expect_partition_eq(engine.partition(), batch);
  // The stall counter is bookkeeping, not behavior: any value is legal,
  // it just has to be readable after the thread parked its handle.
  std::uint64_t total_stalls = 0;
  for (const std::uint64_t s : stalls) total_stalls += s;
  EXPECT_LE(total_stalls, events.size());
}

TEST(StreamEngine, ProducerFlushDeliversStagedTail) {
  // A batch smaller than batch_size sits in producer staging until
  // flush(); finish() must then see every event.
  StreamEngine engine{StreamEngineConfig{}};
  StreamEngine::Producer producer(engine);
  trace::GpsPoint p;
  p.position = kVenue;
  for (int i = 0; i < 3; ++i) {
    p.t = trace::minutes(i);
    producer.push(Event::gps_sample(11, p));
  }
  producer.flush();
  engine.finish();
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(StreamEngine, PushAndStageBatchAgreeOnACorruptedStream) {
  // push() and Producer::stage_batch share one validate-quarantine-stage
  // step: on the same corrupted stream they quarantine the same records for
  // the same reasons and reach the same engine state, whatever the span
  // length — only the handoff batching differs.
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  std::vector<Event> events = flatten_dataset(study.dataset);
  std::unordered_set<trace::UserId> enrolled;
  for (const trace::UserRecord& u : study.dataset.users()) {
    enrolled.insert(u.id);
  }
  FaultPlan plan;
  plan.corrupt_rate = 0.05;
  plan.seed = 3;
  ASSERT_FALSE(FaultInjector(plan).corrupt_stream(events).empty());

  struct Outcome {
    std::array<std::uint64_t, kQuarantineReasonCount> quarantined{};
    std::string state;
    match::Partition partition;
  };
  // span 0 feeds push(); any other value, stage_batch in spans that long.
  const auto feed = [&](std::size_t span) {
    Quarantine quarantine;
    StreamEngineConfig config;
    config.shards = 3;
    config.quarantine = &quarantine;
    config.known_users = &enrolled;
    StreamEngine engine(config);
    if (span == 0) {
      for (const Event& e : events) (void)engine.push(e);
    } else {
      StreamEngine::Producer producer(engine);
      const std::span<const Event> all(events);
      for (std::size_t i = 0; i < all.size(); i += span) {
        (void)producer.stage_batch(
            all.subspan(i, std::min(span, all.size() - i)));
      }
      producer.flush();
    }
    Outcome out;
    out.state = engine.save_state();
    engine.finish();
    out.partition = engine.partition();
    for (std::size_t r = 0; r < kQuarantineReasonCount; ++r) {
      out.quarantined[r] =
          quarantine.count(static_cast<QuarantineReason>(r));
    }
    return out;
  };

  const Outcome pushed = feed(0);
  std::uint64_t quarantined = 0;
  for (const std::uint64_t n : pushed.quarantined) quarantined += n;
  ASSERT_GT(quarantined, 0u);
  for (const std::size_t span : {1u, 7u, 512u}) {
    SCOPED_TRACE("span " + std::to_string(span));
    const Outcome staged = feed(span);
    EXPECT_EQ(staged.quarantined, pushed.quarantined);
    EXPECT_TRUE(staged.state == pushed.state);
    expect_partition_eq(staged.partition, pushed.partition);
  }
}

// ---- Query API (the serve layer's /v1/users/{id}/verdicts source) ----

TEST(StreamEngine, UserVerdictsSumToThePartition) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());

  StreamEngineConfig config;
  config.shards = 3;
  StreamEngine engine(config);
  replay_dataset(study.dataset, engine);

  const std::vector<UserVerdicts> users = engine.all_user_verdicts();
  EXPECT_EQ(users.size(), engine.user_count());
  ASSERT_FALSE(users.empty());

  match::Partition sum;
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(users[i - 1].id, users[i].id);  // globally sorted
    }
    sum.honest += users[i].partition.honest;
    sum.extraneous += users[i].partition.extraneous;
    sum.missing += users[i].partition.missing;
    sum.checkins += users[i].partition.checkins;
    sum.visits += users[i].partition.visits;
    for (std::size_t c = 0; c < sum.by_class.size(); ++c) {
      sum.by_class[c] += users[i].partition.by_class[c];
    }
  }
  expect_partition_eq(sum, engine.partition());

  // Point query agrees with the bulk dump; an unseen id is nullopt.
  const auto one = engine.user_verdicts(users.front().id);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->id, users.front().id);
  EXPECT_EQ(one->checkins_seen, users.front().checkins_seen);
  EXPECT_FALSE(engine.user_verdicts(0xFFFFFF).has_value());
}

TEST(StreamEngine, UserVerdictsSumToThePartitionAtEveryDrain) {
  // Each verdict is counted into its user's share and its shard's totals
  // together, so the two agree at every drain, not only at the end. At
  // beta = 0 a driveby-vs-superfluous class waits for the next GPS sample,
  // the one path on which a GPS record changes by_class. Corrupt and late
  // records quarantine in between, and halfway the state resumes in a new
  // engine through save_state/load_state.
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  std::vector<Event> events = flatten_dataset(study.dataset);
  std::unordered_set<trace::UserId> enrolled;
  for (const trace::UserRecord& u : study.dataset.users()) {
    enrolled.insert(u.id);
  }
  FaultPlan plan;
  plan.corrupt_rate = 0.03;
  plan.seed = 23;
  ASSERT_FALSE(FaultInjector(plan).corrupt_stream(events).empty());

  std::size_t drains = 0;
  const auto expect_counted_once = [&](StreamEngine& engine) {
    match::Partition sum;
    for (const UserVerdicts& u : engine.all_user_verdicts()) {
      sum.honest += u.partition.honest;
      sum.extraneous += u.partition.extraneous;
      sum.missing += u.partition.missing;
      sum.checkins += u.partition.checkins;
      sum.visits += u.partition.visits;
      for (std::size_t c = 0; c < sum.by_class.size(); ++c) {
        sum.by_class[c] += u.partition.by_class[c];
      }
    }
    SCOPED_TRACE("drain " + std::to_string(++drains));
    expect_partition_eq(sum, engine.partition());
  };
  constexpr std::size_t kDrainEvery = 997;
  const auto feed = [&](StreamEngine& engine, std::size_t from,
                        std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      engine.push(events[i]);
      if ((i + 1) % kDrainEvery == 0) expect_counted_once(engine);
    }
  };

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Quarantine quarantine(QuarantineConfig{{}, /*metrics=*/false});
    StreamEngineConfig config;
    config.shards = shards;
    config.metrics = false;
    config.match.beta = 0;
    config.quarantine = &quarantine;
    config.known_users = &enrolled;
    config.reorder_window = trace::kMaxEventTime;  // every regression: late
    const std::size_t half = events.size() / 2;
    std::string state;
    {
      StreamEngine engine(config);
      feed(engine, 0, half);
      state = engine.save_state();
      engine.shutdown();
    }
    StreamEngine resumed(config);
    resumed.load_state(state);
    expect_counted_once(resumed);
    feed(resumed, half, events.size());
    resumed.finish();
    expect_counted_once(resumed);
    EXPECT_GT(quarantine.count(QuarantineReason::kLateTimestamp), 0u);
    EXPECT_GT(quarantine.count(QuarantineReason::kBadCoordinates), 0u);
  }
}

TEST(StreamEngine, UserVerdictsInterarrivalStatistics) {
  StreamEngine engine{StreamEngineConfig{}};
  trace::Checkin c;
  c.poi = 1;
  c.category = trace::PoiCategory::kFood;
  c.location = kVenue;
  // Checkins at 0, +10min, +30min: gaps {10, 20} minutes.
  for (const trace::TimeSec t : {0, 600, 1800}) {
    c.t = t;
    engine.push(Event::checkin_event(42, c));
  }

  const auto v = engine.user_verdicts(42);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->checkins_seen, 3u);
  EXPECT_EQ(v->gap_count, 2u);
  EXPECT_DOUBLE_EQ(v->gap_mean_min, 15.0);
  EXPECT_DOUBLE_EQ(v->gap_stddev_min(), 5.0);  // population: sqrt(50 / 2)
  EXPECT_DOUBLE_EQ(v->burstiness(), (5.0 - 15.0) / (5.0 + 15.0));

  // A GPS-only user is tracked but has no gaps and a zero ratio.
  trace::GpsPoint p;
  p.t = 100;
  p.position = kVenue;
  p.has_fix = true;
  engine.push(Event::gps_sample(7, p));
  const auto gps_only = engine.user_verdicts(7);
  ASSERT_TRUE(gps_only.has_value());
  EXPECT_EQ(gps_only->gap_count, 0u);
  EXPECT_DOUBLE_EQ(gps_only->burstiness(), 0.0);
  EXPECT_DOUBLE_EQ(gps_only->extraneous_ratio(), 0.0);
  engine.finish();
}

}  // namespace
}  // namespace geovalid::stream
