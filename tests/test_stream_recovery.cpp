// Crash-recovery equivalence: kill the engine at several stream offsets,
// restore from the last periodic checkpoint, resume, and require the final
// verdicts to be byte-identical to both an uninterrupted streaming run and
// the batch pipeline — across shard counts and presets, including resumes
// that change the shard count mid-flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "match/pipeline.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "synth/config.h"
#include "synth/study_generator.h"

namespace geovalid::stream {
namespace {

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

/// One crash/recover cycle, all in memory (the container's disk format has
/// its own suite): feed with periodic checkpoints, kill at `kill_at`,
/// restore the latest checkpoint into a fresh engine with
/// `resume_shards`, replay the tail and return the final partition.
match::Partition crash_and_recover(const std::vector<Event>& events,
                                   std::size_t shards,
                                   std::size_t resume_shards,
                                   std::uint64_t kill_at,
                                   std::uint64_t interval) {
  std::optional<Checkpoint> latest;
  {
    StreamEngineConfig config;
    config.shards = shards;
    StreamEngine engine(config);
    ReplayConfig replay;
    replay.kill_at = kill_at;
    replay.checkpoint_interval_events = interval;
    replay.on_checkpoint = [&](std::uint64_t cursor) {
      latest = Checkpoint{cursor, engine.save_state()};
    };
    const ReplayStats stats = replay_events(events, engine, replay);
    EXPECT_TRUE(stats.killed);
    EXPECT_EQ(stats.cursor, kill_at);
    // The crash happens after the last checkpoint; resume loses at most
    // one interval of work, never verdicts.
    if (latest) {
      EXPECT_LE(latest->cursor, kill_at);
    }
  }

  StreamEngineConfig config;
  config.shards = resume_shards;
  StreamEngine engine(config);
  ReplayConfig replay;
  if (latest) {
    engine.load_state(latest->payload);
    replay.resume_cursor = latest->cursor;
  }
  replay_events(events, engine, replay);
  return engine.partition();
}

class StreamRecovery : public ::testing::Test {
 protected:
  static void run_preset(const synth::StudyConfig& preset,
                         const std::vector<double>& kill_fractions) {
    const synth::GeneratedStudy study = synth::generate_study(preset);
    const std::vector<Event> events = flatten_dataset(study.dataset);
    ASSERT_GT(events.size(), 100u);
    const match::Partition batch =
        match::validate_dataset(study.dataset).totals;
    const std::uint64_t interval =
        std::max<std::uint64_t>(1, events.size() / 10);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const double f : kill_fractions) {
        const auto kill_at = static_cast<std::uint64_t>(
            static_cast<double>(events.size()) * f);
        ASSERT_GT(kill_at, 0u);
        const match::Partition recovered =
            crash_and_recover(events, shards, shards, kill_at, interval);
        expect_partition_eq(recovered, batch);
      }
    }
  }
};

TEST_F(StreamRecovery, TinyStudyKilledAtThreeOffsetsMatchesBatch) {
  run_preset(synth::tiny_preset(), {0.2, 0.5, 0.9});
}

TEST_F(StreamRecovery, PrimaryStudyKilledAtTwoOffsetsMatchesBatch) {
  run_preset(synth::primary_preset(), {0.3, 0.7});
}

TEST_F(StreamRecovery, ResumeMayChangeShardCount) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;
  const std::uint64_t kill_at = events.size() / 2;
  const std::uint64_t interval = events.size() / 8;

  // 4 shards before the crash, 2 after — and the reverse.
  expect_partition_eq(crash_and_recover(events, 4, 2, kill_at, interval),
                      batch);
  expect_partition_eq(crash_and_recover(events, 2, 4, kill_at, interval),
                      batch);
}

TEST_F(StreamRecovery, KillBeforeFirstCheckpointRecoversFromScratch) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;
  // Interval larger than the kill offset: no checkpoint exists at crash
  // time, so recovery replays from offset zero.
  expect_partition_eq(
      crash_and_recover(events, 2, 2, events.size() / 10, events.size()),
      batch);
}

TEST_F(StreamRecovery, GracefulStopCheckpointsExactCursor) {
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;
  const std::uint64_t stop_at = events.size() / 3;

  std::optional<Checkpoint> final_ck;
  {
    StreamEngineConfig config;
    config.shards = 3;
    StreamEngine engine(config);
    ReplayConfig replay;
    replay.stop_after = stop_at;
    replay.checkpoint_interval_events = events.size();  // periodic: never
    replay.on_checkpoint = [&](std::uint64_t cursor) {
      final_ck = Checkpoint{cursor, engine.save_state()};
    };
    const ReplayStats stats = replay_events(events, engine, replay);
    EXPECT_TRUE(stats.interrupted);
    EXPECT_FALSE(stats.killed);
    EXPECT_EQ(stats.cursor, stop_at);
  }
  // Graceful stop checkpoints the exact cursor: resume loses nothing.
  ASSERT_TRUE(final_ck.has_value());
  EXPECT_EQ(final_ck->cursor, stop_at);

  StreamEngine engine{StreamEngineConfig{}};
  engine.load_state(final_ck->payload);
  ReplayConfig replay;
  replay.resume_cursor = final_ck->cursor;
  replay_events(events, engine, replay);
  expect_partition_eq(engine.partition(), batch);
}

TEST_F(StreamRecovery, CheckpointOverheadLeavesVerdictsExact) {
  // Checkpointing every ~5% of the stream must not perturb verdicts even
  // slightly (drain/save/resume-free path equivalence).
  const synth::GeneratedStudy study =
      synth::generate_study(synth::tiny_preset());
  const std::vector<Event> events = flatten_dataset(study.dataset);
  const match::Partition batch =
      match::validate_dataset(study.dataset).totals;

  StreamEngineConfig config;
  config.shards = 4;
  StreamEngine engine(config);
  ReplayConfig replay;
  std::size_t checkpoints = 0;
  replay.checkpoint_interval_events = std::max<std::uint64_t>(
      1, events.size() / 20);
  replay.on_checkpoint = [&](std::uint64_t) {
    (void)engine.save_state();
    ++checkpoints;
  };
  replay_events(events, engine, replay);
  EXPECT_GE(checkpoints, 19u);
  expect_partition_eq(engine.partition(), batch);
}

}  // namespace
}  // namespace geovalid::stream
