// Per-layer measurements for the traced run: each layer is timed from
// outside, through its public functions, on the workload's own study.
// The program gets no new counters; a few metrics read back registry
// families it already exports.
#pragma once

#include <cstddef>
#include <filesystem>
#include <span>
#include <vector>

#include "harness.h"
#include "score/model.h"
#include "stream/event.h"
#include "trace/dataset.h"

namespace perfbench {

struct LayerInputs {
  const geovalid::trace::Dataset* dataset = nullptr;
  std::span<const geovalid::stream::Event> events;
  std::size_t checkins = 0;
  /// An existing CSV copy of `dataset`, or empty to write one under
  /// `work_dir` (untimed).
  std::filesystem::path csv_dir;
  std::filesystem::path work_dir;
  /// The workload's model, or null to train one from `dataset` (untimed).
  const geovalid::score::ScoreModel* model = nullptr;
  /// Engine shard count of the workload (stream.engine_ns runs at it).
  std::size_t shards = 2;
  std::size_t threads = 1;  ///< pool width for the batch stages
};

struct LayerMetrics {
  /// The per_layer metrics every traced run prints (BENCHMARK.json order).
  /// The stream.* registry figures come from the engine feed here; a
  /// workload that runs servers overwrites them with its own.
  std::vector<Metric> per_layer;
  /// Layer figures for the report line only.
  std::vector<Metric> detail;
};

[[nodiscard]] LayerMetrics probe_layers(const LayerInputs& in);

}  // namespace perfbench
