// Persisted scoring model for the live fake-checkin detection service.
//
// A ScoreModel is the deployable half of detect/'s offline training: the
// fitted Standardizer plus the trained LogisticModel, frozen into a
// versioned, CRC-trailed artifact (`geovalid train` writes one, `serve
// --model` loads it). Scoring goes through the *same* transform/predict
// code the batch detector uses — Standardizer::transform and
// LogisticModel::predict — so an online score can be bit-identical to the
// batch `TrainedDetector::score_user` path by construction, not by
// re-implementation.
//
// On-disk layout (all integers little-endian, doubles bit-cast — the
// snapshot_io vocabulary, mirroring the checkpoint container):
//
//   u32  magic      "GVSM"
//   u32  version    kModelVersion
//   u64  dims       feature count (must equal detect::kFeatureCount)
//   f64  mean[dims]
//   f64  sigma[dims]
//   f64  weights[dims]
//   f64  bias
//   u32  crc32      over everything above
//
// Load failures throw stream::CheckpointError (kCorrupt for bad magic /
// truncation / CRC mismatch, kVersionMismatch for a different format
// revision) so the CLI maps them onto the existing exit-code-4 contract.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "detect/detector.h"
#include "detect/features.h"
#include "detect/logistic.h"

namespace geovalid::score {

inline constexpr std::uint32_t kModelMagic = 0x4D535647;  // "GVSM"
inline constexpr std::uint32_t kModelVersion = 1;

/// An immutable, loaded scoring model. Thread-safe to share by const
/// reference: scoring only reads the scaler/model parameters.
class ScoreModel {
 public:
  /// Freezes the deployable parameters out of an offline training run.
  [[nodiscard]] static ScoreModel from_detector(
      const detect::TrainedDetector& detector);

  /// Probability that a checkin with feature vector `f` is extraneous —
  /// exactly `model.predict(scaler.transform(f))`, the batch scoring path.
  [[nodiscard]] double score(const detect::FeatureVector& f) const;

  [[nodiscard]] const detect::Standardizer& scaler() const { return scaler_; }
  [[nodiscard]] const detect::LogisticModel& model() const { return model_; }

  /// FNV-1a over the artifact bytes: folded into the engine's config
  /// fingerprint so a checkpoint written under one model refuses to resume
  /// under another (the scores would silently change).
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Artifact codec. decode() throws stream::CheckpointError on corrupt
  /// or version-mismatched bytes.
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static ScoreModel decode(std::string_view bytes);

 private:
  detect::Standardizer scaler_;
  detect::LogisticModel model_;
};

/// Durably writes the artifact (stream::write_file_durably).
void save_model(const std::filesystem::path& path, const ScoreModel& model);

/// Reads and validates an artifact. Throws stream::CheckpointError when
/// the file is unreadable, corrupt, or a different format revision.
[[nodiscard]] ScoreModel load_model(const std::filesystem::path& path);

}  // namespace geovalid::score
