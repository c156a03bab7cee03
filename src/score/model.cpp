#include "score/model.h"

#include <fstream>
#include <vector>

#include "stream/checkpoint.h"
#include "stream/snapshot_io.h"

namespace geovalid::score {
namespace {

/// Same FNV-1a the engine's config fingerprint uses; over the encoded
/// artifact so any parameter change (or format change) changes the print.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ScoreModel ScoreModel::from_detector(
    const detect::TrainedDetector& detector) {
  ScoreModel m;
  m.scaler_ = detector.scaler;
  m.model_ = detector.model;
  return m;
}

double ScoreModel::score(const detect::FeatureVector& f) const {
  const std::vector<double> z =
      scaler_.transform(std::span<const double>(f.data(), f.size()));
  return model_.predict(z);
}

std::uint64_t ScoreModel::fingerprint() const { return fnv1a64(encode()); }

std::string ScoreModel::encode() const {
  stream::SnapshotWriter w;
  w.u32(kModelMagic);
  w.u32(kModelVersion);
  w.u64(scaler_.dimensions());
  for (const double v : scaler_.mean()) w.f64(v);
  for (const double v : scaler_.stddev()) w.f64(v);
  for (const double v : model_.weights()) w.f64(v);
  w.f64(model_.bias());
  std::string bytes = w.take();
  stream::SnapshotWriter trailer;
  trailer.u32(stream::crc32(bytes));
  bytes += trailer.bytes();
  return bytes;
}

ScoreModel ScoreModel::decode(std::string_view bytes) {
  using stream::CheckpointError;
  if (bytes.size() < 12) {
    throw CheckpointError(CheckpointError::Kind::kCorrupt,
                          "model: artifact truncated");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  stream::SnapshotReader crc_reader(bytes.substr(bytes.size() - 4));
  if (crc_reader.u32() != stream::crc32(body)) {
    throw CheckpointError(CheckpointError::Kind::kCorrupt,
                          "model: checksum mismatch");
  }
  try {
    stream::SnapshotReader r(body);
    if (r.u32() != kModelMagic) {
      throw CheckpointError(CheckpointError::Kind::kCorrupt,
                            "model: bad magic");
    }
    const std::uint32_t version = r.u32();
    if (version != kModelVersion) {
      throw CheckpointError(
          CheckpointError::Kind::kVersionMismatch,
          "model: format revision " + std::to_string(version) +
              ", this binary speaks " + std::to_string(kModelVersion));
    }
    const std::uint64_t dims = r.u64();
    if (dims != detect::kFeatureCount) {
      throw CheckpointError(
          CheckpointError::Kind::kVersionMismatch,
          "model: " + std::to_string(dims) + " features, this binary has " +
              std::to_string(detect::kFeatureCount));
    }
    std::vector<double> mean(dims), sigma(dims), weights(dims);
    for (double& v : mean) v = r.f64();
    for (double& v : sigma) v = r.f64();
    for (double& v : weights) v = r.f64();
    const double bias = r.f64();
    if (!r.exhausted()) {
      throw CheckpointError(CheckpointError::Kind::kCorrupt,
                            "model: trailing bytes after parameters");
    }
    ScoreModel m;
    m.scaler_ = detect::Standardizer::from_params(mean, sigma);
    m.model_ = detect::LogisticModel::from_params(weights, bias);
    return m;
  } catch (const stream::SnapshotError& e) {
    throw CheckpointError(CheckpointError::Kind::kCorrupt, e.what());
  }
}

void save_model(const std::filesystem::path& path, const ScoreModel& model) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  stream::write_file_durably(path, model.encode());
}

ScoreModel load_model(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw stream::CheckpointError(
        stream::CheckpointError::Kind::kCorrupt,
        "model: cannot open for read: " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return ScoreModel::decode(bytes);
}

}  // namespace geovalid::score
