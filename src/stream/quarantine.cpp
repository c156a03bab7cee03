#include "stream/quarantine.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace geovalid::stream {

std::string_view to_string(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kBadCoordinates:
      return "bad_coordinates";
    case QuarantineReason::kTimestampOverflow:
      return "timestamp_overflow";
    case QuarantineReason::kLateTimestamp:
      return "late_timestamp";
    case QuarantineReason::kStaleTimestamp:
      return "stale_timestamp";
    case QuarantineReason::kUnknownUser:
      return "unknown_user";
    case QuarantineReason::kMalformedLine:
      return "malformed_line";
    case QuarantineReason::kMalformedFrame:
      return "malformed_frame";
  }
  return "unknown";
}

Quarantine::Quarantine(QuarantineConfig config) : config_(std::move(config)) {
  if (config_.metrics) {
    // Pre-register every reason so a snapshot shows explicit zeros once
    // quarantine is enabled — absence then means "quarantine off", not
    // "nothing quarantined".
    for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
      counters_[i] = &obs::registry().counter(
          "stream_quarantined_total",
          "Stream records routed to the dead-letter path, by reason",
          {{"reason",
            std::string(to_string(static_cast<QuarantineReason>(i)))}});
    }
  }
  if (!config_.dead_letter_path.empty()) {
    const bool existed = std::filesystem::exists(config_.dead_letter_path);
    out_.open(config_.dead_letter_path, std::ios::app);
    if (!out_) {
      throw std::runtime_error("quarantine: cannot open dead-letter file " +
                               config_.dead_letter_path.string());
    }
    out_.precision(10);
    if (!existed) out_ << "reason,user,kind,t,lat,lon,detail\n";
  }
}

void Quarantine::record(const Event& e, QuarantineReason reason) {
  counts_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (counters_[static_cast<std::size_t>(reason)] != nullptr) {
    counters_[static_cast<std::size_t>(reason)]->inc();
  }
  if (out_.is_open()) {
    const geo::LatLon& pos = e.position();
    std::lock_guard<std::mutex> lock(io_mu_);
    out_ << to_string(reason) << ',' << e.user << ','
         << (e.kind == Event::Kind::kGps ? "gps" : "checkin") << ','
         << e.time() << ',' << pos.lat_deg << ',' << pos.lon_deg << ",\n";
  }
}

void Quarantine::record_raw(std::string_view raw_line,
                            QuarantineReason reason) {
  counts_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (counters_[static_cast<std::size_t>(reason)] != nullptr) {
    counters_[static_cast<std::size_t>(reason)]->inc();
  }
  if (out_.is_open()) {
    // The offending bytes are untrusted: clip, and squash anything that
    // would break the CSV shape (separators, control bytes) to spaces.
    constexpr std::size_t kDetailCap = 200;
    std::string detail(raw_line.substr(0, kDetailCap));
    for (char& c : detail) {
      if (c == ',' || static_cast<unsigned char>(c) < 0x20) c = ' ';
    }
    std::lock_guard<std::mutex> lock(io_mu_);
    out_ << to_string(reason) << ",,raw,,,," << detail << '\n';
  }
}

std::uint64_t Quarantine::total() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

void Quarantine::flush() {
  if (!out_.is_open()) return;
  std::lock_guard<std::mutex> lock(io_mu_);
  out_.flush();
}

}  // namespace geovalid::stream
