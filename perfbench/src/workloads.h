// The four workloads (README.md says why each exists) and the run that
// sets one up, measures it and prints its two JSON lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "primary" for the benchmark; "tiny" for the benchmark's own tests.
  std::string preset = "primary";
  /// Provenance tags; the checkout the benchmark runs in may not be a
  /// git repository, so the sources' digest identifies the code too.
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Sets up, measures and checks one workload; prints the report line and
/// then the result line on stdout. Returns the process exit code: 0 when
/// every output matched its reference, 1 otherwise.
int run(const Options& options);

}  // namespace perfbench
