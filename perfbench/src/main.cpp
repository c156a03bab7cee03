// geovalid_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload against geovalid in-process, over loopback sockets
// where the workload has servers, and prints two JSON lines: a report
// (tags and every named workload metric) and, last, the result.
// README.md describes the workloads and the metrics.
#include <charconv>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: geovalid_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       [--preset primary|tiny] [--git-sha S] "
               "[--src-digest S]\n"
               "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = parse_number(value, o.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, o.seconds) && o.seconds > 0.0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (flag == "--preset") {
      ok = value == "primary" || value == "tiny";
      o.preset = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else if (flag == "--src-digest") {
      o.src_digest = value;
    } else {
      return usage("unknown flag " + std::string(flag));
    }
    if (!ok) return usage("bad value for " + std::string(flag) + ": " + value);
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) return usage("unknown workload " + o.workload);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << "\n";
    return 3;
  }
}
