// perfbench: the repository benchmark. Runs one workload for at least
// --seconds and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics for
// --trace 0, the per-layer metrics for --trace 1. The lines before it
// describe the host and build and every metric with its sample count, its
// basis and (per-layer) whether it repeats exactly for a seed.
//
//   perfbench --workload paper_round|select_stream|fleet_eval --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--build KEY=VALUE]...
//
// Exits 1 when a correctness check fails, 2 on bad arguments or an error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

void print_metric_line(const char* kind, const Metric& m) {
  std::printf("{\"%s\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
              "\"samples\": %zu, ",
              kind, json_escape(m.name).c_str(), fmt(m.value).c_str(),
              json_escape(m.unit).c_str(), m.samples);
  if (std::strcmp(kind, "per_layer") == 0) {
    std::printf("\"exact\": %s, ", m.exact ? "true" : "false");
  }
  std::printf("\"basis\": \"%s\"}\n", json_escape(m.basis).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--build KEY=VALUE]...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::vector<std::pair<std::string, std::string>> build;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--build") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) return usage();
      build.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || o.work_dir.empty() || o.seconds <= 0.0) {
    return usage();
  }

  Result r;
  try {
    make_empty_dir(o.work_dir);
    r = run_workload(o);
    std::filesystem::remove_all(o.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(o.work_dir);
    return 2;
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0);
  auto info = host_info();
  info.insert(info.end(), build.begin(), build.end());
  for (const auto& [k, v] : info) {
    std::printf("{\"host\": \"%s\", \"value\": \"%s\"}\n", json_escape(k).c_str(),
                json_escape(v).c_str());
  }
  for (const auto& [k, v] : r.notes) {
    std::printf("{\"note\": \"%s\", \"value\": \"%s\"}\n", json_escape(k).c_str(),
                json_escape(v).c_str());
  }
  for (const Metric& m : r.end_to_end) print_metric_line("end_to_end", m);
  for (const Metric& m : r.per_layer) print_metric_line("per_layer", m);
  for (const std::string& f : r.failures) {
    std::printf("{\"failed_check\": \"%s\"}\n", json_escape(f).c_str());
  }

  const bool correct = r.failures.empty();
  if (!correct && r.failed == 0) r.failed = r.failures.size();
  const std::vector<Metric>& reported = o.trace ? r.per_layer : r.end_to_end;
  std::string metrics;
  for (const Metric& m : reported) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(m.name) + "\": {\"value\": " + fmt(m.value) +
               ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}
