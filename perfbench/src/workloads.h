// The benchmark's workloads. Each runs closed loop — the next dialogue set
// (or the next fleet) goes in only after the previous call returned — for
// at least `seconds`, and fills a Result with every end-to-end metric and,
// when `trace` is set, every per-layer metric.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // private scratch directory, removed afterwards
};

// Throws std::invalid_argument for an unknown workload name.
Result run_workload(const Options& options);

}  // namespace perfbench
