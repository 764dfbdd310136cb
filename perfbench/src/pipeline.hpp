// One benchmark run: a workload taken end to end through the library's
// public entry points, the way a user runs the system:
//
//   .gr on disk → hopset::build_hopset → .phs write → serve::Server::from_files
//   → P2P and RELOAD *.phsd lines from client threads
//
// then the no-index baselines on the same pairs, and the answer checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;  ///< road-serve | gnm-build | road-update
  std::uint64_t seed = 1;
  double seconds = 10;   ///< length of the timed serving phase
  bool tiny = false;     ///< 2k graphs, shorter phases (the package's tests)
  std::string workdir;   ///< scratch for .gr/.phs/.phsd files
  std::size_t nproc = 1; ///< build pool, daemon workers, checker threads
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< P2P and RELOAD lines sent
  std::uint64_t failed = 0;     ///< BUSY + ERR + failed RELOAD + wrong answers
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled only when the tracer is enabled
  parhop::util::Json info = parhop::util::Json::object();  ///< counts, stamps
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Client threads of the readers and the baselines: two (one when nproc
/// is 1), beside the writer thread in road-update.
std::size_t reader_count(const RunConfig& cfg);

/// Runs one workload. Throws std::invalid_argument on an unknown workload.
RunResult run_workload(const RunConfig& cfg, Tracer& tracer);

}  // namespace perfbench
