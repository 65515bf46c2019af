#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "partition/partitioning.h"
#include "workload/workload.h"

namespace perfbench {

enum class WorkloadKind { kTable1Complex, kSelectiveLookup, kServedMix };

std::optional<WorkloadKind> ParseWorkloadName(std::string_view name);

/// The Table I set-up: 24-university LUBM (generator seed 1) hash-partitioned
/// over 12 sites, and the engine over it. Each phase is timed on its own.
struct Deployment {
  gstored::Workload workload;
  std::unique_ptr<gstored::Partitioning> partitioning;
  std::unique_ptr<gstored::DistributedEngine> engine;
  double generate_ms = 0.0;
  double partition_ms = 0.0;
  double build_ms = 0.0;
};

inline constexpr int kLubmScale = 3;
inline constexpr int kNumSites = 12;

Deployment Deploy(size_t num_threads);

/// One distinct query instance: its template, the SPARQL text a client
/// sends, the parsed graph and the oracle's answer.
struct Instance {
  std::string name;  ///< template: "LQ1" ... "LQ7"
  std::string sparql;
  gstored::QueryGraph query;
  std::vector<gstored::Binding> expected;
};

/// A workload's inputs, all drawn from the stream seed: the distinct
/// instances and one round, the fixed sequence of instance indices every
/// timed pass repeats whole.
struct Stream {
  std::vector<Instance> instances;
  std::vector<uint32_t> round;
};

/// Builds the stream of `kind` for `seed`. Every template is checked against
/// the Table I query of the same name; a mismatch ends the process.
Stream MakeStream(WorkloadKind kind, const gstored::Workload& workload,
                  uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
