#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "oracle.h"
#include "workloads.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans nest through a stack
/// (the replay is single-threaded), carry the query they belong to and,
/// for per-site stages, the site. Nothing is written until WriteChromeTrace.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
    uint32_t query = 0;
    int32_t site = -1;
  };

  int32_t Begin(std::string name, uint32_t query, int32_t site = -1);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its direct children cover, in ms.
  std::vector<double> SelfMillis() const;

  /// Writes every span as a Chrome trace-event JSON file (one "X" event
  /// each; Perfetto and chrome://tracing open it). Returns false on an I/O
  /// error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint32_t query, int32_t site = -1)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), query, site)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Work counts and engine-side figures summed over the replayed queries.
/// Stage times are not kept here: they come from the tracer's spans.
struct ReplayCounters {
  size_t queries = 0;
  double actual_nodes = 0;     ///< CountIntermediateResults, all sites
  double estimate_error = 0;   ///< per query: mean |ln((est+1)/(actual+1))|
  double exchange_bytes = 0;
  double lpms = 0;
  double features = 0;
  double surviving_features = 0;
  double prune_join_attempts = 0;
  double prune_groups = 0;
  double assembly_join_attempts = 0;
  double run_ms = 0;           ///< engine Run wall time
  double sys_cpu_ms = 0;       ///< process system CPU during Run
  double blocking_ms = 0;      ///< replayed stages on the blocking path
};

/// Replays one query through the layers' public functions in pipeline
/// order, then runs the same query on the engine. Checks the replay's
/// answer against the oracle, its LPM/feature/survivor/match counts and
/// exchange bytes against the engine's QueryStats, and the method's
/// properties (a star query ships nothing; kFull ships no more LPMs than it
/// enumerated). Returns an empty string, or a description of the first
/// fault.
std::string ReplayQuery(const Deployment& deployment, const Instance& instance,
                        const BgpOracle& oracle, uint32_t query_id,
                        Tracer* tracer, ReplayCounters* counters);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
