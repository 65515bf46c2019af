// The benchmark's one command: runs a named workload on the Table I set-up
// from a seed, checks every answer against its own oracle, and prints one
// JSON line. `--trace 0` times the end-to-end metrics; `--trace 1` replays
// the queries through the layers' public functions and prints per-layer
// metrics. See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "oracle.h"
#include "replay.h"
#include "serve/scheduler.h"
#include "sparql/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Taken before main: set-up time counts from here.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

double CpuMillis() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB
}

/// Cores this process may run on, at most the machine's.
size_t UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cores = std::max(1u, std::thread::hardware_concurrency());
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cores = std::min<size_t>(cores, std::max(1, CPU_COUNT(&set)));
  }
  return cores;
}

/// Nearest-rank percentile of an unsorted sample (0 when it is empty).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/// Everything one timed phase observed.
struct Tally {
  std::vector<double> latency_ms;
  std::vector<std::string> template_of;  ///< per latency sample
  size_t attempted = 0;
  size_t failed = 0;
  double shipped_bytes = 0;
  std::string fault;  ///< first wrong answer, empty when all were right
  /// Served queries the engine executed: its own time, and the rest of the
  /// ticket's latency (queueing and dispatch).
  std::vector<double> engine_ms;
  std::vector<double> queue_ms;

  void Merge(Tally&& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    template_of.insert(template_of.end(), other.template_of.begin(),
                       other.template_of.end());
    attempted += other.attempted;
    failed += other.failed;
    shipped_bytes += other.shipped_bytes;
    if (fault.empty()) fault = std::move(other.fault);
    engine_ms.insert(engine_ms.end(), other.engine_ms.begin(),
                     other.engine_ms.end());
    queue_ms.insert(queue_ms.end(), other.queue_ms.begin(),
                    other.queue_ms.end());
  }
};

/// Counts one outcome and checks it. A failure is a non-exact or cancelled
/// outcome; a wrong answer on a non-failed outcome marks the run incorrect.
void Record(const BgpOracle& oracle, const Instance& instance,
            const gstored::QueryGraph& query,
            const gstored::QueryOutcome& outcome, double latency_ms,
            double shipped_bytes, Tally* tally) {
  ++tally->attempted;
  if (!outcome.exact || outcome.stats.cancelled) {
    ++tally->failed;
    return;
  }
  tally->latency_ms.push_back(latency_ms);
  tally->template_of.push_back(instance.name);
  tally->shipped_bytes += shipped_bytes;
  if (!tally->fault.empty()) return;
  const std::string fault =
      CheckMatches(oracle, query, outcome.matches, instance.expected);
  if (!fault.empty()) tally->fault = instance.name + ": " + fault;
}

double ShippedBytes(const gstored::QueryStats& stats) {
  if (stats.result_cache_hit || stats.coalesced_hit) return 0;
  return static_cast<double>(stats.candidate_shipment_bytes +
                             stats.lec_shipment_bytes +
                             stats.lpm_shipment_bytes);
}

/// One closed-loop client on the bare engine. Selective workloads send
/// SPARQL text, parsed on arrival; the complex workload sends the graph.
void RunBareQuery(const Deployment& d, const Stream& stream, uint32_t index,
                  bool send_text, const BgpOracle& oracle, Tally* tally) {
  const Instance& instance = stream.instances[index];
  const auto start = Clock::now();
  gstored::QueryGraph parsed;
  const gstored::QueryGraph* query = &instance.query;
  if (send_text) {
    gstored::Result<gstored::QueryGraph> result =
        gstored::ParseSparql(instance.sparql);
    if (!result.ok()) {
      ++tally->attempted;
      ++tally->failed;
      return;
    }
    parsed = std::move(result).value();
    query = &parsed;
  }
  // A session per query, as the engine documents for callers that bring
  // their own: the built-in one keeps every broadcast in its site mailboxes,
  // so the process would grow with the number of queries run.
  gstored::QuerySession session(d.engine->num_sites());
  gstored::QueryContext context;
  context.ledger = &session.ledger;
  context.transport = &session.transport;
  const gstored::QueryOutcome outcome = d.engine->Run(
      gstored::QueryRequest(*query, gstored::EngineMode::kFull, context));
  const double latency = MillisSince(start);
  Record(oracle, instance, *query, outcome, latency,
         static_cast<double>(session.ledger.TotalBytes()), tally);
}

/// Submits one entry to the serving engine, parsing its text first.
void ServeQuery(gstored::serve::ServingEngine& server, const Instance& instance,
                int lane, const BgpOracle& oracle, Tally* tally) {
  const auto start = Clock::now();
  gstored::Result<gstored::QueryGraph> parsed =
      gstored::ParseSparql(instance.sparql);
  if (!parsed.ok()) {
    ++tally->attempted;
    ++tally->failed;
    return;
  }
  gstored::serve::SubmitOptions submit;
  submit.lane = lane;
  auto ticket = server.Submit(parsed.value(), submit);
  const gstored::QueryOutcome& outcome = ticket->Wait();
  const double latency = MillisSince(start);
  const gstored::QueryStats& stats = outcome.stats;
  if (!stats.result_cache_hit && !stats.coalesced_hit) {
    tally->engine_ms.push_back(stats.total_time_ms);
    tally->queue_ms.push_back(ticket->latency_ms() - stats.total_time_ms);
  }
  Record(oracle, instance, parsed.value(), outcome, latency,
         ShippedBytes(stats), tally);
}

/// What one PlayRounds call observed.
struct Phase {
  Tally tally;
  size_t rounds = 0;
  double wall_s = 0;
  double cpu_ms = 0;
};

/// `clients` closed-loop clients playing whole rounds of the stream: each
/// takes the next entry when its previous query is done, with no pause
/// between rounds. No round starts once `seconds` have passed and at least
/// `min_queries` were sent, so `seconds` = 0 plays exactly one round.
Phase PlayRounds(const Stream& stream, size_t clients, double seconds,
                 size_t min_queries,
                 const std::function<void(size_t client, uint32_t index,
                                          Tally* tally)>& send) {
  const size_t round = stream.round.size();
  std::mutex mu;
  size_t next = 0;  // guarded by mu
  bool stop = false;  // guarded by mu
  Phase phase;
  const double cpu_before = CpuMillis();
  const auto start = Clock::now();
  auto take = [&](uint32_t* index) {
    std::lock_guard<std::mutex> lock(mu);
    if (!stop && next > 0 && next % round == 0) {
      stop = SecondsSince(start) >= seconds && next >= min_queries;
    }
    if (stop) return false;
    *index = stream.round[next++ % round];
    return true;
  };
  std::vector<Tally> tallies(clients);
  auto client_loop = [&](size_t client) {
    for (uint32_t index; take(&index);) send(client, index, &tallies[client]);
  };
  if (clients == 1) {
    client_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
    for (std::thread& t : threads) t.join();
  }
  phase.wall_s = SecondsSince(start);
  phase.cpu_ms = CpuMillis() - cpu_before;
  phase.rounds = next / round;
  for (Tally& t : tallies) phase.tally.Merge(std::move(t));
  return phase;
}

// A run times whole rounds until both limits are met; p90 needs at least
// ten samples beyond it.
constexpr size_t kMinTimedQueries = 100;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Where in the sorted latency sample each template's cluster lies, so the
/// README can say which cluster p50 and p90 fall in.
void ReportClusters(const Tally& tally) {
  std::vector<size_t> order(tally.latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return tally.latency_ms[a] < tally.latency_ms[b];
  });
  std::map<std::string, std::pair<size_t, size_t>> span;  // first, last rank
  std::map<std::string, std::vector<double>> per_template;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const std::string& name = tally.template_of[order[rank]];
    span.try_emplace(name, rank, rank).first->second.second = rank;
    per_template[name].push_back(tally.latency_ms[order[rank]]);
  }
  const double n = static_cast<double>(order.size());
  for (const auto& [name, range] : span) {
    const std::vector<double>& v = per_template[name];
    std::fprintf(stderr,
                 "  %s: %zu samples, ranks %.3f-%.3f, median %.3f ms, "
                 "min %.3f, max %.3f\n",
                 name.c_str(), v.size(), range.first / n, (range.second + 1) / n,
                 v[v.size() / 2], v.front(), v.back());
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = std::atoi(value.c_str());
    else if (flag == "--out") args->out = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int RunTimed(WorkloadKind kind, const Args& args, const Deployment& d,
             const Stream& stream, const BgpOracle& oracle,
             gstored::serve::ServingEngine* server, size_t lanes,
             double setup_s) {
  auto send = [&](size_t client, uint32_t index, Tally* tally) {
    if (server != nullptr) {
      ServeQuery(*server, stream.instances[index], static_cast<int>(client),
                 oracle, tally);
    } else {
      RunBareQuery(d, stream, index, kind == WorkloadKind::kSelectiveLookup,
                   oracle, tally);
    }
  };
  // Untimed warm-up: one whole round (fills the pool, allocator arenas and,
  // when served, the caches' steady state).
  const Phase warmup = PlayRounds(stream, lanes, 0, 0, send);
  const Phase timed =
      PlayRounds(stream, lanes, args.seconds, kMinTimedQueries, send);

  const std::string& fault =
      !warmup.tally.fault.empty() ? warmup.tally.fault : timed.tally.fault;
  if (!fault.empty()) std::fprintf(stderr, "wrong answer: %s\n", fault.c_str());
  const std::vector<double>& latency = timed.tally.latency_ms;
  const double done = static_cast<double>(latency.size());
  std::fprintf(stderr, "%zu rounds, %zu queries in %.3f s\n", timed.rounds,
               latency.size(), timed.wall_s);
  ReportClusters(timed.tally);
  PrintResult(fault.empty(), timed.tally.attempted, timed.tally.failed,
              {{"setup_s", setup_s, "s"},
               {"qps", done / timed.wall_s, "queries/s"},
               {"latency_p50_ms", Percentile(latency, 0.5), "ms"},
               {"latency_p90_ms", Percentile(latency, 0.9), "ms"},
               {"cpu_ms_per_query", timed.cpu_ms / done, "ms"},
               {"shipped_kb_per_query",
                timed.tally.shipped_bytes / 1024.0 / done, "KB"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return fault.empty() ? 0 : 1;
}

int RunTraced(WorkloadKind kind, const Args& args, const Deployment& d,
              const Stream& stream, const BgpOracle& oracle, size_t lanes) {
  // Phase 1: replay whole rounds through the layers' public functions.
  Tracer tracer;
  ReplayCounters counters;
  std::string fault;
  size_t attempted = 0;
  const double half = args.seconds / 2;
  auto start = Clock::now();
  uint32_t query_id = 0;
  do {
    for (uint32_t index : stream.round) {
      ++attempted;
      std::string f = ReplayQuery(d, stream.instances[index], oracle,
                                  query_id++, &tracer, &counters);
      if (!f.empty() && fault.empty()) {
        fault = stream.instances[index].name + ": " + f;
      }
    }
  } while (SecondsSince(start) < half);
  const double replay_wall_ms = MillisSince(start);

  // Phase 2 (served_mix only; the other workloads run no serving layer and
  // report its metrics as 0): the stream through the serving engine.
  gstored::serve::ServingEngine::Counters before, after;
  Tally served;
  if (kind == WorkloadKind::kServedMix) {
    gstored::serve::ServingEngine server(d.engine.get());
    auto send = [&](size_t client, uint32_t index, Tally* tally) {
      ServeQuery(server, stream.instances[index], static_cast<int>(client),
                 oracle, tally);
    };
    PlayRounds(stream, lanes, 0, 0, send);  // warm-up
    before = server.counters();
    served = PlayRounds(stream, lanes, half, 0, send).tally;
    after = server.counters();
  }
  if (fault.empty() && !served.fault.empty()) fault = served.fault;
  attempted += served.attempted;

  // Aggregate span self times by layer.
  const std::vector<double> self = tracer.SelfMillis();
  std::map<std::string, double> layer_ms;
  std::map<std::pair<uint32_t, int32_t>, double> site_pe_ms;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    layer_ms[s.name] += self[i];
    if (s.name == "partial_eval") site_pe_ms[{s.query, s.site}] += self[i];
  }
  std::map<uint32_t, double> max_site;
  for (const auto& [key, ms] : site_pe_ms) {
    max_site[key.first] = std::max(max_site[key.first], ms);
  }
  double max_site_sum = 0;
  for (const auto& [q, ms] : max_site) max_site_sum += ms;

  const double q = static_cast<double>(std::max<size_t>(1, counters.queries));
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double submitted = static_cast<double>(served.attempted);
  const double plan_lookups = static_cast<double>(
      after.plan_hits - before.plan_hits + after.plan_misses - before.plan_misses);

  const std::string trace_path = args.out + "/trace-" + args.workload + "-" +
                                 std::to_string(args.seed) + ".json";
  if (!tracer.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "replayed %zu queries in %.1f ms (%.3f ms/query traced, "
               "%.3f ms/query on the engine); spans in %s\n",
               counters.queries, replay_wall_ms, replay_wall_ms / q,
               counters.run_ms / q, trace_path.c_str());
  if (!fault.empty()) std::fprintf(stderr, "fault: %s\n", fault.c_str());

  PrintResult(
      fault.empty(), attempted, served.failed,
      {{"workload.generate_ms", d.generate_ms, "ms"},
       {"partition.partition_ms", d.partition_ms, "ms"},
       {"store.build_ms", d.build_ms, "ms"},
       {"sparql.parse_us", layer_ms["sparql.parse"] * 1e3 / q, "us/query"},
       {"plan.order_us", layer_ms["plan.order"] * 1e3 / q, "us/query"},
       {"plan.actual_nodes", counters.actual_nodes / q, "nodes/query"},
       {"plan.estimate_error", counters.estimate_error / q, "abs_log_ratio"},
       {"exchange.ms", layer_ms["exchange"] / q, "ms/query"},
       {"exchange.kb", counters.exchange_bytes / 1024.0 / q, "KB/query"},
       {"partial_eval.max_site_ms", max_site_sum / q, "ms/query"},
       {"partial_eval.sum_site_ms", layer_ms["partial_eval"] / q, "ms/query"},
       {"partial_eval.lpms", counters.lpms / q, "LPMs/query"},
       {"lec_features.ms", layer_ms["lec_features"] / q, "ms/query"},
       {"lec_features.features_per_lpm", ratio(counters.features, counters.lpms),
        "ratio"},
       {"pruning.ms", layer_ms["pruning"] / q, "ms/query"},
       {"pruning.join_attempts", counters.prune_join_attempts / q, "joins/query"},
       {"pruning.groups", counters.prune_groups / q, "groups/query"},
       {"pruning.survivor_share",
        ratio(counters.surviving_features, counters.features), "ratio"},
       {"assembly.ms", layer_ms["assembly"] / q, "ms/query"},
       {"assembly.join_attempts", counters.assembly_join_attempts / q,
        "joins/query"},
       {"net.overhead_ms", (counters.run_ms - counters.blocking_ms) / q,
        "ms/query"},
       {"net.sys_cpu_ms", counters.sys_cpu_ms / q, "ms/query"},
       {"net.codec_ms", layer_ms["net.codec"] / q, "ms/query"},
       {"serve.engine_ms", mean(served.engine_ms), "ms/query"},
       {"serve.queue_wait_ms", mean(served.queue_ms), "ms/query"},
       {"serve.executed_share",
        ratio(static_cast<double>(after.executed - before.executed), submitted),
        "ratio"},
       {"serve.result_hit_share",
        ratio(static_cast<double>(after.result_hits - before.result_hits),
              submitted),
        "ratio"},
       {"serve.plan_hit_share",
        ratio(static_cast<double>(after.plan_hits - before.plan_hits),
              plan_lookups),
        "ratio"}});
  return fault.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  const std::optional<WorkloadKind> kind = ParseWorkloadName(args.workload);
  if (!kind) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t cores = UsableCores();

  // ---- Set-up: everything before the first query can run.
  Deployment d = Deploy(cores);
  std::unique_ptr<gstored::serve::ServingEngine> server;
  if (*kind == WorkloadKind::kServedMix && args.trace == 0) {
    server = std::make_unique<gstored::serve::ServingEngine>(d.engine.get());
  }
  const double setup_s = SecondsSince(kProcessStart);
  std::fprintf(stderr,
               "set-up %.3f s (generate %.1f ms, partition %.1f ms, build "
               "%.1f ms), %zu triples, %d sites, %zu slots\n",
               setup_s, d.generate_ms, d.partition_ms, d.build_ms,
               d.workload.dataset->graph().num_triples(), kNumSites, cores);

  // ---- Inputs and their answers (untimed).
  Stream stream = MakeStream(*kind, d.workload, args.seed);
  const BgpOracle oracle(*d.workload.dataset);
  for (Instance& instance : stream.instances) {
    instance.expected = oracle.Evaluate(instance.query);
  }
  const size_t lanes = *kind == WorkloadKind::kServedMix ? cores : 1;
  std::fprintf(stderr, "%zu distinct instances, %zu queries per round, %zu lanes\n",
               stream.instances.size(), stream.round.size(), lanes);

  if (args.trace != 0) return RunTraced(*kind, args, d, stream, oracle, lanes);
  return RunTimed(*kind, args, d, stream, oracle, server.get(), lanes, setup_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
