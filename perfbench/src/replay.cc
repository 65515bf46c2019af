#include "replay.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "core/group_schedule.h"
#include "net/wire.h"
#include "sparql/parser.h"

namespace perfbench {

using gstored::Binding;
using gstored::LecFeature;
using gstored::LocalPartialMatch;

int32_t Tracer::Begin(std::string name, uint32_t query, int32_t site) {
  Span span;
  span.name = std::move(name);
  span.query = query;
  span.site = site;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::SelfMillis() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[span.parent] -= static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"query\":%u,\"site\":%d}}%s\n",
                  s.name.c_str(), s.query, s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.query, s.site,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

double SysCpuMillis() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
}

std::string Mismatch(const char* what, size_t engine, size_t replay) {
  return std::string(what) + ": engine " + std::to_string(engine) +
         ", replay " + std::to_string(replay);
}

}  // namespace

std::string ReplayQuery(const Deployment& deployment, const Instance& instance,
                        const BgpOracle& oracle, uint32_t query_id,
                        Tracer* tracer, ReplayCounters* counters) {
  const gstored::DistributedEngine& engine = *deployment.engine;
  const gstored::Partitioning& partitioning = *deployment.partitioning;
  const gstored::EngineOptions& options = engine.options();
  const size_t num_sites = partitioning.num_fragments();
  const size_t num_threads = options.num_threads;
  const size_t first_span = tracer->spans().size();

  gstored::QueryGraph query;
  gstored::ResolvedQuery rq;
  std::vector<gstored::SitePlan> plans(num_sites);
  gstored::CandidateExchange exchange;
  std::vector<Binding> local;
  std::vector<Binding> answer;
  size_t num_lpms = 0;
  std::vector<LecFeature> all_features;
  gstored::PruneResult prune;
  std::vector<LocalPartialMatch> surviving;
  gstored::AssemblyStats assembly_stats;
  {
    ScopedSpan root(tracer, "query", query_id);
    {
      ScopedSpan span(tracer, "sparql.parse", query_id);
      gstored::Result<gstored::QueryGraph> parsed =
          gstored::ParseSparql(instance.sparql);
      if (!parsed.ok()) return "parse error: " + parsed.status().ToString();
      query = std::move(parsed).value();
    }
    const size_t n = query.num_vertices();
    const bool star = query.IsStar();
    {
      ScopedSpan span(tracer, "plan.order", query_id);
      rq = gstored::ResolveQuery(query, partitioning.dataset().dict());
    }
    for (size_t site = 0; site < num_sites; ++site) {
      ScopedSpan span(tracer, "plan.order", query_id, static_cast<int32_t>(site));
      plans[site] = gstored::PlanSiteMatchOrder(engine.store(site), rq,
                                                options.use_statistics,
                                                options.plan);
    }
    double error = 0;
    for (size_t site = 0; site < num_sites; ++site) {
      const double actual = static_cast<double>(gstored::CountIntermediateResults(
          engine.store(site), rq, plans[site].match_order));
      counters->actual_nodes += actual;
      error += std::fabs(std::log((plans[site].cost + 1) / (actual + 1)));
    }
    counters->estimate_error += error / static_cast<double>(num_sites);

    bool use_filter = false;
    if (!star) {
      std::vector<const gstored::LocalStore*> stores;
      for (size_t site = 0; site < num_sites; ++site) {
        stores.push_back(&engine.store(site));
      }
      gstored::QuerySession session(static_cast<int>(num_sites));
      gstored::CandidateExchangeOptions exchange_options;
      exchange_options.use_statistics = options.use_statistics;
      exchange_options.policy = options.MakeStagePolicy();
      ScopedSpan span(tracer, "exchange", query_id);
      exchange = gstored::ExchangeInternalCandidates(
          partitioning, stores, rq, session.transport, session.ledger,
          exchange_options);
      use_filter = !exchange.degraded;
    }
    counters->exchange_bytes += exchange.shipment_bytes;

    std::vector<std::vector<LocalPartialMatch>> site_lpms(num_sites);
    std::vector<gstored::LecFeatureSet> site_features(num_sites);
    for (size_t site = 0; site < num_sites; ++site) {
      const gstored::LocalStore& store = engine.store(site);
      const gstored::Fragment& fragment = partitioning.fragments()[site];
      const std::vector<gstored::QVertexId>& order = plans[site].match_order;
      {
        ScopedSpan span(tracer, "partial_eval", query_id,
                        static_cast<int32_t>(site));
        const size_t triples = fragment.graph().num_triples();
        const size_t slots =
            !rq.impossible && !order.empty()
                ? gstored::SiteSlotBudget(
                      triples, num_threads,
                      store.EstimateCandidates(rq, order.front()))
                : gstored::SiteSlotBudget(triples, num_threads);
        gstored::MatchOptions match_options;
        match_options.num_threads = slots;
        match_options.use_statistics = options.use_statistics;
        if (!order.empty()) match_options.precomputed_order = &order;
        std::vector<Binding> matches =
            gstored::MatchQuery(store, rq, match_options);
        local.insert(local.end(), matches.begin(), matches.end());
        if (!star) {
          gstored::EnumerateOptions enum_options;
          enum_options.num_threads = slots;
          enum_options.use_statistics = options.use_statistics;
          enum_options.unit_order_fn = [&](const gstored::IslandTask& task) {
            return gstored::PlanIslandUnitOrder(store, rq, task,
                                                options.use_statistics,
                                                options.plan);
          };
          if (use_filter && exchange.site_filter_ok[site]) {
            enum_options.extended_filter = [&](gstored::QVertexId v,
                                               gstored::TermId u) {
              if (!query.vertex(v).is_variable) return true;
              if (!exchange.exchanged[v]) return true;
              return exchange.filters[v].MayContain(u);
            };
          }
          site_lpms[site] = gstored::EnumerateLocalPartialMatches(
              fragment, store, rq, enum_options);
        }
      }
      if (!star) {
        ScopedSpan span(tracer, "lec_features", query_id,
                        static_cast<int32_t>(site));
        site_features[site] = gstored::ComputeLecFeatures(site_lpms[site]);
      }
      num_lpms += site_lpms[site].size();
    }
    gstored::DedupBindings(&local);
    answer = local;

    if (!star) {
      {
        ScopedSpan span(tracer, "net.codec", query_id);
        for (size_t site = 0; site < num_sites; ++site) {
          auto decoded = gstored::DecodeLecFeatureBatch(
              gstored::EncodeLecFeatureBatch(site_features[site].features));
          if (!decoded.ok()) return "feature batch does not decode";
          all_features.insert(all_features.end(), decoded.value().begin(),
                              decoded.value().end());
        }
      }
      {
        gstored::PruneOptions prune_options;
        prune_options.num_threads = num_threads;
        ScopedSpan span(tracer, "pruning", query_id);
        prune = gstored::LecFeaturePruning(all_features, n, prune_options);
      }
      {
        ScopedSpan span(tracer, "net.codec", query_id);
        size_t offset = 0;
        for (size_t site = 0; site < num_sites; ++site) {
          std::vector<LocalPartialMatch> to_ship;
          const std::vector<size_t>& feature_of =
              site_features[site].feature_of_lpm;
          for (size_t i = 0; i < site_lpms[site].size(); ++i) {
            if (prune.survives[offset + feature_of[i]]) {
              to_ship.push_back(site_lpms[site][i]);
            }
          }
          offset += site_features[site].features.size();
          const size_t batch = std::max<size_t>(1, options.lpm_batch_size);
          for (size_t first = 0; first < to_ship.size(); first += batch) {
            auto decoded = gstored::DecodeLpmBatch(gstored::EncodeLpmBatch(
                to_ship, first, std::min(batch, to_ship.size() - first)));
            if (!decoded.ok()) return "LPM batch does not decode";
            surviving.insert(surviving.end(), decoded.value().begin(),
                             decoded.value().end());
          }
        }
      }
      std::vector<Binding> crossing;
      {
        gstored::AssemblyOptions assembly_options;
        assembly_options.num_threads = num_threads;
        ScopedSpan span(tracer, "assembly", query_id);
        crossing = gstored::LecAssembly(surviving, n, assembly_options,
                                        &assembly_stats);
      }
      answer.insert(answer.end(), crossing.begin(), crossing.end());
      gstored::DedupBindings(&answer);
    }
  }

  // Stage times on the blocking path: serial stages plus the slowest site.
  std::map<int32_t, double> site_ms;
  double blocking = 0;
  for (size_t i = first_span; i < tracer->spans().size(); ++i) {
    const Tracer::Span& s = tracer->spans()[i];
    if (s.name == "query" || s.name == "sparql.parse") continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.site >= 0) site_ms[s.site] += ms;
    else blocking += ms;
  }
  double slowest = 0;
  for (const auto& [site, ms] : site_ms) slowest = std::max(slowest, ms);
  counters->blocking_ms += blocking + slowest;
  counters->lpms += static_cast<double>(num_lpms);
  counters->features += static_cast<double>(all_features.size());
  counters->surviving_features += static_cast<double>(prune.surviving_features);
  counters->prune_join_attempts += static_cast<double>(prune.join_attempts);
  counters->prune_groups += static_cast<double>(prune.num_groups);
  counters->assembly_join_attempts +=
      static_cast<double>(assembly_stats.join_attempts);
  ++counters->queries;

  std::string fault = CheckMatches(oracle, query, answer, instance.expected);
  if (!fault.empty()) return "replay " + fault;

  // The same query on the engine, untraced, over its own session (see
  // RunBareQuery in main.cc).
  gstored::QuerySession session(engine.num_sites());
  gstored::QueryContext context;
  context.ledger = &session.ledger;
  context.transport = &session.transport;
  const double sys_before = SysCpuMillis();
  const auto start = std::chrono::steady_clock::now();
  const gstored::QueryOutcome outcome = engine.Run(
      gstored::QueryRequest(query, gstored::EngineMode::kFull, context));
  counters->run_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  counters->sys_cpu_ms += SysCpuMillis() - sys_before;
  const gstored::QueryStats& stats = outcome.stats;
  const size_t shipped = session.ledger.TotalBytes();

  if (!outcome.exact || stats.cancelled) return "engine outcome is not exact";
  fault = CheckMatches(oracle, query, outcome.matches, instance.expected);
  if (!fault.empty()) return "engine " + fault;
  if (stats.num_lpms != num_lpms) {
    return Mismatch("LPMs", stats.num_lpms, num_lpms);
  }
  if (stats.num_features != all_features.size()) {
    return Mismatch("features", stats.num_features, all_features.size());
  }
  if (stats.num_surviving_features != prune.surviving_features) {
    return Mismatch("surviving features", stats.num_surviving_features,
                    prune.surviving_features);
  }
  if (stats.num_lpms_shipped != surviving.size()) {
    return Mismatch("LPMs shipped", stats.num_lpms_shipped, surviving.size());
  }
  if (stats.num_local_matches != local.size()) {
    return Mismatch("local matches", stats.num_local_matches, local.size());
  }
  if (stats.num_matches != answer.size()) {
    return Mismatch("matches", stats.num_matches, answer.size());
  }
  if (stats.candidate_shipment_bytes != exchange.shipment_bytes) {
    return Mismatch("exchange bytes", stats.candidate_shipment_bytes,
                    exchange.shipment_bytes);
  }
  if (query.IsStar() && shipped != 0) {
    return "star query shipped " + std::to_string(shipped) + " bytes";
  }
  if (stats.num_lpms_shipped > stats.num_lpms) {
    return Mismatch("kFull shipped more LPMs than it enumerated",
                    stats.num_lpms, stats.num_lpms_shipped);
  }
  if (shipped != stats.candidate_shipment_bytes + stats.lec_shipment_bytes +
                     stats.lpm_shipment_bytes) {
    return "ledger total differs from the per-stage shipment stats";
  }
  return "";
}

}  // namespace perfbench
