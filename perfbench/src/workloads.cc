#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "partition/partitioners.h"
#include "sparql/parser.h"
#include "util/rng.h"
#include "workload/lubm.h"

namespace perfbench {
namespace {

using gstored::QueryGraph;
using gstored::TermId;

const std::string kOnt = "http://lubm.org/ont#";
std::string Ont(const char* local) { return "<" + kOnt + local + ">"; }

std::string TemplateText(const std::string& name, const std::string& anchor) {
  if (name == "LQ1") {
    return "SELECT ?x ?y ?z WHERE { ?x " + Ont("type") + " " +
           Ont("GraduateStudent") + " . ?x " + Ont("undergraduateDegreeFrom") +
           " ?y . ?x " + Ont("memberOf") + " ?z . ?z " +
           Ont("subOrganizationOf") + " ?y . }";
  }
  if (name == "LQ3") {
    return "SELECT ?s ?c WHERE { ?s " + Ont("advisor") + " " + anchor +
           " . ?s " + Ont("takesCourse") + " ?c . " + anchor + " " +
           Ont("teacherOf") + " ?c . }";
  }
  if (name == "LQ4") {
    return "SELECT ?x ?n ?e WHERE { ?x " + Ont("worksFor") + " " + anchor +
           " . ?x " + Ont("type") + " " + Ont("FullProfessor") + " . ?x " +
           Ont("name") + " ?n . ?x " + Ont("emailAddress") + " ?e . }";
  }
  if (name == "LQ5") {
    return "SELECT ?x ?n WHERE { ?x " + Ont("memberOf") + " " + anchor +
           " . ?x " + Ont("type") + " " + Ont("UndergraduateStudent") + " . }";
  }
  if (name == "LQ6") {
    return "SELECT ?x ?p ?c WHERE { ?x " + Ont("advisor") + " ?p . ?p " +
           Ont("doctoralDegreeFrom") + " <http://www.univ1.edu/univ> . ?x " +
           Ont("takesCourse") + " ?c . }";
  }
  if (name == "LQ7") {
    return "SELECT ?s ?c ?p ?d WHERE { ?s " + Ont("takesCourse") + " ?c . ?p " +
           Ont("teacherOf") + " ?c . ?s " + Ont("advisor") + " ?p . ?p " +
           Ont("worksFor") + " ?d . }";
  }
  std::fprintf(stderr, "unknown template %s\n", name.c_str());
  std::exit(2);
}

QueryGraph MustParse(const std::string& text) {
  gstored::Result<QueryGraph> parsed = gstored::ParseSparql(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

Instance MakeInstance(const std::string& name, const std::string& anchor) {
  Instance instance;
  instance.name = name;
  instance.sparql = TemplateText(name, anchor);
  instance.query = MustParse(instance.sparql);
  return instance;
}

/// The benchmark's templates must be the Table I queries: each is
/// instantiated at the anchor the generator's own query uses and compared.
void CheckTemplates(const gstored::Workload& workload) {
  const std::string prof0 = "<http://www.univ0.edu/dept0#FullProfessor0>";
  const std::string dept0 = "<http://www.univ0.edu/dept0#dept>";
  for (const gstored::BenchmarkQuery& q : workload.queries) {
    if (q.name == "LQ2") continue;  // not used by any workload
    const std::string anchor = q.name == "LQ3" ? prof0 : dept0;
    if (MustParse(TemplateText(q.name, anchor)).ToString() != q.query.ToString()) {
      std::fprintf(stderr, "template %s differs from the Table I query\n",
                   q.name.c_str());
      std::exit(2);
    }
  }
}

/// Subjects of `?x type <klass>` for each class, sorted by lexical form.
std::vector<std::string> InstancesOf(const gstored::Dataset& data,
                                     const std::vector<std::string>& classes) {
  const TermId type = data.dict().Lookup(Ont("type"));
  std::vector<TermId> wanted;
  for (const std::string& c : classes) wanted.push_back(data.dict().Lookup(c));
  std::vector<std::string> out;
  for (const gstored::Triple& t : data.graph().triples()) {
    if (t.predicate == type &&
        std::find(wanted.begin(), wanted.end(), t.object) != wanted.end()) {
      out.push_back(data.dict().lexical(t.subject));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* v, gstored::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// Draws `count` distinct anchors of `pool` (count <= pool size).
std::vector<std::string> Sample(std::vector<std::string> pool, size_t count,
                                gstored::Rng* rng) {
  Shuffle(&pool, rng);
  pool.resize(std::min(count, pool.size()));
  return pool;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---- Workload make-up (see README.md for why each number was chosen).

// table1_complex: one round of complex queries, weighted so the median falls
// inside LQ1's latency cluster and the p90 inside LQ7's.
struct ComplexMix {
  int lq6 = 3;
  int lq1 = 5;
  int lq7 = 2;
};

// selective_lookup: distinct instances per round, per template.
struct SelectiveMix {
  size_t lq3 = 160;
  size_t lq4 = 20;
  size_t lq5 = 20;
};

// served_mix: every professor and department once per round (the round is
// longer than the result cache, so no instance is still cached when the
// next round reaches it), one of each complex query, and exact repeats of
// an entry a few positions back.
struct ServedMix {
  size_t repeats = 40;
  size_t min_gap = 4;
  size_t max_gap = 32;
};

}  // namespace

std::optional<WorkloadKind> ParseWorkloadName(std::string_view name) {
  if (name == "table1_complex") return WorkloadKind::kTable1Complex;
  if (name == "selective_lookup") return WorkloadKind::kSelectiveLookup;
  if (name == "served_mix") return WorkloadKind::kServedMix;
  return std::nullopt;
}

Deployment Deploy(size_t num_threads) {
  Deployment d;
  auto start = std::chrono::steady_clock::now();
  d.workload = gstored::MakeLubmWorkload(gstored::LubmScale(kLubmScale));
  d.generate_ms = MillisSince(start);

  start = std::chrono::steady_clock::now();
  d.partitioning = std::make_unique<gstored::Partitioning>(
      gstored::HashPartitioner().Partition(*d.workload.dataset, kNumSites));
  d.partition_ms = MillisSince(start);

  start = std::chrono::steady_clock::now();
  gstored::EngineOptions options;
  options.num_threads = num_threads;
  d.engine = std::make_unique<gstored::DistributedEngine>(d.partitioning.get(),
                                                          options);
  d.build_ms = MillisSince(start);
  return d;
}

Stream MakeStream(WorkloadKind kind, const gstored::Workload& workload,
                  uint64_t seed) {
  CheckTemplates(workload);
  const gstored::Dataset& data = *workload.dataset;
  gstored::Rng rng(seed);
  Stream stream;
  auto add = [&](const std::string& name, const std::string& anchor) {
    stream.instances.push_back(MakeInstance(name, anchor));
    return static_cast<uint32_t>(stream.instances.size() - 1);
  };

  const std::vector<std::string> professors = InstancesOf(
      data, {Ont("FullProfessor"), Ont("AssociateProfessor")});
  const std::vector<std::string> departments =
      InstancesOf(data, {Ont("Department")});

  if (kind == WorkloadKind::kTable1Complex) {
    const ComplexMix mix;
    const uint32_t lq1 = add("LQ1", "");
    const uint32_t lq6 = add("LQ6", "");
    const uint32_t lq7 = add("LQ7", "");
    stream.round.insert(stream.round.end(), mix.lq1, lq1);
    stream.round.insert(stream.round.end(), mix.lq6, lq6);
    stream.round.insert(stream.round.end(), mix.lq7, lq7);
    Shuffle(&stream.round, &rng);
    return stream;
  }

  if (kind == WorkloadKind::kSelectiveLookup) {
    const SelectiveMix mix;
    for (const std::string& p : Sample(professors, mix.lq3, &rng)) {
      stream.round.push_back(add("LQ3", p));
    }
    for (const std::string& d : Sample(departments, mix.lq4, &rng)) {
      stream.round.push_back(add("LQ4", d));
    }
    for (const std::string& d : Sample(departments, mix.lq5, &rng)) {
      stream.round.push_back(add("LQ5", d));
    }
    Shuffle(&stream.round, &rng);
    return stream;
  }

  const ServedMix mix;
  for (const std::string& p : professors) stream.round.push_back(add("LQ3", p));
  for (const std::string& d : departments) {
    stream.round.push_back(add("LQ4", d));
    stream.round.push_back(add("LQ5", d));
  }
  for (const char* name : {"LQ1", "LQ6", "LQ7"}) {
    stream.round.push_back(add(name, ""));
  }
  Shuffle(&stream.round, &rng);
  // Exact repeats of selective entries: entry i is sent again `gap`
  // positions later.
  for (size_t r = 0; r < mix.repeats;) {
    const size_t gap = rng.UniformRange(mix.min_gap, mix.max_gap);
    const size_t from = rng.Uniform(stream.round.size() - gap);
    const uint32_t index = stream.round[from];
    const std::string& name = stream.instances[index].name;
    if (name != "LQ3" && name != "LQ4" && name != "LQ5") continue;
    stream.round.insert(stream.round.begin() + from + gap, index);
    ++r;
  }
  return stream;
}

}  // namespace perfbench
