#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dataset.h"
#include "sparql/query_graph.h"
#include "store/matcher.h"

namespace perfbench {

/// The benchmark's own answer oracle: a join evaluator for basic graph
/// patterns over the dataset's raw triple list, indexed per predicate. It
/// shares no code with the engine's matcher, so a fault there cannot hide in
/// the check.
///
/// Bindings are full: one term per query vertex, constants bound to their
/// own id, exactly as the engine returns them. Only constant predicates are
/// supported, and two patterns over one vertex pair are evaluated under
/// plain BGP semantics (the LUBM queries have none).
class BgpOracle {
 public:
  explicit BgpOracle(const gstored::Dataset& dataset);

  /// Every full binding of `query` over the dataset, sorted and distinct.
  std::vector<gstored::Binding> Evaluate(const gstored::QueryGraph& query) const;

  /// True when every triple pattern of `query` holds under `binding`.
  bool Satisfies(const gstored::QueryGraph& query,
                 const gstored::Binding& binding) const;

 private:
  using Pair = std::pair<gstored::TermId, gstored::TermId>;

  bool HasTriple(gstored::TermId s, gstored::TermId p, gstored::TermId o) const;

  const gstored::TermDict& dict_;
  /// One predicate's triples, sorted both ways for range lookups.
  struct PredIndex {
    std::vector<Pair> so;  ///< (subject, object)
    std::vector<Pair> os;  ///< (object, subject)
  };
  std::unordered_map<gstored::TermId, PredIndex> by_pred_;
};

/// Compares one engine outcome's matches with the oracle's answer. Returns
/// an empty string when the matches equal `expected`, satisfy every pattern
/// and repeat no binding; otherwise a one-line description of the fault.
std::string CheckMatches(const BgpOracle& oracle,
                         const gstored::QueryGraph& query,
                         const std::vector<gstored::Binding>& matches,
                         const std::vector<gstored::Binding>& expected);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
