#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using gstored::Binding;
using gstored::kNullTerm;
using gstored::QEdgeId;
using gstored::QueryEdge;
using gstored::QueryGraph;
using gstored::TermId;

BgpOracle::BgpOracle(const gstored::Dataset& dataset) : dict_(dataset.dict()) {
  for (const gstored::Triple& t : dataset.graph().triples()) {
    PredIndex& index = by_pred_[t.predicate];
    index.so.emplace_back(t.subject, t.object);
    index.os.emplace_back(t.object, t.subject);
  }
  for (auto& [pred, index] : by_pred_) {
    for (std::vector<Pair>* pairs : {&index.so, &index.os}) {
      std::sort(pairs->begin(), pairs->end());
      pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
    }
  }
}

bool BgpOracle::HasTriple(TermId s, TermId p, TermId o) const {
  auto it = by_pred_.find(p);
  return it != by_pred_.end() &&
         std::binary_search(it->second.so.begin(), it->second.so.end(),
                            Pair{s, o});
}

std::vector<Binding> BgpOracle::Evaluate(const QueryGraph& query) const {
  const size_t n = query.num_vertices();
  // Constants start bound; a constant missing from the dictionary has no
  // triple, so the answer is empty.
  Binding seed(n, kNullTerm);
  for (size_t v = 0; v < n; ++v) {
    if (query.vertex(v).is_variable) continue;
    seed[v] = dict_.Lookup(query.vertex(v).label);
    if (seed[v] == kNullTerm) return {};
  }
  std::vector<TermId> pred(query.num_edges());
  for (QEdgeId e = 0; e < query.num_edges(); ++e) {
    if (query.edge(e).pred_is_variable) {
      std::fprintf(stderr, "oracle: variable predicates are not supported\n");
      std::exit(2);
    }
    pred[e] = dict_.Lookup(query.edge(e).pred_label);
    if (pred[e] == kNullTerm || !by_pred_.count(pred[e])) return {};
  }

  std::vector<Binding> rows{seed};
  std::vector<bool> bound(n, false);
  for (size_t v = 0; v < n; ++v) bound[v] = seed[v] != kNullTerm;
  std::vector<bool> done(query.num_edges(), false);

  for (size_t step = 0; step < query.num_edges() && !rows.empty(); ++step) {
    // Next pattern: most bound endpoints first, then the fewest triples.
    QEdgeId best = 0;
    int best_bound = -1;
    size_t best_size = 0;
    for (QEdgeId e = 0; e < query.num_edges(); ++e) {
      if (done[e]) continue;
      const QueryEdge& edge = query.edge(e);
      const int nb = int{bound[edge.from]} + int{bound[edge.to]};
      const size_t size = by_pred_.at(pred[e]).so.size();
      if (nb > best_bound || (nb == best_bound && size < best_size)) {
        best = e;
        best_bound = nb;
        best_size = size;
      }
    }
    done[best] = true;
    const QueryEdge& edge = query.edge(best);
    const PredIndex& index = by_pred_.at(pred[best]);
    const gstored::QVertexId s = edge.from;
    const gstored::QVertexId o = edge.to;

    std::vector<Binding> next;
    if (bound[s] && bound[o]) {
      for (Binding& row : rows) {
        if (std::binary_search(index.so.begin(), index.so.end(),
                               Pair{row[s], row[o]})) {
          next.push_back(std::move(row));
        }
      }
    } else if (bound[s] || bound[o]) {
      // Range join on the bound endpoint.
      const bool from_subject = bound[s];
      const std::vector<Pair>& pairs = from_subject ? index.so : index.os;
      const size_t key_vertex = from_subject ? s : o;
      const size_t free_vertex = from_subject ? o : s;
      for (const Binding& row : rows) {
        const TermId key = row[key_vertex];
        auto it = std::lower_bound(pairs.begin(), pairs.end(), Pair{key, 0});
        for (; it != pairs.end() && it->first == key; ++it) {
          Binding extended = row;
          extended[free_vertex] = it->second;
          next.push_back(std::move(extended));
        }
      }
    } else {
      for (const Binding& row : rows) {
        for (const Pair& p : index.so) {
          if (s == o && p.first != p.second) continue;
          Binding extended = row;
          extended[s] = p.first;
          extended[o] = p.second;
          next.push_back(std::move(extended));
        }
      }
    }
    rows = std::move(next);
    bound[s] = bound[o] = true;
  }
  for (const Binding& row : rows) {
    if (std::find(row.begin(), row.end(), kNullTerm) != row.end()) {
      std::fprintf(stderr, "oracle: query graph is not connected\n");
      std::exit(2);
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

bool BgpOracle::Satisfies(const QueryGraph& query, const Binding& binding) const {
  if (binding.size() != query.num_vertices()) return false;
  for (size_t v = 0; v < query.num_vertices(); ++v) {
    if (!query.vertex(v).is_variable &&
        dict_.Lookup(query.vertex(v).label) != binding[v]) {
      return false;
    }
  }
  for (const QueryEdge& edge : query.edges()) {
    const TermId p = dict_.Lookup(edge.pred_label);
    if (!HasTriple(binding[edge.from], p, binding[edge.to])) return false;
  }
  return true;
}

std::string CheckMatches(const BgpOracle& oracle, const QueryGraph& query,
                         const std::vector<Binding>& matches,
                         const std::vector<Binding>& expected) {
  std::vector<Binding> sorted;
  const std::vector<Binding>* view = &matches;
  if (!std::is_sorted(matches.begin(), matches.end())) {
    sorted = matches;
    std::sort(sorted.begin(), sorted.end());
    view = &sorted;
  }
  if (std::adjacent_find(view->begin(), view->end()) != view->end()) {
    return "a binding is returned twice";
  }
  for (const Binding& b : *view) {
    if (!oracle.Satisfies(query, b)) return "a binding violates a pattern";
  }
  if (*view != expected) {
    return "answer has " + std::to_string(view->size()) + " rows, oracle has " +
           std::to_string(expected.size());
  }
  return "";
}

}  // namespace perfbench
