// nwhy/algorithms/toplex.hpp
//
// Toplex computation (paper Algorithm 3): a toplex is a maximal hyperedge —
// one contained in no other hyperedge.  Our parallel formulation avoids the
// shared mutable candidate set of the paper's pseudocode by making the
// dominance test symmetric and race-free: hyperedge e is *dominated* iff
// there exists f != e with e ⊆ f and (|f| > |e|, or |f| == |e| and f has the
// smaller id).  The tie-break keeps exactly one representative of each
// family of duplicate hyperedges, matching the sequential algorithm's
// output.  Each hyperedge is tested independently (embarrassingly
// parallel).  Every superset of e contains e's rarest member v (the member
// of lowest hypernode degree), so the only candidates are the hyperedges
// incident on v; each is checked with a sorted merge that stops at the
// first member of e it lacks.
#pragma once

#include <limits>
#include <vector>

#include "nwgraph/concepts.hpp"
#include "nwobs/counters.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// Whether non-empty hyperedge `e` is dominated: some f != e has e ⊆ f and
/// wins the size/id tie-break.  Generic over CSR-like structures exposing
/// `degree(u)` and `operator[](u)` over sorted rows.  Each merge
/// re-fetches e's row right before f's, so at most two rows of
/// `hyperedges` are live at once — within `compressed_adjacency`'s
/// row-cache lifetime contract.  Precondition: `e` is non-empty; empty
/// hyperedges follow the caller's convention (see `toplexes`).
template <class EGraph, class NGraph>
bool is_dominated(const EGraph& hyperedges, const NGraph& hypernodes, vertex_id_t e) {
  using nw::graph::target;
  const std::size_t de = hyperedges.degree(e);

  vertex_id_t rare     = null_vertex<>;
  std::size_t rare_deg = std::numeric_limits<std::size_t>::max();
  for (auto&& ev : hyperedges[e]) {
    const std::size_t d = hypernodes.degree(target(ev));
    if (d < rare_deg) {
      rare     = target(ev);
      rare_deg = d;
    }
  }

  std::size_t checks = 0;  // candidates whose sorted merge actually ran
  bool        dom    = false;
  for (auto&& vf : hypernodes[rare]) {
    const vertex_id_t f  = target(vf);
    const std::size_t df = hyperedges.degree(f);
    if (f == e || df < de || (df == de && f > e)) continue;  // loses the tie-break
    ++checks;
    auto re = hyperedges[e];
    auto rf = hyperedges[f];
    auto it = rf.begin();
    dom     = true;
    for (auto&& ev : re) {  // e ⊆ f on sorted rows
      while (it != rf.end() && target(*it) < target(ev)) ++it;
      if (it == rf.end() || target(*it) != target(ev)) {
        dom = false;
        break;
      }
      ++it;
    }
    if (dom) break;
  }
  NWOBS_COUNT("toplex.dominance_checks", checks);
  // Candidates rejected by the tie-break, or left untested once a
  // dominator was found (hypernodes[rare] includes e itself).
  NWOBS_COUNT("toplex.dominance_checks_skipped", rare_deg - 1 - checks);
  return dom;
}

/// Ids of all toplexes of the hypergraph, ascending.  Generic over the
/// CSR-like structures (`biadjacency` pairs or block-decoding
/// `compressed_adjacency` views).
template <class EGraph, class NGraph>
std::vector<vertex_id_t> toplexes(const EGraph& hyperedges, const NGraph& hypernodes) {
  NWOBS_SCOPE_TIMER("toplex");
  const std::size_t ne = hyperedges.size();
  std::vector<char> dominated(ne, 0);

  // Empty hyperedges are contained in every non-empty one; among a family of
  // empty hyperedges only the smallest id can survive, and only if the
  // hypergraph has no non-empty hyperedge at all.
  bool        any_nonempty   = false;
  vertex_id_t first_empty_id = null_vertex<>;
  for (std::size_t i = 0; i < ne; ++i) {
    if (hyperedges.degree(i) > 0) {
      any_nonempty = true;
    } else if (first_empty_id == null_vertex<>) {
      first_empty_id = static_cast<vertex_id_t>(i);
    }
  }

  par::parallel_for(0, ne, [&](std::size_t i) {
    const auto e = static_cast<vertex_id_t>(i);
    if (hyperedges.degree(i) == 0) {
      dominated[i] = (any_nonempty || e != first_empty_id) ? 1 : 0;
    } else {
      dominated[i] = is_dominated(hyperedges, hypernodes, e) ? 1 : 0;
    }
  });

  std::vector<vertex_id_t> result;
  for (std::size_t i = 0; i < ne; ++i) {
    if (!dominated[i]) result.push_back(static_cast<vertex_id_t>(i));
  }
  return result;
}

}  // namespace nw::hypergraph
