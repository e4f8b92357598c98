// nwgraph/algorithms/closeness.hpp
//
// BFS-based distance aggregates on unweighted graphs, parallel over
// sources: closeness centrality, harmonic closeness centrality, and
// eccentricity.  These back the s_closeness_centrality /
// s_harmonic_closeness_centrality / s_eccentricity metrics of Listing 5.
//
// Conventions (matching HyperNetX / networkx):
//  * closeness(v)  = (r - 1) / sum of distances to the r vertices reachable
//                    from v (0 if v is isolated); the "Wasserman & Faust"
//                    component-local definition.
//  * harmonic(v)   = sum over u != v of 1 / d(v, u), unreachable terms 0.
//  * eccentricity(v) = max distance to any reachable vertex.
#pragma once

#include <algorithm>
#include <vector>

#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/concepts.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"

namespace nw::graph {

namespace detail {

/// Serial BFS distances into a caller-provided buffer (reused across sources).
template <adjacency_list_graph Graph>
void bfs_distances_into(const Graph& g, vertex_id_t s, std::vector<vertex_id_t>& dist,
                        std::vector<vertex_id_t>& queue) {
  dist.assign(g.size(), null_vertex<>);
  queue.clear();
  dist[s] = 0;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    vertex_id_t u = queue[head];
    for (auto&& e : g[u]) {
      vertex_id_t v = target(e);
      if (dist[v] == null_vertex<>) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
}

}  // namespace detail

// Single-source folds of one BFS distance array (null_vertex = unreached).
// Every closeness / harmonic / eccentricity spelling — the sweeps below,
// s_linegraph's single-vertex overloads, the query server — uses these, so
// all agree to the last bit.

inline double closeness_from_distances(const std::vector<vertex_id_t>& dist) {
  double      total     = 0.0;
  std::size_t reachable = 0;
  for (auto d : dist) {
    if (d != null_vertex<> && d != 0) {
      total += static_cast<double>(d);
      ++reachable;
    }
  }
  return total > 0 ? static_cast<double>(reachable) / total : 0.0;
}

inline double harmonic_from_distances(const std::vector<vertex_id_t>& dist) {
  double total = 0.0;
  for (auto d : dist) {
    if (d != null_vertex<> && d != 0) total += 1.0 / static_cast<double>(d);
  }
  return total;
}

inline vertex_id_t eccentricity_from_distances(const std::vector<vertex_id_t>& dist) {
  vertex_id_t ecc = 0;
  for (auto d : dist) {
    if (d != null_vertex<>) ecc = std::max(ecc, d);
  }
  return ecc;
}

/// Closeness centrality of every vertex (component-local normalization).
template <adjacency_list_graph Graph>
std::vector<double> closeness_centrality(const Graph& g) {
  const std::size_t   n = g.size();
  std::vector<double> result(n, 0.0);
  struct ws {
    std::vector<vertex_id_t> dist, queue;
  };
  par::per_thread<ws> scratch;
  par::parallel_for(0, n, [&](unsigned tid, std::size_t s) {
    auto& w = scratch.local(tid);
    detail::bfs_distances_into(g, static_cast<vertex_id_t>(s), w.dist, w.queue);
    result[s] = closeness_from_distances(w.dist);
  });
  return result;
}

/// Harmonic closeness centrality of every vertex.
template <adjacency_list_graph Graph>
std::vector<double> harmonic_closeness_centrality(const Graph& g) {
  const std::size_t   n = g.size();
  std::vector<double> result(n, 0.0);
  struct ws {
    std::vector<vertex_id_t> dist, queue;
  };
  par::per_thread<ws> scratch;
  par::parallel_for(0, n, [&](unsigned tid, std::size_t s) {
    auto& w = scratch.local(tid);
    detail::bfs_distances_into(g, static_cast<vertex_id_t>(s), w.dist, w.queue);
    result[s] = harmonic_from_distances(w.dist);
  });
  return result;
}

/// Eccentricity of every vertex (max hop distance within its component).
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> eccentricity(const Graph& g) {
  const std::size_t        n = g.size();
  std::vector<vertex_id_t> result(n, 0);
  struct ws {
    std::vector<vertex_id_t> dist, queue;
  };
  par::per_thread<ws> scratch;
  par::parallel_for(0, n, [&](unsigned tid, std::size_t s) {
    auto& w = scratch.local(tid);
    detail::bfs_distances_into(g, static_cast<vertex_id_t>(s), w.dist, w.queue);
    result[s] = eccentricity_from_distances(w.dist);
  });
  return result;
}

}  // namespace nw::graph
