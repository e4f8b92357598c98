// nwhy/slinegraph/implicit.hpp
//
// Implicit s-line-graph traversal: s-BFS and s-connected-components that
// never materialize L_s(H).  The s-neighborhood of a hyperedge is
// discovered on the fly by hashmap overlap counting — the same kernel the
// construction algorithms use, but the pairs are consumed immediately
// instead of stored.
//
// Why it exists: the clique-expansion/line-graph blow-up the paper
// discusses (Sec. III-B.3) applies to L_1 of dense hypergraphs too — on
// com-Orkut-sim, L_2(H) has 28M edges while the hypergraph has 300k
// incidences.  When only one traversal-shaped query is needed, the
// implicit route trades a constant-factor extra counting work (each
// adjacency is discovered from both endpoints) for zero line-graph memory.
// `bench_ablation_implicit` quantifies the crossover.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "nwhy/slinegraph/construction.hpp"
#include "nwpar/frontier.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/flat_hashmap.hpp"

namespace nw::hypergraph {

namespace detail {

/// Visit every s-neighbor of `ei` (all ej != ei with |ei ∩ ej| >= s).
template <class EGraph, class NGraph, class Fn>
void for_each_s_neighbor(const EGraph& edges, const NGraph& nodes,
                         const std::vector<std::size_t>& edge_degrees, std::size_t s,
                         vertex_id_t ei, counting_hashmap<>& overlap, Fn&& fn) {
  overlap.clear();
  for (auto&& ev : edges[ei]) {
    for (auto&& ve : nodes[target(ev)]) {
      vertex_id_t ej = target(ve);
      if (ej != ei && edge_degrees[ej] >= s) overlap.increment(ej);
    }
  }
  overlap.for_each([&](vertex_id_t ej, std::uint32_t n) {
    if (n >= s) fn(ej);
  });
}

/// The one implicit s-BFS level loop, shared by s-CC, s-BFS distances and
/// s-distance.  Floods from the members of `frontier`: each unlabeled
/// hyperedge first reached at depth `level` is labeled `label(level)`.
/// `cancel()` is polled once per frontier vertex.  Returns true as soon as
/// `dst` is labeled (leaving the frontiers mid-flood); pass null_vertex to
/// flood to exhaustion.  `next` and `maps` are keep-capacity scratch.
template <class EGraph, class NGraph, class Label, class Cancel>
bool s_flood(const EGraph& edges, const NGraph& nodes,
             const std::vector<std::size_t>& edge_degrees, std::size_t s,
             std::vector<vertex_id_t>& labels, Label label, vertex_id_t dst,
             par::frontier& frontier, par::frontier& next,
             par::per_thread<counting_hashmap<>>& maps, par::thread_pool& pool,
             Cancel& cancel) {
  std::atomic<bool> found{false};
  for (vertex_id_t level = 1; !frontier.empty(); ++level) {
    const auto&       ids = frontier.ids();
    const vertex_id_t tag = label(level);
    par::parallel_for(
        0, ids.size(),
        [&](unsigned tid, std::size_t i) {
          if (found.load(std::memory_order_relaxed)) return;
          cancel();
          for_each_s_neighbor(edges, nodes, edge_degrees, s, ids[i], maps.local(tid),
                              [&](vertex_id_t ej) {
                                if (atomic_load(labels[ej]) == null_vertex<> &&
                                    compare_and_swap(labels[ej], null_vertex<>, tag)) {
                                  if (ej == dst) found.store(true);
                                  next.emit(tid, ej);
                                }
                              });
        },
        par::blocked{}, pool);
    if (found.load()) return true;
    next.commit_sparse();
    frontier.swap(next);
  }
  return false;
}

/// s-BFS distances from `src`, null_vertex for unreached, stopping once
/// `dst` is reached.
template <class EGraph, class NGraph, class Cancel>
std::vector<vertex_id_t> s_bfs_from(const EGraph& edges, const NGraph& nodes,
                                    const std::vector<std::size_t>& edge_degrees, std::size_t s,
                                    vertex_id_t src, vertex_id_t dst, par::thread_pool& pool,
                                    Cancel& cancel) {
  std::vector<vertex_id_t> dist(edges.size(), null_vertex<>);
  dist[src] = 0;
  par::per_thread<counting_hashmap<>> maps(pool);
  par::frontier                       frontier(edges.size(), pool), next(edges.size(), pool);
  frontier.assign_single(src);
  s_flood(edges, nodes, edge_degrees, s, dist, std::identity{}, dst, frontier, next, maps, pool,
          cancel);
  return dist;
}

}  // namespace detail

/// s-connected components without materializing the line graph: BFS floods
/// from every still-unlabeled active hyperedge, each flood's frontier
/// expanding on `pool` (per-thread hashmaps, CAS label claims).  Inactive
/// hyperedges (fewer than s hypernodes) get null_vertex, matching
/// s_linegraph::s_connected_components.  `cancel()` is polled once per
/// frontier vertex and stops the floods by throwing.
template <class EGraph, class NGraph, class Cancel = par::no_cancel>
std::vector<vertex_id_t> s_connected_components_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, par::thread_pool& pool = par::thread_pool::default_pool(),
    Cancel cancel = {}) {
  const std::size_t        ne = edges.size();
  std::vector<vertex_id_t> comp(ne, null_vertex<>);
  par::per_thread<counting_hashmap<>> maps(pool);
  // One frontier pair for every flood: the par::frontier keeps its id
  // vector and per-thread emission buffers across levels *and* seeds, so
  // after the first flood reaches its high-water mark no level allocates.
  par::frontier frontier(ne, pool), next(ne, pool);
  for (std::size_t seed = 0; seed < ne; ++seed) {
    if (edge_degrees[seed] < s || comp[seed] != null_vertex<>) continue;
    const auto id = static_cast<vertex_id_t>(seed);
    comp[seed]    = id;
    frontier.assign_single(id);
    detail::s_flood(edges, nodes, edge_degrees, s, comp, [id](vertex_id_t) { return id; },
                    null_vertex<>, frontier, next, maps, pool, cancel);
  }
  return comp;
}

/// Distances from hyperedge `src` in the (never materialized) s-line
/// graph: the array nw::graph::bfs_distances(L_s(H), src) produces
/// (dist[src] = 0 even when `src` is inactive; null_vertex = unreached).
/// Throws std::out_of_range for an out-of-range `src`.  `cancel()` is
/// polled once per frontier vertex.
template <class EGraph, class NGraph, class Cancel = par::no_cancel>
std::vector<vertex_id_t> s_bfs_distances_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, vertex_id_t src, par::thread_pool& pool = par::thread_pool::default_pool(),
    Cancel cancel = {}) {
  if (src >= edge_degrees.size()) {
    throw std::out_of_range("s_bfs_distances_implicit: hyperedge id out of range");
  }
  return detail::s_bfs_from(edges, nodes, edge_degrees, s, src, null_vertex<>, pool, cancel);
}

/// s-distance between two hyperedges without materializing the line graph;
/// nullopt when unreachable (or either endpoint inactive or out of range,
/// even when src == dst).  The s_bfs_distances_implicit search, stopped
/// once `dst` is reached.
template <class EGraph, class NGraph, class Cancel = par::no_cancel>
std::optional<std::size_t> s_distance_implicit(
    const EGraph& edges, const NGraph& nodes, const std::vector<std::size_t>& edge_degrees,
    std::size_t s, vertex_id_t src, vertex_id_t dst,
    par::thread_pool& pool = par::thread_pool::default_pool(), Cancel cancel = {}) {
  if (src >= edge_degrees.size() || dst >= edge_degrees.size()) return std::nullopt;
  if (edge_degrees[src] < s || edge_degrees[dst] < s) return std::nullopt;
  if (src == dst) return 0;
  const auto dist = detail::s_bfs_from(edges, nodes, edge_degrees, s, src, dst, pool, cancel);
  if (dist[dst] == null_vertex<>) return std::nullopt;
  return static_cast<std::size_t>(dist[dst]);
}

/// Degree of a hyperedge in the (never-built) s-line graph.
template <class EGraph, class NGraph>
std::size_t s_degree_implicit(const EGraph& edges, const NGraph& nodes,
                              const std::vector<std::size_t>& edge_degrees, std::size_t s,
                              vertex_id_t ei) {
  if (edge_degrees[ei] < s) return 0;
  counting_hashmap<> overlap;
  std::size_t        degree = 0;
  detail::for_each_s_neighbor(edges, nodes, edge_degrees, s, ei, overlap,
                              [&](vertex_id_t) { ++degree; });
  return degree;
}

}  // namespace nw::hypergraph
