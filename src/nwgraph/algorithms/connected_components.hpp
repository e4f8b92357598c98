// nwgraph/algorithms/connected_components.hpp
//
// Parallel connected-components algorithms on undirected CSR graphs:
//
//   * label propagation  — min-label flooding until a fixed point
//                          (Orzan / Pregel-style; the HygraCC comparator and
//                          one of the AdjoinCC engines)
//   * Shiloach–Vishkin   — classic hook-and-shortcut PRAM algorithm
//   * Afforest           — Sutton et al.: link a few neighbors per vertex,
//                          sample to find the largest intermediate component,
//                          then finish everything else, skipping the giant
//                          component's edges (the main AdjoinCC engine)
//
// All return a component-label array where two vertices share a label iff
// they are connected.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "nwgraph/concepts.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/atomics.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/rng.hpp"

namespace nw::graph {

/// Min-label propagation.  Each round, every vertex adopts the minimum label
/// in its closed neighborhood; rounds repeat until no label changes.
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> cc_label_propagation(const Graph& g) {
  std::vector<vertex_id_t> labels(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) labels[v] = static_cast<vertex_id_t>(v);

  bool changed = true;
  while (changed) {
    changed = par::parallel_reduce(
        0, g.size(), false,
        [&](bool acc, std::size_t u) {
          vertex_id_t lu = atomic_load(labels[u]);
          for (auto&& e : g[u]) {
            vertex_id_t v  = target(e);
            vertex_id_t lv = atomic_load(labels[v]);
            if (lv < lu) {
              write_min(labels[u], lv);
              lu  = lv;
              acc = true;
            } else if (lu < lv) {
              // Push our smaller label to the neighbor as well; this halves
              // the number of rounds on path-like structures.
              if (write_min(labels[v], lu)) acc = true;
            }
          }
          return acc;
        },
        [](bool a, bool b) { return a || b; });
  }
  return labels;
}

namespace detail {

// Union-find over `comp` with the invariant comp[x] <= x: a link only ever
// hangs a higher root under a lower one, so no pointer chain can cycle and
// every component's root is its minimum vertex id.  Nothing compresses
// paths while links are in flight — a compressing find that writes a root
// it walked to earlier can raise a pointer that another thread has since
// lowered, forming a cycle every later find spins on.  Paths are flattened
// only by compress_all, between linking phases.

/// Follow parent pointers to the current root (read-only).
inline vertex_id_t find_root(const std::vector<vertex_id_t>& comp, vertex_id_t v) {
  for (vertex_id_t p = atomic_load(comp[v]); p != v; p = atomic_load(comp[v])) v = p;
  return v;
}

/// Union the components of `u` and `v` (GAPBS's Afforest `Link`, Sutton et
/// al. 2018): CAS the higher root to the lower one, re-reading the parents
/// and retrying when another thread moved either first.
inline void link_roots(std::vector<vertex_id_t>& comp, vertex_id_t u, vertex_id_t v) {
  vertex_id_t p1 = atomic_load(comp[u]);
  vertex_id_t p2 = atomic_load(comp[v]);
  while (p1 != p2) {
    const vertex_id_t high   = std::max(p1, p2);
    const vertex_id_t low    = std::min(p1, p2);
    const vertex_id_t p_high = atomic_load(comp[high]);
    // Done when `high` already hangs under `low` or we hang it there.
    if (p_high == low || (p_high == high && compare_and_swap(comp[high], high, low))) return;
    p1 = atomic_load(comp[atomic_load(comp[high])]);
    p2 = atomic_load(comp[low]);
  }
}

/// Flatten so every vertex points directly at its root.  Runs with no link
/// in flight; each vertex's slot is written only by its own iteration and
/// read by others, hence the atomic accesses.
inline void compress_all(std::vector<vertex_id_t>& comp) {
  par::parallel_for(0, comp.size(), [&](std::size_t v) {
    vertex_id_t p = atomic_load(comp[v]);
    for (vertex_id_t pp = atomic_load(comp[p]); p != pp; pp = atomic_load(comp[p])) {
      p = pp;
      atomic_store(comp[v], p);
    }
  });
}

}  // namespace detail

/// Shiloach–Vishkin style hook-and-shortcut over all edges.
template <adjacency_list_graph Graph>
std::vector<vertex_id_t> cc_shiloach_vishkin(const Graph& g) {
  std::vector<vertex_id_t> comp(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) comp[v] = static_cast<vertex_id_t>(v);
  par::parallel_for(0, g.size(), [&](std::size_t u) {
    for (auto&& e : g[u]) {
      detail::link_roots(comp, static_cast<vertex_id_t>(u), target(e));
    }
  });
  detail::compress_all(comp);
  return comp;
}

/// Afforest (Sutton, Ben-Nun, Barak 2018).  `neighbor_rounds` controls how
/// many leading neighbors each vertex links in the cheap first phase.
template <degree_enumerable_graph Graph>
std::vector<vertex_id_t> cc_afforest(const Graph& g, std::size_t neighbor_rounds = 2) {
  std::vector<vertex_id_t> comp(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) comp[v] = static_cast<vertex_id_t>(v);
  if (g.size() == 0) return comp;

  // Phase 1: subgraph sampling — link only the first `neighbor_rounds`
  // neighbors of every vertex.  This already coalesces the giant component.
  for (std::size_t round = 0; round < neighbor_rounds; ++round) {
    par::parallel_for(0, g.size(), [&](std::size_t u) {
      std::size_t skip = round;
      for (auto&& e : g[u]) {
        if (skip-- == 0) {
          detail::link_roots(comp, static_cast<vertex_id_t>(u), target(e));
          break;
        }
      }
    });
  }
  detail::compress_all(comp);

  // Identify the most frequent intermediate component by sampling.
  vertex_id_t giant = [&] {
    xoshiro256ss                                 rng(0xAFF03357u);
    std::unordered_map<vertex_id_t, std::size_t> freq;
    const std::size_t samples = std::min<std::size_t>(1024, g.size());
    for (std::size_t i = 0; i < samples; ++i) {
      freq[comp[rng.bounded(g.size())]]++;
    }
    vertex_id_t best  = comp[0];
    std::size_t count = 0;
    for (auto& [label, c] : freq) {
      if (c > count) {
        count = c;
        best  = label;
      }
    }
    return best;
  }();

  // Phase 2: finish every vertex not already in the giant component,
  // linking its remaining neighbors.
  par::parallel_for(0, g.size(), [&](std::size_t u) {
    if (detail::find_root(comp, static_cast<vertex_id_t>(u)) == giant) return;
    std::size_t skip = neighbor_rounds;
    for (auto&& e : g[u]) {
      if (skip > 0) {
        --skip;
        continue;
      }
      detail::link_roots(comp, static_cast<vertex_id_t>(u), target(e));
    }
  });
  detail::compress_all(comp);
  return comp;
}

/// Number of distinct component labels.
inline std::size_t count_components(const std::vector<vertex_id_t>& labels) {
  std::vector<vertex_id_t> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// Size of the largest component.
inline std::size_t largest_component_size(const std::vector<vertex_id_t>& labels) {
  std::unordered_map<vertex_id_t, std::size_t> sizes;
  for (auto l : labels) sizes[l]++;
  std::size_t best = 0;
  for (auto& [l, s] : sizes) best = std::max(best, s);
  return best;
}

}  // namespace nw::graph
