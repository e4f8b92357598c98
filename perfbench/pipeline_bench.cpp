// perfbench/pipeline_bench.cpp — the worker of the pipeline benchmark.
//
// It runs one workload through the pipeline
//
//   MatrixMarket text -> graph_reader -> NWHypergraph -> save_csr_snapshot
//   -> map_csr_snapshot -> s-line graph -> s-metrics -> point queries
//   -> answers served by an in-process nwhy_serve (open-loop readers plus a
//      mutation writer)
//
// and prints raw samples as JSON lines on stdout, flushed as each phase
// ends, so a parent that kills a hung worker still has what finished.
// perfbench/run.py builds this program, runs it, checks its answers against
// the `oracle` mode, and turns the samples into metrics.
// perfbench/LAYERS.md documents every workload and metric.
//
//   pipeline_bench oracle <workload> <seed>
//   pipeline_bench batch <workload> <seed> <seconds> <trace 0|1> <threads> <dir>
//   pipeline_bench serve <workload> <seed> <seconds> <trace 0|1> <threads> <dir>
//
// `batch` runs set-up, pipeline and point-query rounds; `serve` runs the
// serve window.  They are separate processes so that a hang in one (the
// parent kills it) does not cost the other's metrics.
//
// Tracing (trace = 1) records spans around the calls this file makes into
// each layer, with the nwobs counter/timer deltas of each span; nothing in
// src/ is instrumented for it.  Spans stay in memory and are written to
// <dir>/trace.json (Chrome trace-event format) when the part ends.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nwhy.hpp"

namespace {

namespace nh = nw::hypergraph;
namespace sv = nw::hypergraph::serve;
using nw::vertex_id_t;
using clk = std::chrono::steady_clock;

constexpr std::size_t   k_s           = 2;    ///< s of every s-metric and s-query
constexpr std::size_t   k_bc_samples  = 32;   ///< sources of the sampled betweenness
constexpr std::size_t   k_query_list  = 256;  ///< distinct queries per kind
constexpr std::uint64_t k_none        = ~std::uint64_t{0};
constexpr std::uint64_t k_fnv_basis   = 1469598103934665603ull;
constexpr std::uint64_t k_writer_rids = 1'000'000'000ull;  ///< writer batch ids

double now_s() { return std::chrono::duration<double>(clk::now().time_since_epoch()).count(); }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
/// Independent stream per purpose (dataset, queries, mix, writer) from one seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  return splitmix(splitmix(seed) ^ purpose);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest of a labelling that depends only on the partition it induces:
/// labels are renamed in order of first appearance; null stays null.
std::uint64_t partition_digest(const std::vector<vertex_id_t>& labels, std::size_t& classes) {
  std::unordered_map<vertex_id_t, std::uint64_t> rename;
  std::uint64_t                                  h = k_fnv_basis;
  for (vertex_id_t l : labels) {
    if (l == nw::null_vertex<>) {
      h = fnv(h, k_none);
      continue;
    }
    auto [it, fresh] = rename.try_emplace(l, rename.size());
    h                = fnv(h, it->second);
  }
  classes = rename.size();
  return h;
}

std::uint64_t bits_digest(const std::vector<double>& v) {
  std::uint64_t h = k_fnv_basis;
  for (double d : v) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    h = fnv(h, b);
  }
  return h;
}

std::uint64_t ids_digest(const std::vector<vertex_id_t>& v) {
  std::uint64_t h = k_fnv_basis;
  for (vertex_id_t x : v) h = fnv(h, x);
  return h;
}

// --- JSON-lines output -------------------------------------------------------

class line {
public:
  explicit line(const char* ev) { s_ = std::string("{\"ev\":\"") + ev + "\""; }
  line& num(const char* k, double v) {
    key(k);
    char b[40];
    std::snprintf(b, sizeof b, "%.9g", std::isfinite(v) ? v : -1.0);
    s_ += b;
    return *this;
  }
  line& u64(const char* k, std::uint64_t v) {
    key(k);
    s_ += std::to_string(v);
    return *this;
  }
  line& hex(const char* k, std::uint64_t v) {
    key(k);
    char b[24];
    std::snprintf(b, sizeof b, "\"%016" PRIx64 "\"", v);
    s_ += b;
    return *this;
  }
  line& str(const char* k, const std::string& v) {
    key(k);
    s_ += "\"" + v + "\"";
    return *this;
  }
  template <class T>
  line& list(const char* k, const std::vector<T>& v) {
    key(k);
    s_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s_ += ',';
      if constexpr (std::is_floating_point_v<T>) {
        char b[40];
        std::snprintf(b, sizeof b, "%.6g", v[i]);
        s_ += b;
      } else {
        s_ += std::to_string(v[i]);
      }
    }
    s_ += ']';
    return *this;
  }
  void emit() {
    s_ += "}\n";
    std::fwrite(s_.data(), 1, s_.size(), stdout);
    std::fflush(stdout);
  }

private:
  void key(const char* k) { s_ += std::string(",\"") + k + "\":"; }
  std::string s_;
};

// --- spans ---------------------------------------------------------------------

/// One closed span: a call into a layer, timed from this file.
struct span_rec {
  std::string                                  name;
  double                                       t0 = 0, t1 = 0;
  int                                          parent  = -1;
  std::uint64_t                                rid     = 0;
  unsigned                                     threads = 0;
  unsigned                                     tid     = 0;
  std::vector<std::pair<std::string, double>>  deltas;  ///< nwobs counter/timer changes
};

using obs_snapshot = std::map<std::string, double>;

obs_snapshot take_obs() {
  auto&        r = nw::obs::registry::get();
  obs_snapshot s;
  for (const auto& [k, v] : r.counters_snapshot()) s[k] = static_cast<double>(v);
  for (const auto& [k, t] : r.timers_snapshot()) s["timer:" + k] = t.total_ms;
  return s;
}

class tracer {
public:
  explicit tracer(bool on) : on_(on), origin_(now_s()) {}
  [[nodiscard]] bool on() const { return on_; }

  int open(const std::string& name, int parent, std::uint64_t rid) {
    std::lock_guard lock(mu_);
    span_rec r;
    r.name    = name;
    r.parent  = parent;
    r.rid     = rid;
    r.threads = nw::par::thread_pool::default_pool().concurrency();
    auto [it, fresh] = tids_.try_emplace(std::this_thread::get_id(),
                                         static_cast<unsigned>(tids_.size()));
    r.tid = it->second;
    spans_.push_back(std::move(r));
    return static_cast<int>(spans_.size() - 1);
  }
  /// Record a span whose times were taken elsewhere (serve requests are
  /// sent and answered on different threads).
  void add(const std::string& name, int parent, std::uint64_t rid, double t0, double t1) {
    const int id = open(name, parent, rid);
    close(id, t0, t1, {});
  }
  void close(int id, double t0, double t1, std::vector<std::pair<std::string, double>> deltas) {
    std::lock_guard lock(mu_);
    spans_[id].t0     = t0;
    spans_[id].t1     = t1;
    spans_[id].deltas = std::move(deltas);
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream   out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char        b[256];
      std::snprintf(b, sizeof b,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"rid\":%" PRIu64 ",\"threads\":%u",
                    s.name.c_str(), s.tid, (s.t0 - origin_) * 1e6, (s.t1 - s.t0) * 1e6, i,
                    s.parent, s.rid, s.threads);
      out << (i ? ",\n" : "") << b;
      for (const auto& [k, v] : s.deltas) out << ",\"" << k << "\":" << v;
      out << "}}";
    }
    out << "\n]}\n";
  }

  static thread_local int current;

private:
  bool                                            on_;
  double                                          origin_;
  mutable std::mutex                              mu_;
  std::vector<span_rec>                           spans_;
  std::unordered_map<std::thread::id, unsigned>   tids_;
};
thread_local int tracer::current = -1;

/// Times one call into a layer.  Always measures (the end-to-end metrics
/// use the same clock); records a span only when tracing is on.  Spans
/// opened on server-facing threads pass counters = false: the registry is
/// process-global, so its deltas there would blend concurrent requests.
class span {
public:
  span(tracer& t, std::string name, std::uint64_t rid = 0, bool counters = true,
       int parent = -2)
      : t_(t), counters_(counters && t.on()) {
    if (t_.on()) {
      id_           = t_.open(name, parent == -2 ? tracer::current : parent, rid);
      saved_parent_ = tracer::current;
      tracer::current = id_;
      if (counters_) before_ = take_obs();
    }
    t0_ = now_s();
  }
  ~span() { stop(); }
  span(const span&)            = delete;
  span& operator=(const span&) = delete;

  /// Close the span; returns its duration in seconds.
  double stop() {
    if (done_) return t1_ - t0_;
    done_ = true;
    t1_   = now_s();
    if (t_.on()) {
      std::vector<std::pair<std::string, double>> d;
      if (counters_) {
        for (const auto& [k, v] : take_obs()) {
          auto   it   = before_.find(k);
          double diff = v - (it == before_.end() ? 0.0 : it->second);
          if (diff != 0.0) d.emplace_back(k, diff);
        }
      }
      t_.close(id_, t0_, t1_, std::move(d));
      tracer::current = saved_parent_;
    }
    return t1_ - t0_;
  }
  [[nodiscard]] int id() const { return id_; }

private:
  tracer&      t_;
  bool         counters_;
  int          id_           = -1;
  int          saved_parent_ = -1;
  obs_snapshot before_;
  double       t0_ = 0, t1_ = 0;
  bool         done_ = false;
};

// --- workloads -------------------------------------------------------------------

struct workload {
  const char* name;
  nh::biedgelist<> (*make)(std::uint64_t seed);
  double serve_rate;       ///< offered load of the serve window, requests/s
  double writer_period_s;  ///< cadence of the mutation writer
};

nh::biedgelist<> make_skewed(std::uint64_t seed) {
  // The Friendster-sim shape of gen/dataset_suite.hpp: |V| >> |E|, Zipf
  // hypernode popularity, so the s=2 line graph is dense.
  return nh::gen::powerlaw_hypergraph(8000, 40000, 128, 1.2, 0.8, sub_seed(seed, 1));
}
nh::biedgelist<> make_uniform(std::uint64_t seed) {
  // The Rand1-sim shape: uniform random, 10 members per hyperedge, one
  // giant component, almost no s=2 overlaps.
  return nh::gen::uniform_random_hypergraph(100000, 100000, 10, sub_seed(seed, 1));
}

const workload k_workloads[] = {
    {"skewed", &make_skewed, 100.0, 1.0},
    {"uniform", &make_uniform, 100.0, 1.0},
};

const workload* find_workload(const std::string& name) {
  for (const auto& w : k_workloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The point-query list of a run: BFS sources (non-empty hyperedges) and
/// s-distance endpoint pairs (active hyperedges, |e| >= s).  Shared by both
/// modes so the oracle answers exactly what the run asks.
struct query_list {
  std::vector<vertex_id_t>                        bfs_src;
  std::vector<std::pair<vertex_id_t, vertex_id_t>> sdist;
};

query_list make_queries(std::uint64_t seed, const std::vector<std::size_t>& sizes) {
  nw::xoshiro256ss rng(sub_seed(seed, 2));
  auto pick = [&](std::size_t min_size) {
    while (true) {
      auto e = static_cast<vertex_id_t>(rng.bounded(sizes.size()));
      if (sizes[e] >= min_size) return e;
    }
  };
  query_list q;
  for (std::size_t i = 0; i < k_query_list; ++i) q.bfs_src.push_back(pick(1));
  for (std::size_t i = 0; i < k_query_list; ++i) q.sdist.emplace_back(pick(k_s), pick(k_s));
  return q;
}

// --- oracle mode -------------------------------------------------------------------
//
// Expected answers from the serial oracles in src/nwhy/ref/.  Two pieces
// are this file's own serial code because the ref/ spellings compare every
// hyperedge pair (O(|E|^2): 5e9 tests on the uniform workload): the s-line
// pair set is counted through shared members, and toplex dominance only
// tests hyperedges that contain the candidate's rarest member.  Both use
// the same definitions as ref::s_line_edges and ref::toplexes.

nh::ref::line_edge_set s_pairs_by_member(const nh::ref::incidence& h, std::size_t s) {
  nh::ref::line_edge_set   out;
  std::vector<std::size_t> count(h.num_edges(), 0);
  std::vector<vertex_id_t> touched;
  for (std::size_t i = 0; i < h.num_edges(); ++i) {
    if (h.edges[i].size() < s) continue;
    touched.clear();
    for (vertex_id_t v : h.edges[i]) {
      for (vertex_id_t j : h.nodes[v]) {
        if (j <= i || h.edges[j].size() < s) continue;
        if (count[j]++ == 0) touched.push_back(j);
      }
    }
    std::sort(touched.begin(), touched.end());
    for (vertex_id_t j : touched) {
      if (count[j] >= s) out.emplace_back(static_cast<vertex_id_t>(i), j);
      count[j] = 0;
    }
  }
  return out;
}

std::vector<vertex_id_t> toplexes_by_member(const nh::ref::incidence& h) {
  const std::size_t ne        = h.num_edges();
  bool              any_full  = false;
  for (const auto& e : h.edges) any_full = any_full || !e.empty();
  std::vector<vertex_id_t> out;
  bool                     first_empty = true;
  for (std::size_t i = 0; i < ne; ++i) {
    const auto& ei = h.edges[i];
    if (ei.empty()) {
      // Dominated by every non-empty edge and by any smaller empty one.
      if (!any_full && first_empty) out.push_back(static_cast<vertex_id_t>(i));
      first_empty = false;
      continue;
    }
    vertex_id_t rare = ei[0];
    for (vertex_id_t v : ei) {
      if (h.nodes[v].size() < h.nodes[rare].size()) rare = v;
    }
    bool dominated = false;
    for (vertex_id_t j : h.nodes[rare]) {
      if (j == i) continue;
      const auto& ej = h.edges[j];
      if (!(ej.size() > ei.size() || (ej.size() == ei.size() && j < i))) continue;
      if (std::includes(ej.begin(), ej.end(), ei.begin(), ei.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(static_cast<vertex_id_t>(i));
  }
  return out;
}

int run_oracle(const workload& w, std::uint64_t seed) {
  const auto inc   = nh::ref::from_biedgelist(w.make(seed));
  const auto sizes = inc.edge_sizes();
  const auto adj   = nh::ref::pairs_to_adjacency(s_pairs_by_member(inc, k_s), inc.num_edges());
  std::size_t pairs = 0;
  for (const auto& l : adj) pairs += l.size();
  pairs /= 2;

  auto slabels = nh::ref::graph_cc_labels(adj);
  for (std::size_t e = 0; e < sizes.size(); ++e) {
    if (sizes[e] < k_s) slabels[e] = nw::null_vertex<>;
  }
  std::size_t scc = 0;
  const auto  scc_digest = partition_digest(slabels, scc);

  const auto sources = nh::betweenness_sample_sources(adj.size(), k_bc_samples, sub_seed(seed, 3));
  const auto bc      = nh::ref::betweenness_sampled(adj, sources);

  const auto top = toplexes_by_member(inc);

  auto                     cc = nh::ref::cc_labels(inc);
  std::vector<vertex_id_t> all(cc.labels_edge);
  all.insert(all.end(), cc.labels_node.begin(), cc.labels_node.end());
  std::size_t hcc = 0;
  const auto  hcc_digest = partition_digest(all, hcc);

  const auto                 q = make_queries(seed, sizes);
  std::vector<std::uint64_t> bfs_edges, bfs_nodes, sdist;
  for (vertex_id_t src : q.bfs_src) {
    auto        r  = nh::ref::bfs_levels(inc, src);
    std::size_t re = 0, rn = 0;
    for (auto d : r.dist_edge) re += d != nw::null_vertex<>;
    for (auto d : r.dist_node) rn += d != nw::null_vertex<>;
    bfs_edges.push_back(re);
    bfs_nodes.push_back(rn);
  }
  for (auto [a, b] : q.sdist) {
    auto d = nh::ref::graph_bfs_levels(adj, a)[b];
    sdist.push_back(d == nw::null_vertex<> ? k_none : d);
  }
  line("oracle")
      .str("workload", w.name)
      .u64("seed", seed)
      .u64("hyperedges", inc.num_edges())
      .u64("hypernodes", inc.num_nodes())
      .u64("pairs", pairs)
      .u64("s_components", scc)
      .hex("s_partition", scc_digest)
      .hex("betweenness", bits_digest(bc))
      .u64("toplexes", top.size())
      .hex("toplex_ids", ids_digest(top))
      .u64("hyper_components", hcc)
      .hex("hyper_partition", hcc_digest)
      .list("bfs_edges", bfs_edges)
      .list("bfs_nodes", bfs_nodes)
      .list("sdist", sdist)
      .emit();
  return 0;
}

// --- run mode: pipeline pieces ----------------------------------------------------

/// Peak-RSS window: writing 5 to clear_refs resets VmHWM, so the peak read
/// later belongs to the pipeline alone, not to dataset generation.
void reset_peak_rss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string   l;
  while (std::getline(in, l)) {
    if (l.rfind("VmHWM:", 0) == 0) return std::stod(l.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// A loaded, served hypergraph: what set-up produces.
struct served {
  std::unique_ptr<nh::NWHypergraph> h;
  std::unique_ptr<sv::server>       srv;
  std::string                       snapshot;
};

served setup_once(tracer& tr, const std::string& mtx, const std::string& dir, int rep,
                  unsigned threads) {
  span   total(tr, "phase.setup");
  served out;
  out.snapshot = dir + "/snap" + std::to_string(rep) + ".nwcsr";
  nh::biedgelist<> el;
  {
    span s(tr, "io.parse");
    el = nh::graph_reader(mtx);
  }
  {
    nh::NWHypergraph built = [&] {
      span s(tr, "io.build");
      return nh::NWHypergraph(std::move(el));
    }();
    span s(tr, "io.snapshot_write");
    built.save_csr_snapshot(out.snapshot);
  }
  {
    span s(tr, "io.mmap_load");
    out.h = std::make_unique<nh::NWHypergraph>(nh::map_csr_snapshot(out.snapshot));
  }
  {
    span                s(tr, "serve.publish");
    sv::server::options opt;
    opt.unix_path      = dir + "/s" + std::to_string(rep) + ".sock";
    opt.threads        = threads;
    opt.queue_capacity = 4096;
    out.srv            = std::make_unique<sv::server>(opt);
    out.srv->publish(0, sv::make_serve_graph(*out.h));
  }
  {
    span       s(tr, "serve.first_reply");
    sv::client c;
    c.connect(out.srv->address());
    auto r = c.stats(0);
    if (!r || !r->ok()) throw std::runtime_error("set-up: first stats request failed");
  }
  return out;
}

void release(served& s) {
  if (s.srv) s.srv->stop();
  s.srv.reset();
  s.h.reset();
  if (!s.snapshot.empty()) std::remove(s.snapshot.c_str());
}

/// The batch answers of one pipeline pass.
struct pipeline_answers {
  std::uint64_t pairs = 0, s_components = 0, s_partition = 0, betweenness = 0;
  std::uint64_t toplexes = 0, toplex_ids = 0, hyper_components = 0, hyper_partition = 0;
};

pipeline_answers pipeline_once(tracer& tr, const nh::NWHypergraph& h, std::uint64_t seed,
                               std::optional<nh::s_linegraph>& keep) {
  span             total(tr, "phase.pipeline");
  pipeline_answers a;
  std::optional<nh::s_linegraph> sl;
  {
    span s(tr, "slinegraph.build");
    sl.emplace(h.make_s_linegraph(k_s));
  }
  a.pairs = sl->num_edges();
  {
    span        s(tr, "algorithms.s_cc");
    auto        labels = sl->s_connected_components();
    s.stop();
    std::size_t n  = 0;
    a.s_partition  = partition_digest(labels, n);
    a.s_components = n;
  }
  {
    span s(tr, "algorithms.betweenness");
    auto bc = sl->s_betweenness_centrality_sampled(k_bc_samples, sub_seed(seed, 3));
    s.stop();
    a.betweenness = bits_digest(bc);
  }
  {
    span s(tr, "algorithms.toplex");
    auto t = h.toplexes();
    s.stop();
    a.toplexes   = t.size();
    a.toplex_ids = ids_digest(t);
  }
  {
    span s(tr, "algorithms.hyper_cc");
    auto cc = h.connected_components();
    s.stop();
    std::vector<vertex_id_t> all(cc.labels_edge);
    all.insert(all.end(), cc.labels_node.begin(), cc.labels_node.end());
    std::size_t n      = 0;
    a.hyper_partition  = partition_digest(all, n);
    a.hyper_components = n;
  }
  keep = std::move(sl);
  return a;
}

void emit_pipeline(const pipeline_answers& a, double seconds) {
  line("pipeline")
      .num("s", seconds)
      .u64("pairs", a.pairs)
      .u64("s_components", a.s_components)
      .hex("s_partition", a.s_partition)
      .hex("betweenness", a.betweenness)
      .u64("toplexes", a.toplexes)
      .hex("toplex_ids", a.toplex_ids)
      .u64("hyper_components", a.hyper_components)
      .hex("hyper_partition", a.hyper_partition)
      .emit();
}

/// The point-query burst: three HyperBFS queries from a hyperedge to one
/// s-distance on the built s-line graph, cycling through the query list.
/// (On the uniform workload an s-distance costs ~1% of a BFS; at 1:1 the
/// p50 would sit where the two latency modes meet.)
struct query_samples {
  std::vector<std::uint64_t> kind, index, ans0, ans1;  ///< kind 0 = bfs, 1 = s-distance
  std::vector<double>        ms;
};

void query_once(tracer& tr, const nh::NWHypergraph& h, const nh::s_linegraph& sl,
                const query_list& q, std::size_t i, query_samples& out) {
  const std::size_t idx = i % k_query_list;
  if (i % 4 != 3) {
    span s(tr, "traversal.hyper_bfs");
    auto r = h.bfs(q.bfs_src[idx]);
    out.ms.push_back(s.stop() * 1e3);
    std::uint64_t re = 0, rn = 0;
    for (auto d : r.dist_edge) re += d != nw::null_vertex<>;
    for (auto d : r.dist_node) rn += d != nw::null_vertex<>;
    out.kind.push_back(0);
    out.ans0.push_back(re);
    out.ans1.push_back(rn);
  } else {
    span s(tr, "traversal.s_distance");
    auto d = sl.s_distance(q.sdist[idx].first, q.sdist[idx].second);
    out.ms.push_back(s.stop() * 1e3);
    out.kind.push_back(1);
    out.ans0.push_back(d ? *d : k_none);
    out.ans1.push_back(0);
  }
  out.index.push_back(idx);
}

// --- run mode: serving -------------------------------------------------------------

enum class op_kind : std::uint8_t { stats, neighbors, s_distance, bfs, s_components, centrality };
const char* op_name(op_kind k) {
  static const char* names[] = {"stats", "neighbors", "s_distance", "bfs", "s_components",
                                "centrality"};
  return names[static_cast<int>(k)];
}
bool is_point(op_kind k) { return k == op_kind::stats || k == op_kind::neighbors; }

struct request {
  double        due = 0;  ///< offset from the window start, seconds
  op_kind       op  = op_kind::stats;
  std::uint64_t a = 0, b = 0;
  // filled by the connection thread
  double                       send = 0, recv = 0;
  bool                         replied = false;
  sv::status                   st      = sv::status::internal_error;
  std::array<std::uint64_t, 5> ans{};
};

/// The request mix, one period of 20 slots repeated: 15 point requests
/// (3 stats, 12 neighbors) and 5 traversals (4 bfs and one slot that walks
/// k_rotation).  Kinds are spread evenly rather than drawn at random, and
/// the flood-prone traversals are kept to ~2.5% of them: an s_components,
/// or a centrality or s_distance that floods the giant s-component, takes
/// ~0.4 s of one worker.  Drawn at random, their count and overlap per run
/// moved every tail from seed to seed, and a flood share near 10% put the
/// traversal p90 where the bfs and flood latency modes meet.  Arguments are
/// seeded.
constexpr op_kind k_pattern[20] = {
    op_kind::neighbors, op_kind::neighbors, op_kind::bfs,       op_kind::stats,
    op_kind::neighbors, op_kind::neighbors, op_kind::neighbors, op_kind::bfs,
    op_kind::stats,     op_kind::neighbors, op_kind::neighbors, op_kind::bfs,
    op_kind::neighbors, op_kind::neighbors, op_kind::stats,     op_kind::bfs,
    op_kind::neighbors, op_kind::neighbors, op_kind::neighbors, op_kind::s_distance};
constexpr op_kind k_rotation[16] = {
    op_kind::s_distance, op_kind::bfs, op_kind::bfs, op_kind::s_distance,
    op_kind::centrality, op_kind::bfs, op_kind::s_distance, op_kind::bfs,
    op_kind::bfs,        op_kind::s_distance, op_kind::bfs, op_kind::bfs,
    op_kind::s_components, op_kind::bfs, op_kind::bfs,   op_kind::bfs};

/// Open-loop schedule at a constant `rate` over `window_s` seconds.
std::vector<request> make_schedule(std::uint64_t seed, double rate, double window_s,
                                   std::size_t ne) {
  nw::xoshiro256ss     rng(sub_seed(seed, 4));
  const auto           n = static_cast<std::size_t>(rate * window_s);
  std::vector<request> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& r = out[i];
    r.due   = static_cast<double>(i) / rate;
    r.op    = i % 20 == 19 ? k_rotation[(i / 20) % 16] : k_pattern[i % 20];
    r.a     = rng.bounded(ne);
    r.b     = rng.bounded(ne);
  }
  return out;
}

std::array<std::uint64_t, 5> decode_answer(op_kind op, const sv::client_reply& r) {
  std::array<std::uint64_t, 5> a{};
  switch (op) {
    case op_kind::stats: {
      auto s = sv::decode_stats_reply(r.payload);
      a      = {s.num_hyperedges, s.num_hypernodes, s.num_incidences, s.epoch, 0};
      break;
    }
    case op_kind::neighbors: {
      auto ids = sv::decode_neighbors_reply(r.payload);
      a        = {ids.size(), ids_digest(ids), 0, 0, 0};
      break;
    }
    case op_kind::s_distance:
    case op_kind::centrality: a = {sv::decode_u64_reply(r.payload), 0, 0, 0, 0}; break;
    case op_kind::bfs: {
      auto b = sv::decode_bfs_reply(r.payload);
      a      = {b.reached_edges, b.reached_nodes, b.max_depth, b.edge_digest, b.node_digest};
      break;
    }
    case op_kind::s_components: {
      auto c = sv::decode_s_components_reply(r.payload);
      a      = {c.num_components, c.labels_digest, 0, 0, 0};
      break;
    }
  }
  return a;
}

std::vector<std::uint8_t> request_frame(const request& r, std::uint64_t id) {
  auto frame = [&](sv::opcode op, const std::vector<std::uint8_t>& payload) {
    return sv::encode_frame(op, sv::status::ok, id, payload, 0);
  };
  switch (r.op) {
    case op_kind::stats: return frame(sv::opcode::stats, sv::encode(sv::stats_request{0}));
    case op_kind::neighbors:
      return frame(sv::opcode::neighbors, sv::encode(sv::neighbors_request{0, k_s, r.a}));
    case op_kind::s_distance:
      return frame(sv::opcode::s_distance,
                   sv::encode(sv::s_distance_request{0, k_s, r.a, r.b}));
    case op_kind::bfs: return frame(sv::opcode::bfs, sv::encode(sv::bfs_request{0, r.a}));
    case op_kind::s_components:
      return frame(sv::opcode::s_components, sv::encode(sv::s_components_request{0, k_s}));
    case op_kind::centrality:
      return frame(sv::opcode::centrality,
                   sv::encode(sv::centrality_request{
                       0, k_s, static_cast<std::uint32_t>(sv::centrality_kind::harmonic), r.a}));
  }
  return {};
}

/// A seeded mutation batch: inserts past the current id space, removals
/// and member-list updates of existing hyperedges.
struct mutation_batch {
  std::vector<nh::edge_update> inserts;
  std::vector<vertex_id_t>     removes;
  std::vector<nh::edge_update> updates;
};

mutation_batch make_batch(nw::xoshiro256ss& rng, std::size_t ne, std::size_t nn) {
  auto members = [&] {
    std::vector<vertex_id_t> m(2 + rng.bounded(14));
    for (auto& v : m) v = static_cast<vertex_id_t>(rng.bounded(nn));
    return m;
  };
  mutation_batch b;
  for (std::size_t i = 0; i < 16; ++i) {
    b.inserts.push_back({static_cast<vertex_id_t>(ne + i), members()});
  }
  for (std::size_t i = 0; i < 16; ++i) b.removes.push_back(static_cast<vertex_id_t>(rng.bounded(ne)));
  for (std::size_t i = 0; i < 16; ++i) {
    b.updates.push_back({static_cast<vertex_id_t>(rng.bounded(ne)), members()});
  }
  return b;
}

void apply(nh::NWHypergraph& h, mutation_batch b) {
  h.insert_edges(std::move(b.inserts));
  h.remove_edges(b.removes);
  for (auto& u : b.updates) h.update_edge(u.edge, std::move(u.members));
}

/// One published generation: what a reply may legitimately have been
/// answered from while it was in flight.  Only the batch that produced it
/// is kept; the checks rebuild each generation by replaying the batches on
/// the set-up snapshot, so old generations do not inflate the peak RSS.
struct published {
  std::uint64_t  epoch = 0;
  mutation_batch batch;
  double         before = 0, after = 0;  ///< around the publish() call
};

/// A writer batch's read-your-writes check: the pending-delta BFS summary
/// must equal the BFS of the generation it was folded into.
struct pending_read {
  std::size_t                  generation = 0;  ///< index into the published list
  vertex_id_t                  source     = 0;
  std::array<std::uint64_t, 5> ans{};
};

std::array<std::uint64_t, 5> bfs_summary(const nh::hyper_bfs_result& r) {
  std::array<std::uint64_t, 5> a{};
  for (auto d : r.dist_edge) {
    if (d != nw::null_vertex<>) {
      ++a[0];
      a[2] = std::max<std::uint64_t>(a[2], d);
    }
  }
  for (auto d : r.dist_node) a[1] += d != nw::null_vertex<>;
  a[3] = sv::digest_u32(r.dist_edge);
  a[4] = sv::digest_u32(r.dist_node);
  return a;
}

/// Library answers on one (replayed) generation; the s-line graph and the
/// s-components are built on first use.
class generation_answers {
public:
  generation_answers(const nh::NWHypergraph& h, std::uint64_t epoch) : h_(h), epoch_(epoch) {}

  std::array<std::uint64_t, 5> answer(const request& r) {
    const auto& h = h_;
    switch (r.op) {
      case op_kind::stats:
        return {h.num_hyperedges(), h.num_hypernodes(), h.num_incidences(), epoch_, 0};
      case op_kind::neighbors: {
        if (r.a >= h.num_hyperedges()) return {};
        auto ids = line_graph().s_neighbors(static_cast<vertex_id_t>(r.a));
        return {ids.size(), ids_digest(ids), 0, 0, 0};
      }
      case op_kind::s_distance: {
        const auto& sz = h.edge_sizes();
        if (sz[r.a] < k_s || sz[r.b] < k_s) return {k_none, 0, 0, 0, 0};
        auto d = line_graph().s_distance(static_cast<vertex_id_t>(r.a),
                                         static_cast<vertex_id_t>(r.b));
        return {d ? *d : k_none, 0, 0, 0, 0};
      }
      case op_kind::bfs: return bfs_summary(h.bfs(static_cast<vertex_id_t>(r.a)));
      case op_kind::s_components: {
        if (!components_) {
          auto          labels = h.s_connected_components_implicit(k_s);
          std::uint64_t roots  = 0;
          for (std::size_t i = 0; i < labels.size(); ++i) roots += labels[i] == i;
          components_ = std::array<std::uint64_t, 5>{roots, sv::digest_u32(labels), 0, 0, 0};
        }
        return *components_;
      }
      case op_kind::centrality: {
        double c = line_graph().s_harmonic_closeness_centrality(static_cast<vertex_id_t>(r.a));
        return {sv::double_bits(c), 0, 0, 0, 0};
      }
    }
    return {};
  }

private:
  const nh::s_linegraph& line_graph() {
    if (!sl_) sl_.emplace(h_.make_s_linegraph(k_s));
    return *sl_;
  }

  const nh::NWHypergraph&                      h_;
  std::uint64_t                                epoch_;
  std::optional<nh::s_linegraph>               sl_;
  std::optional<std::array<std::uint64_t, 5>> components_;
};

struct serve_result {
  std::vector<double>        point_ms, trav_ms, lag_ms, visible_ms, service_ms;
  std::vector<std::uint64_t> op;
  std::vector<std::uint8_t>  point_ok, trav_ok;
  std::uint64_t              attempted = 0, failed = 0, wrong = 0;
  double                     window_s = 0, ping_p50_us = 0, client_p50_us = 0;
  std::vector<double>        apply_ms, pending_ms, compact_ms, publish_ms;
  std::uint64_t              retired_live_max = 0, ryw_checked = 0;
  sv::dispatch_metrics       server{};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

serve_result serve_window(tracer& tr, served& live, const workload& w, std::uint64_t seed,
                          double window_s, unsigned connections) {
  serve_result out;
  auto&        h   = *live.h;
  auto&        srv = *live.srv;

  {  // idle round trip, before any load
    sv::client c;
    c.connect(srv.address());
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const double t0 = now_s();
      auto         r  = c.ping();
      if (!r || !r->ok()) throw std::runtime_error("serve: ping failed");
      us.push_back((now_s() - t0) * 1e6);
    }
    out.ping_p50_us = median(us);
  }

  auto       schedule = make_schedule(seed, w.serve_rate, window_s, h.num_hyperedges());
  span       window(tr, "phase.serve", 0, false);
  const int  window_id = window.id();
  std::vector<published> gens;
  gens.push_back({srv.registry().pin(0)->epoch, {}, 0.0, 0.0});
  std::vector<pending_read> ryw;

  // Open loop: per connection, one thread sends each request when it is
  // due, whatever is still outstanding, and another matches replies by
  // request id (the server answers out of order).
  const double             start = now_s() + 0.05;
  std::atomic<bool>        readers_done{false};
  std::vector<std::thread> conns;
  std::vector<std::unique_ptr<sv::client>> clients;
  for (unsigned c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<sv::client>());
    clients.back()->connect(srv.address(), 30);
  }
  for (unsigned c = 0; c < connections; ++c) {
    sv::client& cl = *clients[c];
    conns.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < schedule.size(); i += connections) {
          auto&        r    = schedule[i];
          const double wait = start + r.due - now_s();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          r.send = now_s();
          cl.send_raw(request_frame(r, i + 1));
        }
      } catch (const std::exception&) {
        // A dropped connection leaves the rest unanswered: counted as failed.
      }
    });
    conns.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < schedule.size(); i += connections) {
          auto rep = cl.recv_reply();
          if (!rep || rep->request_id == 0 || rep->request_id > schedule.size()) return;
          auto& r   = schedule[rep->request_id - 1];
          r.recv    = now_s();
          r.replied = true;
          r.st      = rep->st;
          if (rep->ok()) r.ans = decode_answer(r.op, *rep);
        }
      } catch (const std::exception&) {
      }
    });
  }

  // The writer: mutate, read with the delta pending, compact, publish, and
  // wait until the new epoch is what a reader gets.
  std::thread writer([&] {
    nw::xoshiro256ss rng(sub_seed(seed, 5));
    sv::client       cl;
    cl.connect(srv.address());
    for (std::uint64_t b = 0; !readers_done.load(); ++b) {
      const double due = start + 0.25 + static_cast<double>(b) * w.writer_period_s;
      if (due > start + window_s - 0.25) break;
      while (now_s() < due && !readers_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      const std::uint64_t rid   = k_writer_rids + b;
      auto                batch = make_batch(rng, h.num_hyperedges(), h.num_hypernodes());
      const double        t_submit = now_s();
      published p;
      p.batch = batch;
      {
        span s(tr, "dynamic.apply", rid, true, window_id);
        apply(h, std::move(batch));
        out.apply_ms.push_back(s.stop() * 1e3);
      }
      pending_read pr;
      pr.source = static_cast<vertex_id_t>(rng.bounded(h.num_hyperedges()));
      {
        span s(tr, "dynamic.pending_read", rid, true, window_id);
        pr.ans = bfs_summary(h.bfs(pr.source));
        out.pending_ms.push_back(s.stop() * 1e3);
      }
      {
        span s(tr, "dynamic.compact", rid, true, window_id);
        h.compact();
        out.compact_ms.push_back(s.stop() * 1e3);
      }
      {
        span s(tr, "dynamic.publish", rid, true, window_id);
        p.before = now_s();
        p.epoch  = srv.publish(0, sv::make_serve_graph(h));
        p.after  = now_s();
        out.publish_ms.push_back(s.stop() * 1e3);
      }
      {
        span s(tr, "dynamic.visible", rid, true, window_id);
        while (true) {
          auto r = cl.stats(0);
          if (r && r->ok() && sv::decode_stats_reply(r->payload).epoch >= p.epoch) break;
        }
      }
      out.visible_ms.push_back((now_s() - t_submit) * 1e3);
      out.retired_live_max =
          std::max<std::uint64_t>(out.retired_live_max, srv.registry().retired_live(0));
      gens.push_back(std::move(p));
      pr.generation = gens.size() - 1;
      ryw.push_back(pr);
    }
  });
  for (auto& t : conns) t.join();
  readers_done = true;
  writer.join();
  window.stop();
  const double window_end = now_s();
  out.window_s = window_s;
  if (tr.on()) {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const auto& r = schedule[i];
      if (r.replied) tr.add(std::string("serve.") + op_name(r.op), window_id, i + 1, r.send, r.recv);
    }
  }
  out.server   = srv.metrics();

  // Checks, after the timed window: each reply against direct library calls
  // on every generation that was live while it was in flight.
  std::vector<char> matched(schedule.size(), 0);
  nh::NWHypergraph  replay(nh::map_csr_snapshot(live.snapshot));
  for (std::size_t g = 0; g < gens.size(); ++g) {
    if (g > 0) {
      apply(replay, gens[g].batch);
      replay.compact();
    }
    generation_answers answers(replay, gens[g].epoch);
    const double       live_from  = g == 0 ? 0.0 : gens[g].before;
    const double       live_until = g + 1 < gens.size() ? gens[g + 1].after : 1e300;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const auto& r = schedule[i];
      if (matched[i] || !r.replied || r.st != sv::status::ok) continue;
      if (live_from > r.recv || live_until < r.send) continue;
      matched[i] = answers.answer(r) == r.ans;
    }
    for (const auto& pr : ryw) {
      if (pr.generation != g) continue;
      ++out.attempted;
      ++out.ryw_checked;
      if (bfs_summary(replay.bfs(pr.source)) != pr.ans) {
        ++out.failed;
        ++out.wrong;
      }
    }
  }
  std::vector<double> client_us;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto& r = schedule[i];
    ++out.attempted;
    // An unanswered request waited at least until the window closed.
    const double recv   = r.replied ? r.recv : window_end;
    const double lat_ms = (recv - (start + r.due)) * 1e3;
    out.lag_ms.push_back((r.send - (start + r.due)) * 1e3);
    client_us.push_back((recv - r.send) * 1e6);
    out.service_ms.push_back((recv - r.send) * 1e3);
    out.op.push_back(static_cast<std::uint64_t>(r.op));
    const bool ok = matched[i] != 0;
    if (!ok) ++out.failed;
    if (!ok && r.replied && r.st == sv::status::ok) ++out.wrong;
    (is_point(r.op) ? out.point_ms : out.trav_ms).push_back(lat_ms);
    (is_point(r.op) ? out.point_ok : out.trav_ok).push_back(ok ? 1 : 0);
  }
  out.client_p50_us = median(client_us);
  return out;
}

void emit_serve(const serve_result& s) {
  line("serve")
      .num("window_s", s.window_s)
      .u64("attempted", s.attempted)
      .u64("failed", s.failed)
      .u64("wrong", s.wrong)
      .list("point_ms", s.point_ms)
      .list("point_ok", s.point_ok)
      .list("trav_ms", s.trav_ms)
      .list("trav_ok", s.trav_ok)
      .list("lag_ms", s.lag_ms)
      .list("op", s.op)
      .list("service_ms", s.service_ms)
      .list("visible_ms", s.visible_ms)
      .list("apply_ms", s.apply_ms)
      .list("pending_ms", s.pending_ms)
      .list("compact_ms", s.compact_ms)
      .list("publish_ms", s.publish_ms)
      .u64("retired_live_max", s.retired_live_max)
      .u64("ryw_checked", s.ryw_checked)
      .num("ping_p50_us", s.ping_p50_us)
      .num("client_p50_us", s.client_p50_us)
      .num("server_p50_us", s.server.p50_us)
      .num("server_p99_us", s.server.p99_us)
      .u64("queue_depth_peak", s.server.queue_depth_peak)
      .u64("rejected_busy", s.server.rejected_busy)
      .u64("deadline_exceeded", s.server.deadline_exceeded)
      .u64("coalesced", s.server.coalesced)
      .emit();
}

/// Median cost of an empty parallel_for at the pool's current width.
double dispatch_us() {
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = now_s();
    nw::par::parallel_for(0, 64, [](std::size_t) {});
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

// --- run mode ------------------------------------------------------------------------

/// Writes the workload's MatrixMarket text (dataset generation is not
/// timed) and starts the peak-RSS window.
std::string write_input(const workload& w, std::uint64_t seed, const std::string& dir) {
  const std::string mtx = dir + "/input.mtx";
  auto              el  = w.make(seed);
  nh::write_matrix_market(mtx, el);
  line("input").u64("incidences", el.size()).emit();
  reset_peak_rss();
  return mtx;
}

/// The batch part: repeated whole pipeline rounds (set-up, pipeline pass,
/// query chunk) for `seconds`, interleaved so that every batch metric
/// samples the same stretch of time.  Traced, it adds the strong-scaling
/// and tracing-overhead passes.
int run_batch(const workload& w, std::uint64_t seed, double seconds, bool trace,
              unsigned threads, const std::string& dir) {
  tracer            tr(trace);
  const std::string mtx = write_input(w, seed, dir);
  constexpr int         k_min_rounds = 3;
  constexpr std::size_t k_chunk      = 64;  ///< point queries per round
  line("plan").u64("rounds", k_min_rounds).u64("chunk", k_chunk).emit();

  served      live;
  query_list  q;
  std::size_t next_query = 0;
  const double t0 = now_s();
  for (int round = 0; round < k_min_rounds || now_s() - t0 < seconds; ++round) {
    release(live);
    line("begin").str("phase", "setup").num("t", now_s()).emit();
    double s0 = now_s();
    live      = setup_once(tr, mtx, dir, round, threads);
    line("setup").num("s", now_s() - s0).emit();
    if (round == 0) q = make_queries(seed, live.h->edge_sizes());

    std::optional<nh::s_linegraph> sl;
    line("begin").str("phase", "pipeline").num("t", now_s()).emit();
    s0     = now_s();
    auto a = pipeline_once(tr, *live.h, seed, sl);
    emit_pipeline(a, now_s() - s0);

    line("begin").str("phase", "queries").num("t", now_s()).emit();
    query_samples qs;
    {
      span total(tr, "phase.queries");
      for (std::size_t i = 0; i < k_chunk; ++i) query_once(tr, *live.h, *sl, q, next_query++, qs);
    }
    line("queries")
        .list("kind", qs.kind)
        .list("index", qs.index)
        .list("ms", qs.ms)
        .list("ans0", qs.ans0)
        .list("ans1", qs.ans1)
        .emit();
  }
  release(live);
  line("rss").num("peak_mb", peak_rss_mb()).emit();

  if (trace) {
    // Strong scaling, layer by layer: one set-up, one pipeline pass and a
    // fixed query set at 1 thread, then the same at `threads`.
    line("begin").str("phase", "scaling").num("t", now_s()).emit();
    double d1 = 0, dn = 0;
    for (unsigned t : {1u, threads}) {
      nw::par::thread_pool::set_default_concurrency(t);
      (t == 1 ? d1 : dn) = dispatch_us();
      span   root(tr, t == 1 ? "scaling.1t" : "scaling.nt");
      served s = setup_once(tr, mtx, dir, 100 + static_cast<int>(t), t);
      std::optional<nh::s_linegraph> g;
      (void)pipeline_once(tr, *s.h, seed, g);
      query_samples qs;
      for (std::size_t i = 0; i < k_chunk; ++i) query_once(tr, *s.h, *g, q, i, qs);
      g.reset();
      release(s);
    }
    line("dispatch").num("nt_us", dn).num("1t_us", d1).emit();

    // Tracing overhead: the same pipeline pass with spans off and on.
    line("begin").str("phase", "overhead").num("t", now_s()).emit();
    tracer                         off(false);
    std::vector<double>            plain, traced;
    std::optional<nh::s_linegraph> g;
    served                         s = setup_once(off, mtx, dir, 200, threads);
    for (int rep = 0; rep < 3; ++rep) {
      double r0 = now_s();
      (void)pipeline_once(off, *s.h, seed, g);
      plain.push_back(now_s() - r0);
      span root(tr, "overhead.traced");
      r0 = now_s();
      (void)pipeline_once(tr, *s.h, seed, g);
      traced.push_back(now_s() - r0);
    }
    g.reset();
    release(s);
    line("overhead").num("plain_s", median(plain)).num("traced_s", median(traced)).emit();
    tr.write(dir + "/trace.json");
  }
  std::remove(mtx.c_str());
  line("done").emit();
  return 0;
}

/// The serve part: one set-up, then the open-loop serve window of
/// `seconds` with the mutation writer, then the reply checks.
int run_serve(const workload& w, std::uint64_t seed, double seconds, bool trace,
              unsigned threads, const std::string& dir) {
  tracer            tr(trace);
  const std::string mtx = write_input(w, seed, dir);
  line("plan").u64("serve_requests", static_cast<std::uint64_t>(w.serve_rate * seconds)).emit();
  served live = setup_once(tr, mtx, dir, 0, threads);
  line("begin").str("phase", "serve").num("t", now_s()).emit();
  auto sr = serve_window(tr, live, w, seed, seconds, threads);
  line("rss").num("peak_mb", peak_rss_mb()).emit();
  emit_serve(sr);
  release(live);
  if (trace) tr.write(dir + "/trace.json");
  std::remove(mtx.c_str());
  line("done").emit();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "oracle" && argc == 4) {
      const workload* w = find_workload(argv[2]);
      if (w == nullptr) throw std::runtime_error("unknown workload");
      return run_oracle(*w, std::stoull(argv[3]));
    }
    if ((mode == "batch" || mode == "serve") && argc == 8) {
      const workload* w = find_workload(argv[2]);
      if (w == nullptr) throw std::runtime_error("unknown workload");
      const auto     seed    = std::stoull(argv[3]);
      const double   seconds = std::stod(argv[4]);
      const bool     trace   = std::string(argv[5]) == "1";
      const auto     threads = static_cast<unsigned>(std::stoul(argv[6]));
      nw::par::thread_pool::set_default_concurrency(threads);
      return (mode == "batch" ? run_batch : run_serve)(*w, seed, seconds, trace, threads,
                                                       argv[7]);
    }
    std::fprintf(stderr,
                 "usage: pipeline_bench oracle <workload> <seed>\n"
                 "       pipeline_bench batch|serve <workload> <seed> <seconds> <trace> "
                 "<threads> <dir>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
