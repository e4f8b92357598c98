// nwpar/parallel_for.hpp
//
// Fork-join parallel loops over index ranges with pluggable partitioning
// (see partitioners.hpp).  The body may have either of two signatures:
//
//   body(std::size_t i)                 — per element
//   body(unsigned tid, std::size_t i)   — per element with worker id, for
//                                         algorithms keeping per-thread state
//
// parallel_reduce additionally folds a per-thread accumulator.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "nwpar/parallel_scan.hpp"
#include "nwpar/partitioners.hpp"
#include "nwpar/thread_pool.hpp"

namespace nw::par {

namespace detail {

template <class Body>
void invoke_body(Body& body, unsigned tid, std::size_t i) {
  if constexpr (std::is_invocable_v<Body&, unsigned, std::size_t>) {
    body(tid, i);
  } else {
    static_assert(std::is_invocable_v<Body&, std::size_t>,
                  "parallel_for body must be callable as body(i) or body(tid, i)");
    body(i);
  }
}

}  // namespace detail

/// Blocked (dynamic contiguous chunks).
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, Body body, blocked part = {},
                  thread_pool& pool = thread_pool::default_pool()) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool.concurrency() == 1 || n == 1) {
    for (std::size_t i = begin; i < end; ++i) detail::invoke_body(body, 0, i);
    return;
  }
  const std::size_t        grain = resolve_grain(part.grain, n, pool.concurrency());
  std::atomic<std::size_t> cursor{begin};
  pool.run([&](unsigned tid) {
    for (;;) {
      std::size_t chunk_begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (chunk_begin >= end) break;
      std::size_t chunk_end = std::min(chunk_begin + grain, end);
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) detail::invoke_body(body, tid, i);
    }
  });
}

/// Static blocked (one contiguous block per thread, no balancing).
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, Body body, static_blocked,
                  thread_pool& pool = thread_pool::default_pool()) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const unsigned    t = pool.concurrency();
  if (t == 1) {
    for (std::size_t i = begin; i < end; ++i) detail::invoke_body(body, 0, i);
    return;
  }
  const std::size_t block = (n + t - 1) / t;
  pool.run([&](unsigned tid) {
    std::size_t b = begin + static_cast<std::size_t>(tid) * block;
    std::size_t e = std::min(b + block, end);
    for (std::size_t i = b; i < e; ++i) detail::invoke_body(body, tid, i);
  });
}

/// Cyclic (paper Sec. III-D): bin b covers {begin + b, begin + b + stride, ...};
/// bins are claimed dynamically from a shared cursor.
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, Body body, cyclic part,
                  thread_pool& pool = thread_pool::default_pool()) {
  if (begin >= end) return;
  const unsigned t = pool.concurrency();
  if (t == 1) {
    for (std::size_t i = begin; i < end; ++i) detail::invoke_body(body, 0, i);
    return;
  }
  const std::size_t        stride = resolve_bins(part.num_bins, t);
  std::atomic<std::size_t> next_bin{0};
  pool.run([&](unsigned tid) {
    for (;;) {
      std::size_t bin = next_bin.fetch_add(1, std::memory_order_relaxed);
      if (bin >= stride) break;
      for (std::size_t i = begin + bin; i < end; i += stride) detail::invoke_body(body, tid, i);
    }
  });
}

/// parallel_reduce: fold `body(acc, i)` per thread over the range (blocked
/// partitioning), then combine per-thread accumulators with `combine`.
template <class T, class Body, class Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, Body body, Combine combine,
                  thread_pool& pool = thread_pool::default_pool()) {
  if (begin >= end) return identity;
  const unsigned t = pool.concurrency();
  if (t == 1) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = body(std::move(acc), i);
    return acc;
  }
  // Deliberately not std::vector<T>: vector<bool>'s proxy references break
  // generic combine signatures, and padding avoids false sharing.
  struct alignas(64) padded_acc {
    T value;
  };
  std::vector<padded_acc>  partial(t, padded_acc{identity});
  const std::size_t        grain = resolve_grain(0, end - begin, t);
  std::atomic<std::size_t> cursor{begin};
  pool.run([&](unsigned tid) {
    T acc = identity;
    for (;;) {
      std::size_t chunk_begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (chunk_begin >= end) break;
      std::size_t chunk_end = std::min(chunk_begin + grain, end);
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) acc = body(std::move(acc), i);
    }
    partial[tid].value = std::move(acc);
  });
  T acc = identity;
  for (auto& p : partial) acc = combine(std::move(acc), std::move(p.value));
  return acc;
}

/// The default cancellation hook of the traversal engines: never fires,
/// and compiles to nothing.  A caller-supplied hook is a `void()` callable
/// that stops the engine by throwing; the engines poll it at their level
/// or frontier-vertex boundaries, and thread_pool::run carries the
/// exception back to the caller at any pool width.
struct no_cancel {
  constexpr void operator()() const noexcept {}
};

/// Per-thread storage: one value per pool context, padded to a cache line to
/// avoid false sharing between workers appending to their local buffers.
template <class T>
class per_thread {
  struct alignas(64) padded {
    T value{};
  };

public:
  explicit per_thread(thread_pool& pool = thread_pool::default_pool())
      : slots_(pool.concurrency()) {}

  T&       local(unsigned tid) { return slots_[tid].value; }
  const T& local(unsigned tid) const { return slots_[tid].value; }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Visit every per-thread value (sequentially, after the parallel phase).
  template <class Fn>
  void for_each(Fn&& fn) {
    for (auto& s : slots_) fn(s.value);
  }

private:
  std::vector<padded> slots_;
};

/// What to do with the per-thread source buffers after a merge:
///   release — clear() + shrink_to_fit(): give the memory back (one-shot use)
///   keep    — clear() only: repeated construction calls (bench loops,
///             ensemble passes, implicit s-BFS levels) reuse the grown
///             thread-local allocations instead of re-faulting pages.
enum class merge_capacity { release, keep };

namespace detail {

/// One contiguous block copy: buffer `buf`, elements
/// [src_begin, src_begin + len) land at `dst_begin` of the merged output.
struct copy_chunk {
  unsigned    buf;
  std::size_t src_begin;
  std::size_t len;
  std::size_t dst_begin;
};

/// Turn per-buffer sizes into destination offsets (parallel exclusive scan)
/// and a block-copy plan.  Buffers are split into chunks of at most
/// `target_chunk` elements so one giant per-thread buffer still spreads
/// across the whole pool; `total` receives the merged element count.
inline std::vector<copy_chunk> plan_block_copies(const std::vector<std::size_t>& sizes,
                                                 std::size_t target_chunk, std::size_t& total,
                                                 thread_pool& pool) {
  std::vector<std::size_t> offsets(sizes);
  total = parallel_exclusive_scan(offsets, pool);
  if (target_chunk == 0) {
    target_chunk = std::max<std::size_t>(std::size_t{4096},
                                         total / (8 * std::size_t{pool.concurrency()} + 1));
  }
  std::vector<copy_chunk> chunks;
  for (unsigned b = 0; b < sizes.size(); ++b) {
    for (std::size_t off = 0; off < sizes[b]; off += target_chunk) {
      std::size_t len = std::min(target_chunk, sizes[b] - off);
      chunks.push_back({b, off, len, offsets[b] + off});
    }
  }
  return chunks;
}

/// Reset source buffers after their contents were copied out.
template <class T>
void reset_buffers(per_thread<std::vector<T>>& buffers, merge_capacity cap) {
  buffers.for_each([&](std::vector<T>& v) {
    v.clear();
    if (cap == merge_capacity::release) v.shrink_to_fit();
  });
}

}  // namespace detail

/// Merge per-thread vectors into one, preserving per-thread order.  This is
/// the "L_s(H) <- L_s(H) ∪ every L_t(H)" step of Algorithms 1 and 2.
///
/// Fully parallel: per-buffer sizes -> parallel_exclusive_scan offsets ->
/// parallel block copies (std::copy over contiguous ranges, i.e. memmove
/// for trivially copyable T).  No serial per-element loop over the merged
/// output.  `cap` controls whether the drained per-thread buffers keep
/// their capacity for the next call (merge_capacity::keep) or return it
/// (merge_capacity::release, the default and historical behaviour).
template <class T>
std::vector<T> merge_thread_vectors(per_thread<std::vector<T>>& buffers,
                                    merge_capacity cap = merge_capacity::release,
                                    thread_pool&   pool = thread_pool::default_pool()) {
  std::vector<std::size_t> sizes(buffers.size());
  for (std::size_t b = 0; b < buffers.size(); ++b) sizes[b] = buffers.local(b).size();
  std::size_t total  = 0;
  auto        chunks = detail::plan_block_copies(sizes, 0, total, pool);
  std::vector<T> merged(total);
  parallel_for(
      0, chunks.size(),
      [&](std::size_t c) {
        const auto& ck  = chunks[c];
        const auto& src = buffers.local(ck.buf);
        std::copy(src.begin() + static_cast<std::ptrdiff_t>(ck.src_begin),
                  src.begin() + static_cast<std::ptrdiff_t>(ck.src_begin + ck.len),
                  merged.begin() + static_cast<std::ptrdiff_t>(ck.dst_begin));
      },
      blocked{}, pool);
  detail::reset_buffers(buffers, cap);
  return merged;
}

/// merge_thread_vectors, but into a caller-owned destination whose capacity
/// is reused across calls (resize never shrinks capacity).  This is the
/// level-loop variant: a BFS engine that swaps two frontier vectors can run
/// an entire traversal without a single per-level allocation once the
/// buffers have grown to their high-water mark.  Returns the merged size.
template <class T>
std::size_t merge_thread_vectors_into(std::vector<T>& out, per_thread<std::vector<T>>& buffers,
                                      merge_capacity cap  = merge_capacity::keep,
                                      thread_pool&   pool = thread_pool::default_pool()) {
  std::vector<std::size_t> sizes(buffers.size());
  for (std::size_t b = 0; b < buffers.size(); ++b) sizes[b] = buffers.local(b).size();
  std::size_t total  = 0;
  auto        chunks = detail::plan_block_copies(sizes, 0, total, pool);
  out.resize(total);
  parallel_for(
      0, chunks.size(),
      [&](std::size_t c) {
        const auto& ck  = chunks[c];
        const auto& src = buffers.local(ck.buf);
        std::copy(src.begin() + static_cast<std::ptrdiff_t>(ck.src_begin),
                  src.begin() + static_cast<std::ptrdiff_t>(ck.src_begin + ck.len),
                  out.begin() + static_cast<std::ptrdiff_t>(ck.dst_begin));
      },
      blocked{}, pool);
  detail::reset_buffers(buffers, cap);
  return total;
}

}  // namespace nw::par
