// tests/test_nwpar.cpp — unit and property tests for the parallel runtime
// (the oneTBB substitute): pool dispatch, the three partitioning
// strategies, reductions, per-thread buffers, parallel sort and the cyclic
// range adaptors of Sec. III-D.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwgraph/edge_list.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwpar/parallel_sort.hpp"
#include "nwpar/range_adaptors.hpp"
#include "nwpar/thread_pool.hpp"
#include "nwutil/rng.hpp"
#include "test_util.hpp"

using namespace nw::par;

TEST(ThreadPool, RunsJobOnEveryContext) {
  thread_pool       pool(4);
  std::atomic<int>  count{0};
  std::vector<char> seen(4, 0);
  pool.run([&](unsigned tid) {
    seen[tid] = 1;
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
  for (auto s : seen) EXPECT_EQ(s, 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  thread_pool pool(1);
  int         runs = 0;
  pool.run([&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, ZeroRequestClampsToOne) {
  thread_pool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
}

TEST(ThreadPool, ReusableAcrossDispatches) {
  thread_pool      pool(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 50; ++i) {
    pool.run([&](unsigned) { ++total; });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, ThrowingJobIsRethrownAfterEveryContextReturns) {
  // A throw on a worker, then on context 0 (the caller): run() waits for
  // every other context to finish its job before rethrowing on the
  // caller, and the pool keeps working afterwards.
  thread_pool      pool(4);
  std::atomic<int> finished{0};
  auto             job_throwing_on = [&](unsigned thrower) {
    return [&, thrower](unsigned tid) {
      if (tid == thrower) throw std::runtime_error("context " + std::to_string(tid));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    };
  };
  for (unsigned thrower : {2u, 0u}) {
    SCOPED_TRACE("thrower=" + std::to_string(thrower));
    finished = 0;
    try {
      pool.run(job_throwing_on(thrower));
      ADD_FAILURE() << "run() swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "context " + std::to_string(thrower));
    }
    EXPECT_EQ(finished.load(), 3) << "run() returned before the other contexts finished";
  }
  std::atomic<int> ran{0};
  pool.run([&](unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
  // The same holds for a parallel_for body; the pool stays usable after.
  EXPECT_THROW(parallel_for(
                   0, 1000,
                   [](std::size_t i) {
                     if (i == 500) throw std::logic_error("body");
                   },
                   blocked{}, pool),
               std::logic_error);
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 1000, [&](std::size_t i) { sum.fetch_add(i); }, blocked{}, pool);
  EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
}

TEST(ThreadPool, DefaultConcurrencyResize) {
  thread_pool::set_default_concurrency(2);
  EXPECT_EQ(num_threads(), 2u);
  thread_pool::set_default_concurrency(4);
  EXPECT_EQ(num_threads(), 4u);
}

namespace {

/// Two threads make the process's first default_pool() call at once; exits
/// 0 iff both got the same pool and a parallel_for on it completes.
[[noreturn]] void race_first_default_pool_calls() {
  if (detail::default_pool_slot()) std::exit(3);  // not the first call
  std::latch   start(2);
  thread_pool* seen[2] = {nullptr, nullptr};
  auto         first_call = [&](int k) {
    start.arrive_and_wait();
    seen[k] = &thread_pool::default_pool();
  };
  std::thread a(first_call, 0);
  std::thread b(first_call, 1);
  a.join();
  b.join();
  if (seen[0] != seen[1]) std::exit(1);
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 1000, [&](std::size_t i) { sum.fetch_add(i); }, blocked{}, *seen[0]);
  std::exit(sum.load() == 999u * 1000u / 2u ? 0 : 2);
}

}  // namespace

TEST(ThreadPoolDeathTest, ConcurrentFirstDefaultPoolCallsShareOnePool) {
  // The threadsafe style re-executes the binary for the child, so no other
  // test in it has created the default pool yet.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(race_first_default_pool_calls(), ::testing::ExitedWithCode(0), "");
}

// --- parallel_for across strategies and pool sizes ------------------------

class ParallelForParam : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(ParallelForParam, BlockedCoversEachIndexOnce) {
  auto [threads, n] = GetParam();
  thread_pool           pool(threads);
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, blocked{}, pool);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(ParallelForParam, CyclicCoversEachIndexOnce) {
  auto [threads, n] = GetParam();
  thread_pool                   pool(threads);
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, cyclic{}, pool);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForParam, StaticBlockedCoversEachIndexOnce) {
  auto [threads, n] = GetParam();
  thread_pool                   pool(threads);
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, static_blocked{}, pool);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForParam, SumMatchesSerial) {
  auto [threads, n] = GetParam();
  thread_pool                pool(threads);
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, n, [&](std::size_t i) { sum.fetch_add(i); }, blocked{}, pool);
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(PoolAndSize, ParallelForParam,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                                            ::testing::Values(std::size_t{1}, std::size_t{13},
                                                              std::size_t{1000},
                                                              std::size_t{4096})));

TEST(ParallelFor, EmptyRangeIsNoOp) {
  thread_pool pool(4);
  int         count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; }, blocked{}, pool);
  parallel_for(7, 3, [&](std::size_t) { ++count; }, cyclic{}, pool);
  EXPECT_EQ(count, 0);
}

TEST(ParallelFor, NonZeroBeginRespected) {
  thread_pool      pool(4);
  std::atomic<int> count{0};
  std::atomic<int> bad{0};
  parallel_for(
      100, 200,
      [&](std::size_t i) {
        if (i < 100 || i >= 200) ++bad;
        ++count;
      },
      blocked{}, pool);
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelFor, TidBodyVariantGetsValidIds) {
  thread_pool       pool(4);
  std::atomic<int>  bad{0};
  parallel_for(
      0, 1000,
      [&](unsigned tid, std::size_t) {
        if (tid >= 4) ++bad;
      },
      blocked{}, pool);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelFor, CyclicWithExplicitBins) {
  thread_pool                   pool(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); }, cyclic{17}, pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, BlockedWithExplicitGrain) {
  thread_pool                   pool(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); }, blocked{7}, pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- parallel_reduce ---------------------------------------------------------

TEST(ParallelReduce, SumOfSquares) {
  thread_pool pool(4);
  auto        result = parallel_reduce(
      0, 1000, std::uint64_t{0},
      [](std::uint64_t acc, std::size_t i) { return acc + static_cast<std::uint64_t>(i) * i; },
      std::plus<>{}, pool);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) expected += i * i;
  EXPECT_EQ(result, expected);
}

TEST(ParallelReduce, BoolOrSemantics) {
  thread_pool pool(4);
  auto any = parallel_reduce(
      0, 10000, false, [](bool acc, std::size_t i) { return acc || i == 7777; },
      [](bool a, bool b) { return a || b; }, pool);
  EXPECT_TRUE(any);
  auto none = parallel_reduce(
      0, 10000, false, [](bool acc, std::size_t) { return acc; },
      [](bool a, bool b) { return a || b; }, pool);
  EXPECT_FALSE(none);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  thread_pool pool(4);
  auto        r = parallel_reduce(
      3, 3, 42, [](int acc, std::size_t) { return acc + 1; }, std::plus<>{}, pool);
  EXPECT_EQ(r, 42);
}

// --- per_thread / merge ------------------------------------------------------

TEST(PerThread, MergePreservesAllElements) {
  thread_pool                           pool(4);
  per_thread<std::vector<std::size_t>> buffers(pool);
  parallel_for(
      0, 10000, [&](unsigned tid, std::size_t i) { buffers.local(tid).push_back(i); }, blocked{},
      pool);
  auto merged = merge_thread_vectors(buffers);
  EXPECT_EQ(merged.size(), 10000u);
  std::sort(merged.begin(), merged.end());
  for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], i);
}

TEST(PerThread, SlotsAreIndependent) {
  thread_pool      pool(3);
  per_thread<int> slots(pool);
  EXPECT_EQ(slots.size(), 3u);
  slots.local(0) = 1;
  slots.local(2) = 5;
  EXPECT_EQ(slots.local(0), 1);
  EXPECT_EQ(slots.local(1), 0);
  EXPECT_EQ(slots.local(2), 5);
}

// --- parallel_sort --------------------------------------------------------------

class ParallelSortParam : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(ParallelSortParam, MatchesStdSort) {
  auto [threads, n] = GetParam();
  thread_pool  pool(threads);
  nw::xoshiro256ss rng(n * 31 + threads);
  std::vector<std::uint64_t> data(n);
  for (auto& x : data) x = rng.bounded(1000);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  parallel_sort(data.begin(), data.end(), std::less<>{}, pool);
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(PoolAndSize, ParallelSortParam,
                         ::testing::Combine(::testing::Values(1u, 3u, 4u),
                                            ::testing::Values(std::size_t{0}, std::size_t{1},
                                                              std::size_t{100},
                                                              std::size_t{100000})));

TEST(ParallelSort, CustomComparator) {
  thread_pool               pool(4);
  std::vector<int>          data(50000);
  nw::xoshiro256ss          rng(17);
  for (auto& x : data) x = static_cast<int>(rng.bounded(1000));
  parallel_sort(data.begin(), data.end(), std::greater<>{}, pool);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), std::greater<>{}));
}

// --- range adaptors (Sec. III-D) ----------------------------------------------

TEST(CyclicRange, BinsPartitionTheIndexSpace) {
  cyclic_range          range(103, 7);
  std::vector<int>      hits(103, 0);
  std::size_t           total = 0;
  for (std::size_t b = 0; b < range.num_bins(); ++b) {
    auto        bin      = range[b];
    std::size_t iterated = 0;
    for (auto i : bin) {
      ASSERT_LT(i, 103u);
      EXPECT_EQ(i % 7, b);
      ++hits[i];
      ++iterated;
    }
    EXPECT_EQ(iterated, bin.size());
    total += iterated;
  }
  EXPECT_EQ(total, 103u);
  for (auto h : hits) EXPECT_EQ(h, 1);
}

TEST(CyclicRange, MoreBinsThanElements) {
  cyclic_range range(3, 10);
  std::size_t  total = 0;
  for (std::size_t b = 0; b < range.num_bins(); ++b) {
    for (auto i : range[b]) {
      ASSERT_LT(i, 3u);
      ++total;
    }
  }
  EXPECT_EQ(total, 3u);
}

TEST(CyclicNeighborRange, YieldsIdAndNeighborhood) {
  // Path graph 0-1-2-3.
  nw::graph::edge_list<> el(4);
  el.push_back(0, 1);
  el.push_back(1, 0);
  el.push_back(1, 2);
  el.push_back(2, 1);
  el.push_back(2, 3);
  el.push_back(3, 2);
  nw::graph::adjacency<> g(el);

  cyclic_neighbor_range<const nw::graph::adjacency<>> range(g, 3);
  std::vector<int>                                    seen(4, 0);
  for (std::size_t b = 0; b < range.num_bins(); ++b) {
    for (auto&& [id, nbrs] : range[b]) {
      ++seen[id];
      std::size_t deg = 0;
      for (auto&& e : nbrs) {
        (void)e;
        ++deg;
      }
      EXPECT_EQ(deg, g.degree(id));
    }
  }
  for (auto s : seen) EXPECT_EQ(s, 1);
}

TEST(CyclicNeighborRange, ParallelDriverCoversAll) {
  nw::graph::edge_list<> el(50);
  for (nw::vertex_id_t v = 1; v < 50; ++v) {
    el.push_back(0, v);
    el.push_back(v, 0);
  }
  nw::graph::adjacency<>        g(el);
  thread_pool                   pool(4);
  std::vector<std::atomic<int>> hits(50);
  for_each_cyclic_neighborhood(
      g, 8,
      [&](unsigned, std::size_t id, auto&& nbrs) {
        hits[id].fetch_add(1);
        std::size_t deg = 0;
        for (auto&& e : nbrs) {
          (void)e;
          ++deg;
        }
        EXPECT_EQ(deg, g.degree(id));
      },
      pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}
