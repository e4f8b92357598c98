// nwpar/thread_pool.hpp
//
// Persistent worker pool underpinning every parallel algorithm in the
// framework.  This is our substitute for the oneTBB task scheduler the paper
// uses: NWHy's algorithms only need fork-join `parallel_for` over index
// ranges with a choice of partitioning strategy (blocked / cyclic /
// cyclic-neighbor), so a flat pool with dynamic chunk claiming provides the
// same load-balancing behaviour the paper attributes to work stealing —
// idle threads pick up the chunks stragglers have not claimed yet.
//
// The pool is created once and reused; a fork-join dispatch costs two
// condition-variable round trips: a no-op 64-item parallel_for takes about
// 20 us at 4 contexts on a 4-CPU x86 box (0.05 us on a 1-context pool,
// which runs inline), and one HyperBFS on a Friendster-shaped power-law
// input (8k hyperedges, 40k hypernodes) makes 15-18 dispatches.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "nwutil/defs.hpp"
#include "nwutil/env.hpp"

namespace nw::par {

class thread_pool {
public:
  /// A pool with `nthreads` execution contexts: the calling thread plus
  /// `nthreads - 1` persistent workers.
  explicit thread_pool(unsigned nthreads)
      : nthreads_(nthreads == 0 ? 1 : nthreads) {
    workers_.reserve(nthreads_ - 1);
    for (unsigned w = 1; w < nthreads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  thread_pool(const thread_pool&)            = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  ~thread_pool() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    cv_start_.notify_all();
    for (auto& t : workers_) t.join();
  }

  [[nodiscard]] unsigned concurrency() const { return nthreads_; }

  /// Execute `job(worker_id)` once on each of the pool's `concurrency()`
  /// contexts; worker_id 0 is the calling thread.  Blocks until all
  /// contexts return, even when some throw; then rethrows the first
  /// exception on the caller, and the pool stays usable.  Not reentrant
  /// (algorithms never nest dispatches).
  void run(const std::function<void(unsigned)>& job) {
    if (nthreads_ == 1) {
      job(0);
      return;
    }
    {
      std::lock_guard lock(mutex_);
      job_      = &job;
      n_active_ = nthreads_ - 1;
      ++generation_;
    }
    cv_start_.notify_all();
    try {
      job(0);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::exception_ptr error;
    {
      std::unique_lock lock(mutex_);
      cv_done_.wait(lock, [this] { return n_active_ == 0; });
      job_ = nullptr;
      error.swap(error_);
    }
    if (error) std::rethrow_exception(error);
  }

  /// Process-wide default pool.  Sized from NWHY_NUM_THREADS or the
  /// hardware concurrency at first use (safe when several threads make
  /// that first call at once); resizable by the benchmark harness.
  static thread_pool& default_pool();

  /// Resize the default pool (tears down and recreates workers).  Intended
  /// for the strong-scaling benchmark sweep; not thread-safe against
  /// concurrent dispatches.
  static void set_default_concurrency(unsigned nthreads);

private:
  void worker_loop(unsigned id) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock lock(mutex_);
        cv_start_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        job = job_;
      }
      std::exception_ptr error;
      if (job) {
        try {
          (*job)(id);
        } catch (...) {
          error = std::current_exception();
        }
      }
      {
        std::lock_guard lock(mutex_);
        if (error && !error_) error_ = std::move(error);
        if (--n_active_ == 0) cv_done_.notify_one();
      }
    }
  }

  unsigned                             nthreads_;
  std::vector<std::thread>             workers_;
  std::mutex                           mutex_;
  std::condition_variable              cv_start_;
  std::condition_variable              cv_done_;
  const std::function<void(unsigned)>* job_        = nullptr;
  std::exception_ptr                   error_;  ///< first throw of the current run
  std::uint64_t                        generation_ = 0;
  unsigned                             n_active_   = 0;
  bool                                 stop_       = false;
};

namespace detail {
inline std::unique_ptr<thread_pool>& default_pool_slot() {
  static std::unique_ptr<thread_pool> pool;
  return pool;
}
inline unsigned initial_concurrency() {
  // 0 is the "unset/invalid" sentinel: a valid NWHY_NUM_THREADS must be a
  // strictly positive integer (strict parse — "abc", "8x", "-4" and
  // overflowing values all warn once and fall back to hardware concurrency;
  // the previous std::atoi accepted junk silently and overflowed into UB).
  constexpr std::uint64_t max_threads = 65536;
  std::uint64_t n = nw::util::env_u64_strict("NWHY_NUM_THREADS", 0, 1, max_threads);
  if (n > 0) return static_cast<unsigned>(n);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
}  // namespace detail

inline thread_pool& thread_pool::default_pool() {
  auto& slot = detail::default_pool_slot();
  // A function-local static's initialiser runs exactly once even when
  // several threads make the first call at once; later calls pay one
  // guard load and take no lock.
  [[maybe_unused]] static const bool created = [&] {
    if (!slot) slot = std::make_unique<thread_pool>(detail::initial_concurrency());
    return true;
  }();
  return *slot;
}

inline void thread_pool::set_default_concurrency(unsigned nthreads) {
  detail::default_pool_slot() = std::make_unique<thread_pool>(nthreads);
}

/// Convenience: current default concurrency.
inline unsigned num_threads() { return thread_pool::default_pool().concurrency(); }

}  // namespace nw::par
