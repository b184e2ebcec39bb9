/// @file
/// Task execution for fault-injection campaigns (each injection run is an
/// independent VM execution) and the MiniMPI rank runtime. Follows CP.4 from
/// the C++ Core Guidelines: callers think in tasks; threads are an
/// implementation detail.
///
/// The work-stealing scheduler: one deque per worker, owner-LIFO push/pop
/// at the back, randomized FIFO stealing from the front, idle backoff on a
/// shared condition variable. Campaign runners that are not handed a
/// scheduler run on the process-wide `util::global_scheduler()`.
///
/// Campaign work is bursty and imbalanced — many microsecond scalar trials
/// mixed with multi-millisecond rank worlds and compose summaries. Each
/// `parallel_for` waiter therefore *helps* (it executes outstanding drain
/// tasks itself instead of sleeping), idle workers steal the oldest —
/// coarsest — work from a random victim, and chunk claiming is
/// fine-grained, so the tail of an imbalanced mix shrinks to the single
/// slowest trial.
///
/// Determinism: the scheduler only changes WHERE a chunk runs, never what
/// it computes — campaign plans are drawn up-front from the config seed and
/// counts aggregate through commutative atomics, so reports are
/// bit-identical to the serial baseline for every worker count and steal
/// interleaving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ft::util {

/// Work-stealing executor. Thread-safe: tasks and parallel_for calls may be
/// issued concurrently from any number of external threads and from worker
/// threads themselves (nested `parallel_for` is deadlock-free because
/// waiters drain outstanding chunk tasks instead of blocking).
class Scheduler {
 public:
  /// Creates `n` worker threads. n == 0 means hardware_concurrency().
  explicit Scheduler(std::size_t n = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Enqueue a task. A worker submitting pushes to its own deque (LIFO hot
  /// end); external threads round-robin across deques.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [0, count) and wait for all. Chunk claiming is
  /// fine-grained (one atomic fetch_add per chunk, chunk size ~1 unless the
  /// range is huge), and the caller both drains chunks and steals other
  /// parallel_for drain tasks while waiting. All chunks are joined before
  /// the first exception propagates.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // --- scheduling telemetry --------------------------------------------------
  // Monotonic counters since construction; the batching tests use them to
  // prove that a multi-region analysis dispatches as ONE work queue rather
  // than one parallel_for per region.
  /// Number of parallel_for invocations dispatched through this scheduler.
  [[nodiscard]] std::uint64_t parallel_for_calls() const noexcept {
    return parallel_for_calls_.load(std::memory_order_relaxed);
  }
  /// Number of tasks queued (parallel_for drain helpers + submit()s).
  [[nodiscard]] std::uint64_t tasks_submitted() const noexcept {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }
  /// Tasks executed by a thread other than the deque they were pushed to.
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any single worker deque's depth.
  [[nodiscard]] std::uint64_t queue_depth_max() const noexcept {
    return depth_max_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    // parallel_for drain helpers terminate quickly and never block on other
    // tasks, so a waiting thread may safely run them inline. Plain submit()
    // tasks (e.g. whole CampaignService requests, which can themselves wait
    // on in-flight artifact keys) are only ever run by the worker main loop.
    bool helper = false;
  };
  struct alignas(64) Deque {
    std::mutex mu;
    std::deque<Task> q;
  };

  void push(Task t);
  bool take(Task& out, bool helpers_only);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> threads_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool stop_ = false;  // guarded by idle_mu_
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> rr_{0};  // round-robin cursor for external pushes
  std::atomic<std::uint64_t> parallel_for_calls_{0};
  std::atomic<std::uint64_t> tasks_submitted_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> depth_max_{0};
};

/// Process-wide scheduler with hardware_concurrency() workers, constructed
/// lazily on first use — only when a caller leaves its scheduler seam unset.
Scheduler& global_scheduler();

}  // namespace ft::util
