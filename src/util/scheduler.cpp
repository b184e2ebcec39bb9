#include "util/scheduler.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace ft::util {

namespace {

// Worker identity: which scheduler this thread belongs to (if any) and its
// deque index. External threads never set it, so `t_sched == this` cleanly
// distinguishes owner-LIFO operations from external round-robin ones.
thread_local Scheduler* t_sched = nullptr;
thread_local std::size_t t_index = 0;

// Cheap per-thread xorshift for randomized victim selection. Steal order
// never affects results (chunks are self-contained and counts commutative),
// it only spreads contention.
std::size_t cheap_rand() {
  thread_local std::uint64_t state =
      0x9E3779B97F4A7C15ull ^
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id()));
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return static_cast<std::size_t>(state);
}

}  // namespace

Scheduler::Scheduler(std::size_t n) {
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  deques_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (auto& th : threads_) th.join();
}

void Scheduler::push(Task t) {
  const std::size_t n = deques_.size();
  const std::size_t at =
      (t_sched == this)
          ? t_index
          : rr_.fetch_add(1, std::memory_order_relaxed) % n;
  std::size_t depth = 0;
  {
    std::lock_guard lock(deques_[at]->mu);
    deques_[at]->q.push_back(std::move(t));
    depth = deques_[at]->q.size();
  }
  std::uint64_t prev = depth_max_.load(std::memory_order_relaxed);
  while (depth > prev && !depth_max_.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    // Serialize with the idle predicate check so a worker between "saw
    // pending == 0" and "went to sleep" cannot miss this notify.
    std::lock_guard lock(idle_mu_);
  }
  idle_cv_.notify_one();
}

bool Scheduler::take(Task& out, bool helpers_only) {
  const std::size_t n = deques_.size();
  const bool owner = (t_sched == this);

  // Owner first: newest task at the back of our own deque (LIFO keeps the
  // working set hot and nested parallel_for chunks near their parent).
  if (owner) {
    Deque& d = *deques_[t_index];
    std::lock_guard lock(d.mu);
    if (!helpers_only) {
      if (!d.q.empty()) {
        out = std::move(d.q.back());
        d.q.pop_back();
        pending_.fetch_sub(1, std::memory_order_acq_rel);
        return true;
      }
    } else {
      for (auto it = d.q.rbegin(); it != d.q.rend(); ++it) {
        if (it->helper) {
          out = std::move(*it);
          d.q.erase(std::next(it).base());
          pending_.fetch_sub(1, std::memory_order_acq_rel);
          return true;
        }
      }
    }
  }

  // Steal: oldest task (FIFO front — the coarsest outstanding work) from a
  // randomly chosen victim, scanning all deques once.
  const std::size_t start = cheap_rand() % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (owner && v == t_index) continue;
    Deque& d = *deques_[v];
    std::lock_guard lock(d.mu);
    if (d.q.empty()) continue;
    if (!helpers_only) {
      out = std::move(d.q.front());
      d.q.pop_front();
    } else {
      auto it = d.q.begin();
      while (it != d.q.end() && !it->helper) ++it;
      if (it == d.q.end()) continue;
      out = std::move(*it);
      d.q.erase(it);
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Scheduler::worker_loop(std::size_t index) {
  t_sched = this;
  t_index = index;
  for (;;) {
    Task t;
    if (take(t, /*helpers_only=*/false)) {
      t.fn();
      continue;
    }
    std::unique_lock lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

std::future<void> Scheduler::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  auto fut = packaged->get_future();
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  push(Task{[packaged] { (*packaged)(); }, /*helper=*/false});
  return fut;
}

void Scheduler::parallel_for(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t nworkers = size();
  if (count == 1 || nworkers <= 1) {
    // Serial fast path: no helpers, exceptions propagate directly with no
    // outstanding references to join.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Shared chunk-claim state, heap-owned by every helper closure: even if a
  // helper runs after this frame would have unwound, everything it touches
  // is alive — and the join below means the frame never unwinds early
  // anyway.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> outstanding{0};
    std::atomic<bool> cancelled{false};
    std::size_t count = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr first_error;

    void drain() noexcept {
      for (;;) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const std::size_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) return;
        const std::size_t end = std::min(begin + chunk, count);
        try {
          for (std::size_t i = begin; i < end; ++i) (*fn)(i);
        } catch (...) {
          std::lock_guard lock(mu);
          if (!first_error) first_error = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
    }
  };

  auto st = std::make_shared<State>();
  st->count = count;
  // Fine-grained claiming: chunk 1 until the range is huge relative to the
  // worker count. One relaxed fetch_add per trial is noise next to a VM
  // execution, and the imbalance tail shrinks to a single slowest element.
  st->chunk = std::max<std::size_t>(1, count / (nworkers * 64));
  st->fn = &fn;

  const std::size_t nchunks = (count + st->chunk - 1) / st->chunk;
  const std::size_t nhelpers = std::min(nchunks - 1, nworkers);
  st->outstanding.store(nhelpers, std::memory_order_relaxed);
  tasks_submitted_.fetch_add(nhelpers, std::memory_order_relaxed);
  for (std::size_t h = 0; h < nhelpers; ++h) {
    push(Task{[st] {
                st->drain();
                if (st->outstanding.fetch_sub(
                        1, std::memory_order_acq_rel) == 1) {
                  std::lock_guard lock(st->mu);
                  st->cv.notify_all();
                }
              },
              /*helper=*/true});
  }

  st->drain();  // the calling thread participates

  // Help-first join: while our helpers are outstanding, run other queued
  // drain tasks (our own or other concurrent parallel_fors') instead of
  // blocking. This makes nested parallel_for deadlock-free — a waiter is
  // always also a worker — and keeps a parallel_for from waiting on
  // unrelated queued work to drain.
  while (st->outstanding.load(std::memory_order_acquire) != 0) {
    Task t;
    if (take(t, /*helpers_only=*/true)) {
      t.fn();
      continue;
    }
    std::unique_lock lock(st->mu);
    st->cv.wait(lock, [&] {
      return st->outstanding.load(std::memory_order_acquire) == 0;
    });
  }
  if (st->first_error) std::rethrow_exception(st->first_error);
}

Scheduler& global_scheduler() {
  static Scheduler sched;
  return sched;
}

}  // namespace ft::util
