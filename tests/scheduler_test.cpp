// The work-stealing scheduler (util/scheduler.h): full coverage of submit /
// parallel_for semantics, steal correctness (every task runs exactly once,
// wherever it runs), nested parallel_for from workers and from submitted
// tasks, exception propagation with full chunk joins, counter semantics,
// and campaign count-identity against a serial oracle at every size.
// This test runs under the TSan CI job — the deque protocol, the idle
// backoff and the help-first join are exactly the code paths a race would
// hide in.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "util/scheduler.h"

namespace ft {
namespace {

TEST(Scheduler, ParallelForCoversAllIndices) {
  util::Scheduler sched(4);
  std::vector<std::atomic<int>> hits(1000);
  sched.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ZeroCountIsNoop) {
  util::Scheduler sched(2);
  sched.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(Scheduler, SingleWorkerRunsEverythingInline) {
  util::Scheduler sched(1);
  std::vector<std::atomic<int>> hits(100);
  sched.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  std::atomic<int> x{0};
  sched.submit([&] { x = 7; }).get();
  EXPECT_EQ(x.load(), 7);
}

TEST(Scheduler, SubmitRunsAndCompletes) {
  util::Scheduler sched(2);
  std::atomic<int> x{0};
  auto f = sched.submit([&] { x = 42; });
  f.get();
  EXPECT_EQ(x.load(), 42);
}

TEST(Scheduler, SubmitFromManyExternalThreads) {
  util::Scheduler sched(3);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::future<void>> futures;
      futures.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        futures.push_back(sched.submit([&] { ran.fetch_add(1); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

TEST(Scheduler, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    util::Scheduler sched(2);
    for (int i = 0; i < 64; ++i) {
      sched.submit([&] { ran.fetch_add(1); });
    }
  }  // ~Scheduler joins after draining
  EXPECT_EQ(ran.load(), 64);
}

// Steal correctness: a worker pushes subtasks to its OWN deque and then
// busy-waits without helping; the only way the subtasks can run is another
// worker stealing them. Every subtask must run exactly once and the steal
// counter must move.
TEST(Scheduler, StealsExecuteEachTaskExactlyOnce) {
  util::Scheduler sched(2);
  constexpr int kSub = 64;
  std::vector<std::atomic<int>> hits(kSub);
  std::atomic<int> done{0};
  auto f = sched.submit([&] {
    // Runs on a worker: these pushes go to the worker's own deque.
    for (int i = 0; i < kSub; ++i) {
      sched.submit([&, i] {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
        done.fetch_add(1);
      });
    }
    // Busy-wait (not helping): the other worker must steal.
    while (done.load() < kSub) std::this_thread::yield();
  });
  f.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(sched.steals(), 1u);
}

TEST(Scheduler, NestedParallelForFromParallelFor) {
  util::Scheduler sched(3);
  std::atomic<int> total{0};
  sched.parallel_for(4, [&](std::size_t) {
    sched.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 200);
}

TEST(Scheduler, NestedParallelForFromSubmittedTask) {
  util::Scheduler sched(2);
  std::atomic<int> total{0};
  auto f = sched.submit([&] {
    sched.parallel_for(100, [&](std::size_t) { total.fetch_add(1); });
  });
  f.get();
  EXPECT_EQ(total.load(), 100);
}

TEST(Scheduler, ConcurrentParallelForsFromManyThreads) {
  util::Scheduler sched(4);
  constexpr int kThreads = 6;
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sched.parallel_for(200, [&](std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), kThreads * 200);
}

// Exception propagation: the first thrown exception surfaces to the caller,
// and EVERY claimed chunk joins before the throw — entered never exceeds
// exited once parallel_for returns, so no chunk can still be touching the
// (caller-owned) fn.
TEST(Scheduler, ExceptionPropagatesAfterFullJoin) {
  util::Scheduler sched(4);
  std::atomic<int> entered{0};
  std::atomic<int> exited{0};
  auto run = [&] {
    sched.parallel_for(300, [&](std::size_t i) {
      entered.fetch_add(1);
      if (i == 37) {
        exited.fetch_add(1);
        throw std::runtime_error("chunk failure");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      exited.fetch_add(1);
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  EXPECT_EQ(entered.load(), exited.load());
  // The scheduler survives: the same executor runs clean work afterwards.
  std::atomic<int> after{0};
  sched.parallel_for(100, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(Scheduler, ExceptionCancelsRemainingChunks) {
  util::Scheduler sched(2);
  std::atomic<int> ran{0};
  auto run = [&] {
    sched.parallel_for(100000, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 0) throw std::runtime_error("early");
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // Cancellation is cooperative per chunk, so some chunks run — but nothing
  // close to the full range once the error is recorded.
  EXPECT_LT(ran.load(), 100000);
}

TEST(Scheduler, CounterSemantics) {
  util::Scheduler sched(2);
  EXPECT_EQ(sched.parallel_for_calls(), 0u);
  EXPECT_EQ(sched.tasks_submitted(), 0u);
  EXPECT_EQ(sched.steals(), 0u);

  sched.parallel_for(64, [](std::size_t) {});
  EXPECT_EQ(sched.parallel_for_calls(), 1u);
  const auto after_pf = sched.tasks_submitted();
  EXPECT_GE(after_pf, 1u);  // helper drain tasks

  sched.submit([] {}).get();
  EXPECT_EQ(sched.tasks_submitted(), after_pf + 1);
  EXPECT_GE(sched.queue_depth_max(), 1u);
  EXPECT_EQ(sched.size(), 2u);
}

// Campaign counts are schedule-invariant: the scheduler at every worker
// count reproduces an executor-free oracle — a plain loop of
// fault::run_trial over the prepared plans on the test thread. The
// scheduler changes WHERE trials run, never what they compute.
TEST(Scheduler, CampaignCountsMatchSerialRunTrialAtAllSizes) {
  core::AnalysisSession session(apps::build_app("CG"));
  fault::CampaignConfig cfg;
  cfg.trials = 24;
  cfg.seed = 12345;
  ASSERT_TRUE(cfg.fork.enabled);

  // The whole-program population: its trials fork deep enough into the
  // golden run that the scheduler legs take the snapshot path.
  const auto sites = session.whole_program_sites();
  const auto golden = session.golden();
  const auto prepared = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, session.app().base, cfg);
  ASSERT_EQ(prepared.plans.size(), cfg.trials);
  fault::CampaignResult oracle;
  oracle.trials = prepared.plans.size();
  for (const auto& plan : prepared.plans) {
    switch (fault::run_trial(*session.program(), prepared, plan,
                             golden->outputs, session.app().verifier)) {
      case fault::Outcome::VerificationSuccess: ++oracle.success; break;
      case fault::Outcome::VerificationFailed: ++oracle.failed; break;
      case fault::Outcome::Crashed: ++oracle.crashed; break;
      case fault::Outcome::DetectedRecovered:
        ++oracle.detected_recovered;
        break;
      case fault::Outcome::DetectedUnrecoverable:
        ++oracle.detected_unrecoverable;
        break;
    }
  }

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    util::Scheduler sched(workers);
    cfg.pool = &sched;
    const auto got = session.app_campaign(cfg);
    EXPECT_EQ(got.trials, oracle.trials) << workers;
    EXPECT_EQ(got.success, oracle.success) << workers;
    EXPECT_EQ(got.failed, oracle.failed) << workers;
    EXPECT_EQ(got.crashed, oracle.crashed) << workers;
    EXPECT_EQ(got.detected_recovered, oracle.detected_recovered) << workers;
    EXPECT_EQ(got.detected_unrecoverable, oracle.detected_unrecoverable)
        << workers;
    EXPECT_EQ(got.population_bits, prepared.population_bits) << workers;
    // Forking was on: the scheduler leg really took the snapshot path.
    EXPECT_GT(got.snapshots_taken, 0u) << workers;
  }
}

}  // namespace
}  // namespace ft
