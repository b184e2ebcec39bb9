// CampaignService (core/service.h): concurrent identical and distinct
// requests produce reports bit-identical to serial run_analysis, with the
// golden work deduplicated — proven by the trials_executed /
// golden_traced_instructions counters, not by timing. Also covers session
// sharing, progress streaming, storeless operation and failure isolation.
// Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/analysis.h"
#include "core/service.h"
#include "fault/campaign.h"
#include "store/artifact_store.h"
#include "util/scheduler.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = testing::TempDir() + "ft_service_XXXXXX";
    path = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

fault::CampaignConfig small_campaign() {
  fault::CampaignConfig cfg;
  cfg.trials = 16;
  cfg.seed = 424242;
  return cfg;
}

core::AnalysisRequest app_request(const std::string& name) {
  return core::AnalysisRequest().app(name).app_campaign(small_campaign());
}

void expect_same_counts(const fault::CampaignResult& got,
                        const fault::CampaignResult& want) {
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.detected_recovered, want.detected_recovered);
  EXPECT_EQ(got.detected_unrecoverable, want.detected_unrecoverable);
  EXPECT_EQ(got.population_bits, want.population_bits);
}

// The acceptance shape: N concurrent identical requests through one service
// yield counts bit-identical to a serial run_analysis, and the expensive
// work ran once — the summed trials_executed across all N equals the serial
// run's, and the golden trace was produced by exactly one session.
TEST(CampaignService, ConcurrentIdenticalRequestsMatchSerialWithDedup) {
  TempDir serial_dir;
  const auto baseline =
      core::run_analysis(app_request("CG").store_dir(serial_dir.path));
  ASSERT_TRUE(baseline.find_app("CG") != nullptr);
  ASSERT_TRUE(baseline.find_app("CG")->whole_app.has_value());
  ASSERT_GT(baseline.trials_executed, 0u);
  ASSERT_GT(baseline.golden_traced_instructions, 0u);

  constexpr int kRequests = 8;
  TempDir service_dir;
  util::Scheduler sched(4);
  core::ServiceOptions opts;
  opts.scheduler = &sched;
  opts.store_dir = service_dir.path;
  core::CampaignService service(opts);

  std::vector<std::future<core::AnalysisReport>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.submit(app_request("CG")));
  }

  std::size_t executed_sum = 0;
  for (auto& f : futures) {
    const auto report = f.get();
    const auto* app = report.find_app("CG");
    ASSERT_TRUE(app != nullptr);
    ASSERT_TRUE(app->whole_app.has_value());
    expect_same_counts(*app->whole_app,
                       *baseline.find_app("CG")->whole_app);
    executed_sum += report.trials_executed;
  }
  // Dedup proof 1: the trials ran once across all eight requests — every
  // other request was served by the store (waiting on the in-flight compute
  // when it overlapped), so the summed trials_executed equals the serial
  // run's, not eight times it.
  EXPECT_EQ(executed_sum, baseline.trials_executed);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_admitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.requests_completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(stats.sessions_shared, static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_EQ(stats.inflight, 0u);

  // Dedup proof 2: ONE shared session served all eight requests and traced
  // the golden run exactly once — its lifetime traced-instruction counter
  // equals the serial run's per-request figure.
  EXPECT_EQ(service.session_for("CG")->traced_instructions_executed(),
            baseline.golden_traced_instructions);
}

// Distinct requests interleave on the same scheduler without contaminating
// each other: each app's counts match its own serial baseline.
TEST(CampaignService, DistinctConcurrentRequestsMatchTheirSerialRuns) {
  const auto base_cg = core::run_analysis(app_request("CG"));
  const auto base_mg = core::run_analysis(app_request("MG"));

  TempDir dir;
  util::Scheduler sched(4);
  core::ServiceOptions opts;
  opts.scheduler = &sched;
  opts.store_dir = dir.path;
  core::CampaignService service(opts);
  auto f_cg = service.submit(app_request("CG"));
  auto f_mg = service.submit(app_request("MG"));
  auto f_cg2 = service.submit(app_request("CG"));

  const auto r_cg = f_cg.get();
  const auto r_mg = f_mg.get();
  const auto r_cg2 = f_cg2.get();
  expect_same_counts(*r_cg.find_app("CG")->whole_app,
                     *base_cg.find_app("CG")->whole_app);
  expect_same_counts(*r_mg.find_app("MG")->whole_app,
                     *base_mg.find_app("MG")->whole_app);
  expect_same_counts(*r_cg2.find_app("CG")->whole_app,
                     *base_cg.find_app("CG")->whole_app);

  EXPECT_EQ(service.stats().sessions_created, 2u);  // CG and MG
}

TEST(CampaignService, SessionForSharesOneSessionPerName) {
  core::CampaignService service;
  auto a = service.session_for("CG");
  auto b = service.session_for("CG");
  EXPECT_EQ(a.get(), b.get());
  const auto stats = service.stats();
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(stats.sessions_shared, 1u);
}

TEST(CampaignService, StorelessServiceMatchesSerial) {
  const auto baseline = core::run_analysis(app_request("CG"));
  core::CampaignService service;  // no store, default scheduler
  const auto report = service.run(app_request("CG"));
  expect_same_counts(*report.find_app("CG")->whole_app,
                     *baseline.find_app("CG")->whole_app);
  EXPECT_FALSE(service.store());
}

// Progress streaming: snapshots are tagged with the request id, trials_done
// is monotone, and the final done == true snapshot carries the unit's exact
// report counts.
TEST(CampaignService, StreamsMonotoneProgressEndingInFinalCounts) {
  core::CampaignService service;
  std::mutex mu;
  std::vector<core::ServiceSnapshot> snaps;
  const auto report = service.run(
      app_request("CG"), [&](const core::ServiceSnapshot& s) {
        std::lock_guard lock(mu);
        snaps.push_back(s);
      });
  ASSERT_FALSE(snaps.empty());
  std::size_t prev_done = 0;
  for (const auto& s : snaps) {
    EXPECT_EQ(s.request_id, snaps.front().request_id);
    EXPECT_TRUE(s.unit.whole_app);
    EXPECT_EQ(s.unit.app, "CG");
    EXPECT_GE(s.unit.trials_done, prev_done);
    prev_done = s.unit.trials_done;
  }
  const auto& last = snaps.back();
  EXPECT_TRUE(last.unit.done);
  const auto& want = *report.find_app("CG")->whole_app;
  EXPECT_EQ(last.unit.trials_done, want.trials);
  EXPECT_EQ(last.unit.success, want.success);
  EXPECT_EQ(last.unit.failed, want.failed);
  EXPECT_EQ(last.unit.crashed, want.crashed);
}

// Requests that name a module by its spec run against a per-request view of
// the shared store, and the golden-trace lineage calls (store/lineage.h)
// must reach the shared store through it like every other store call. Four
// concurrent requests for four constant edits of one app, against a store
// holding the pristine module's lineage root, all splice onto that root —
// the root is created once, on the shared store — and their counts match
// storeless runs of the same edits.
TEST(CampaignService, ConcurrentEditedSpecRequestsSpliceOnTheSharedStore) {
  TempDir dir;
  auto shared = std::make_shared<store::ArtifactStore>(dir.path + "/store");
  util::Scheduler sched(4);
  core::ServiceOptions opts;
  opts.scheduler = &sched;
  opts.store = shared;
  core::CampaignService service(opts);
  const auto request = [](const apps::AppSpec& spec) {
    return core::AnalysisRequest().app(spec).app_campaign(small_campaign());
  };

  const auto spec = apps::build_app("CG");
  const auto pristine = service.run(request(spec));
  const auto n = pristine.golden_traced_instructions;
  ASSERT_GT(n, 0u);
  ASSERT_EQ(shared->counters().lineage_roots, 1u);

  // The four last f64 constants in module order whose edited runs complete.
  std::vector<apps::AppSpec> edits;
  for (std::uint32_t f = spec.module.num_functions(); f-- > 0;) {
    const auto& blocks = spec.module.function(f).blocks;
    for (std::size_t b = blocks.size(); b-- > 0;) {
      for (std::size_t i = blocks[b].instrs.size(); i-- > 0;) {
        if (edits.size() == 4) break;
        auto e = spec;
        bool changed = false;
        for (auto& op : e.module.function(f).blocks[b].instrs[i].ops) {
          if (op.kind != ir::OperandKind::ImmF) continue;
          op.imm_f = op.imm_f * 1.0009765625 + 0.0009765625;
          changed = true;
        }
        if (!changed) continue;
        const auto program = vm::DecodedProgram::decode(e.module);
        if (vm::Vm::run(program, e.base).completed()) {
          edits.push_back(std::move(e));
        }
      }
    }
  }
  ASSERT_EQ(edits.size(), 4u);

  const auto before = shared->counters();
  std::vector<std::future<core::AnalysisReport>> futures;
  for (const auto& e : edits) futures.push_back(service.submit(request(e)));
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const auto report = futures[i].get();
    const auto baseline = core::run_analysis(request(edits[i]));
    const auto* got = report.find_app(spec.name);
    const auto* want = baseline.find_app(spec.name);
    ASSERT_TRUE(got != nullptr && got->whole_app.has_value());
    ASSERT_TRUE(want != nullptr && want->whole_app.has_value());
    expect_same_counts(*got->whole_app, *want->whole_app);
    EXPECT_LT(report.golden_traced_instructions, n) << "edit " << i;
  }
  const auto after = shared->counters();
  EXPECT_EQ(after.lineage_roots, 1u);
  EXPECT_EQ(after.corrupt, 0u);
  // Each edit read its lineage record and its root prefix on the shared
  // store, and published one derived trace there.
  EXPECT_GE(after.hits - before.hits, 2 * edits.size());
  std::size_t derived = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path + "/store/traces")) {
    derived += entry.path().extension() == ".ftderived" ? 1 : 0;
  }
  EXPECT_EQ(derived, edits.size());
  EXPECT_TRUE(std::filesystem::is_empty(dir.path + "/store/tmp"));
}

// A request's view over the shared store is not a second open of it: a
// dead writer's tmp/ scratch planted after the service opened its store
// survives a request, because only opening a store sweeps tmp/.
TEST(CampaignService, RequestViewsDoNotReopenTheSharedStore) {
  // A guaranteed-dead pid: fork a child that exits immediately and reap it.
  const pid_t dead = fork();
  ASSERT_NE(dead, -1);
  if (dead == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(dead, &status, 0), dead);

  TempDir dir;
  core::ServiceOptions opts;
  opts.store_dir = dir.path;
  core::CampaignService service(opts);
  ASSERT_TRUE(service.store());
  const std::string orphan = dir.path + "/tmp/" + std::to_string(dead) + ".0";
  std::ofstream(orphan) << "scratch";

  const auto report = service.run(app_request("CG"));
  ASSERT_TRUE(report.find_app("CG") != nullptr);
  EXPECT_TRUE(std::filesystem::exists(orphan));
  EXPECT_EQ(service.store()->counters().stale_tmp_swept, 0u);
}

// A failing request resolves its future with the thrown exception and does
// not wedge the service: subsequent requests still complete.
TEST(CampaignService, FailedRequestPropagatesAndServiceSurvives) {
  core::CampaignService service;
  auto bad = service.submit(app_request("NO-SUCH-APP"));
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(service.stats().requests_failed, 1u);

  const auto report = service.run(app_request("CG"));
  EXPECT_TRUE(report.find_app("CG")->whole_app.has_value());
  EXPECT_EQ(service.stats().requests_completed, 1u);
}

}  // namespace
}  // namespace ft
