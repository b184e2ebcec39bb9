// Cross-rank campaign engine: golden enumeration determinism, the outcome
// taxonomy, 4-rank CG/MG/LULESH campaign determinism across pool sizes and
// ForkPolicy settings (the acceptance gate of the multi-rank engine), and
// the nranks entry of the analysis request schema.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/rank_campaign.h"
#include "hl/builder.h"
#include "vm/decode.h"

namespace ft {
namespace {

struct RankedApp {
  apps::AppSpec spec;
  std::shared_ptr<const vm::DecodedProgram> program;
};

const RankedApp& ranked_app(const std::string& name) {
  static std::map<std::string, RankedApp>* cache =
      new std::map<std::string, RankedApp>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, RankedApp{apps::build_app(name), nullptr}).first;
    // Decode only after the spec has its final address: the decoded form
    // refers into the module it was decoded from.
    it->second.program = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(it->second.spec.module));
  }
  return it->second;
}

void expect_same_counts(const fault::RankCampaignResult& a,
                        const fault::RankCampaignResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.masked_locally, b.masked_locally);
  EXPECT_EQ(a.absorbed_by_collective, b.absorbed_by_collective);
  EXPECT_EQ(a.propagated, b.propagated);
  EXPECT_EQ(a.corrupted_output, b.corrupted_output);
  EXPECT_EQ(a.trapped, b.trapped);
  EXPECT_EQ(a.propagation_depth, b.propagation_depth);
  EXPECT_EQ(a.rank_trials, b.rank_trials);
  EXPECT_EQ(a.rank_success, b.rank_success);
}

TEST(RankEnumeration, GoldenPassIsDeterministic) {
  const auto& app = ranked_app("MG-RANKED");
  const auto a =
      fault::enumerate_rank_sites(app.program, 4, app.spec.base, false);
  const auto b =
      fault::enumerate_rank_sites(app.program, 4, app.spec.base, false);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  EXPECT_EQ(a.population_bits(), b.population_bits());
  EXPECT_EQ(a.fault_free_instructions, b.fault_free_instructions);
  EXPECT_EQ(a.first_comm_index, b.first_comm_index);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(a.golden_outputs[r], b.golden_outputs[r]);
    EXPECT_EQ(a.golden_comm[r], b.golden_comm[r]);
  }
  // Multi-rank golden execution verifies on every rank.
  for (std::size_t r = 0; r < 4; ++r) {
    ASSERT_FALSE(a.golden_outputs[r].empty());
    EXPECT_EQ(a.golden_outputs[r][0].as_i64(), 1) << "rank " << r;
  }
}

TEST(RankEnumeration, SitePopulationCoversEveryRank) {
  const auto& app = ranked_app("CG-RANKED");
  const auto en =
      fault::enumerate_rank_sites(app.program, 4, app.spec.base, false);
  std::size_t per_rank[4] = {0, 0, 0, 0};
  for (const auto& s : en.sites) {
    ASSERT_GE(s.rank, 0);
    ASSERT_LT(s.rank, 4);
    ASSERT_LT(s.dyn_index,
              en.fault_free_instructions[static_cast<std::size_t>(s.rank)]);
    per_rank[s.rank]++;
  }
  for (const auto n : per_rank) EXPECT_GT(n, 1000u);
}

// The acceptance gate: 4-rank CG, MG and LULESH campaigns produce
// deterministic cross-rank outcome counts, identical across pool sizes and
// ForkPolicy settings.
class RankedAppCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(RankedAppCampaign, FourRankCountsDeterministic) {
  const auto& app = ranked_app(GetParam());
  const auto en =
      fault::enumerate_rank_sites(app.program, 4, app.spec.base, false);
  fault::RankCampaignConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 24;
  const auto prepared =
      fault::prepare_rank_campaign(en, app.spec.base, cfg);
  ASSERT_EQ(prepared.plans.size(), 24u);
  auto prepared_nofork = prepared;
  prepared_nofork.fork.enabled = false;

  util::Scheduler pool1(1), pool2(2), pool8(8);
  const auto a =
      fault::run_rank_campaign(*app.program, prepared, app.spec.verifier,
                               pool8);
  EXPECT_EQ(a.nranks, 4);
  EXPECT_EQ(a.masked_locally + a.absorbed_by_collective + a.propagated +
                a.corrupted_output + a.trapped,
            a.trials);
  // Depth histogram covers exactly the non-trapped trials.
  std::size_t depth_total = 0;
  for (const auto d : a.propagation_depth) depth_total += d;
  EXPECT_EQ(depth_total, a.trials - a.trapped);
  // Per-rank rollups re-add to the totals.
  std::size_t rank_total = 0, rank_good = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    rank_total += a.rank_trials[r];
    rank_good += a.rank_success[r];
  }
  EXPECT_EQ(rank_total, a.trials);
  EXPECT_EQ(rank_good, a.success());

  expect_same_counts(a, fault::run_rank_campaign(*app.program, prepared,
                                                 app.spec.verifier, pool1));
  expect_same_counts(a, fault::run_rank_campaign(*app.program, prepared,
                                                 app.spec.verifier, pool2));
  expect_same_counts(
      a, fault::run_rank_campaign(*app.program, prepared_nofork,
                                  app.spec.verifier, pool8));
}

INSTANTIATE_TEST_SUITE_P(Apps, RankedAppCampaign,
                         ::testing::Values("CG-RANKED", "MG-RANKED",
                                           "LULESH-RANKED"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(RankCampaignForking, PrefixReuseActiveWhereCommFreePrefixExists) {
  // CG-RANKED's replicated makea gives every rank a long communication-free
  // prefix: the rank-local scheduler must actually take snapshots and save
  // prefix work — without changing any count (covered above).
  const auto& app = ranked_app("CG-RANKED");
  const auto en =
      fault::enumerate_rank_sites(app.program, 4, app.spec.base, false);
  for (const auto fc : en.first_comm_index) EXPECT_GT(fc, 1000u);
  fault::RankCampaignConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 32;
  const auto prepared = fault::prepare_rank_campaign(en, app.spec.base, cfg);
  const auto snapshots =
      fault::prepare_rank_snapshots(*app.program, prepared);
  EXPECT_GT(snapshots.snapshots_taken, 0u);
  util::Scheduler pool(4);
  const auto r =
      fault::run_rank_campaign(*app.program, prepared, app.spec.verifier,
                               pool);
  EXPECT_GT(r.snapshots_taken, 0u);
  EXPECT_GT(r.prefix_instructions_saved, 0u);
}

// ---------------------------------------------------------------------------
// The request schema: AnalysisSession::rank_campaign and
// AnalysisRequest::rank_campaign batching on the shared pool.
// ---------------------------------------------------------------------------

apps::AppSpec ring_spec() {
  hl::ProgramBuilder pb("ringapp");
  constexpr std::int64_t kCells = 16;
  auto g_a = pb.global_f64("a", kCells);
  const auto r_main = pb.declare_region("main", __LINE__, __LINE__);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto rank = f.mpi_rank();
    auto size = f.mpi_size();
    auto lo = rank * kCells / size;
    auto hi = (rank + 1) * kCells / size;
    f.for_("j", lo, hi,
           [&](hl::Value j) { f.st(g_a, j, f.sitofp(j) * 0.5 + 1.0); });
    f.for_("it", 0, 4, [&](hl::Value) {
      f.region(r_main, [&] {
        auto part = f.var_f64("part", 0.0);
        f.for_("j", lo, hi,
               [&](hl::Value j) { part.set(part.get() + f.ld(g_a, j)); });
        auto total = f.mpi_allreduce(part.get(), ir::ReduceOp::Sum);
        f.for_("j", lo, hi, [&](hl::Value j) {
          f.st(g_a, j, f.ld(g_a, j) * 0.75 + total * 1e-3);
        });
      });
    });
    auto part = f.var_f64("part", 0.0);
    f.for_("j", lo, hi,
           [&](hl::Value j) { part.set(part.get() + f.ld(g_a, j)); });
    auto total = f.mpi_allreduce(part.get(), ir::ReduceOp::Sum);
    auto pass = f.select(f.fabs_(total).lt(1e6), f.c_i64(1), f.c_i64(0));
    f.emit(pass);
    f.emit(total);
    f.ret();
  }
  apps::AppSpec spec;
  spec.name = "ringapp";
  spec.analysis_regions = {{r_main, "main", 0, 0}};
  spec.main_region = r_main;
  spec.main_iters = 4;
  spec.verifier = apps::standard_verifier(1e-6);
  spec.module = pb.finish();
  return spec;
}

TEST(AnalysisRankCampaign, SessionAndBatchedRequestAgree) {
  fault::RankCampaignConfig cfg;
  cfg.nranks = 3;
  cfg.trials = 30;

  core::AnalysisSession session(ring_spec());
  const auto direct = session.rank_campaign(cfg);
  ASSERT_EQ(direct.trials, 30u);

  // Cached enumeration: same session, same counts on a re-run.
  expect_same_counts(direct, session.rank_campaign(cfg));

  // The declarative request: rank campaign + scalar region campaign batch
  // on one shared pool.
  fault::CampaignConfig scalar;
  scalar.trials = 20;
  util::Scheduler pool(4);
  const auto request = core::AnalysisRequest()
                           .app(ring_spec())
                           .analysis_regions()
                           .success_rates(scalar)
                           .rank_campaign(cfg)
                           .pool(&pool);
  const auto report = core::run_analysis(request);
  ASSERT_EQ(report.apps.size(), 1u);
  ASSERT_TRUE(report.apps[0].rank_campaign.has_value());
  expect_same_counts(direct, *report.apps[0].rank_campaign);
  // Rank trials ride the same accounting as scalar trials.
  EXPECT_EQ(report.total_trials, 30u + 20u);
  EXPECT_EQ(report.campaign_units, 2u);
  EXPECT_EQ(report.pool_batches, 1u);  // still ONE batched dispatch
  EXPECT_GT(report.total_instructions, 0u);

  // The batched scalar entry matches the per-region session call.
  const auto* entry = report.find("ringapp", "main",
                                  fault::TargetClass::Internal);
  ASSERT_NE(entry, nullptr);
  auto scalar_direct = scalar;
  scalar_direct.pool = &pool;
  const auto per_region = session.region_campaign(
      entry->region_id, entry->instance, fault::TargetClass::Internal,
      scalar_direct);
  EXPECT_EQ(entry->campaign.trials, per_region.trials);
  EXPECT_EQ(entry->campaign.success, per_region.success);
  EXPECT_EQ(entry->campaign.failed, per_region.failed);
  EXPECT_EQ(entry->campaign.crashed, per_region.crashed);
}

TEST(AnalysisRankCampaign, SerialVsParallelComparisonShape) {
  // The Wu-et-al question end to end: the same ranked program campaigned at
  // world size 1 (the serial baseline — decomposition degenerates to the
  // full problem) and at world size 4. Both must be internally consistent;
  // the single-rank campaign can have no cross-rank propagation by
  // construction.
  core::AnalysisSession session(ring_spec());
  fault::RankCampaignConfig cfg;
  cfg.trials = 24;
  cfg.nranks = 1;
  const auto serial = session.rank_campaign(cfg);
  EXPECT_EQ(serial.trials, 24u);
  EXPECT_EQ(serial.propagated, 0u);
  for (std::size_t k = 1; k < serial.propagation_depth.size(); ++k) {
    EXPECT_EQ(serial.propagation_depth[k], 0u);
  }
  cfg.nranks = 4;
  const auto parallel = session.rank_campaign(cfg);
  EXPECT_EQ(parallel.trials, 24u);
  EXPECT_EQ(parallel.masked_locally + parallel.absorbed_by_collective +
                parallel.propagated + parallel.corrupted_output +
                parallel.trapped,
            parallel.trials);
}

}  // namespace
}  // namespace ft
