// The composable analysis API: AnalysisSession caching and thread safety,
// declarative AnalysisRequest execution, cross-region campaign batching,
// seed determinism across pool sizes and per-region calls, and the
// observer-pipeline gating semantics.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "core/analysis.h"
#include "hl/builder.h"
#include "jit/jit_program.h"
#include "trace/collector.h"

namespace ft {
namespace {

fault::CampaignConfig quick_campaign(std::size_t trials,
                                     std::uint64_t seed = 0xF11Dull) {
  fault::CampaignConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  return cfg;
}

// --- session caching -----------------------------------------------------------

TEST(AnalysisSession, ArtifactsAreCachedAndConsistent) {
  core::AnalysisSession session(apps::build_sp());
  const auto golden = session.golden();
  EXPECT_TRUE(golden->completed());
  const auto tr = session.golden_trace();
  EXPECT_EQ(tr->size(), golden->instructions);
  // Repeat accessors return the same snapshot, not a recomputation.
  EXPECT_EQ(session.golden_trace().get(), tr.get());
  EXPECT_EQ(session.golden().get(), golden.get());
  const auto instances = session.region_instances();
  EXPECT_FALSE(instances->empty());
  EXPECT_EQ(session.region_instances().get(), instances.get());
  EXPECT_GT(session.golden_events()->num_locations(), 0u);
}

TEST(AnalysisSession, InvalidateTraceRebuildsEqualArtifacts) {
  core::AnalysisSession session(apps::build_sp());
  const auto tr = session.golden_trace();
  const auto n1 = tr->size();
  const auto e1 = session.golden_events()->num_locations();
  session.invalidate_trace();
  // The old snapshot stays valid for concurrent readers...
  EXPECT_EQ(tr->size(), n1);
  // ...and the rebuilt artifacts are equal (the VM is deterministic).
  const auto tr2 = session.golden_trace();
  EXPECT_NE(tr2.get(), tr.get());
  EXPECT_EQ(tr2->size(), n1);
  EXPECT_EQ(session.golden_events()->num_locations(), e1);
}

TEST(AnalysisSession, RegionSitesMatchLegacyEnumeration) {
  core::AnalysisSession session(apps::build_cg());
  const auto& spec = session.app();
  for (const auto& rd : spec.analysis_regions) {
    const auto cached = session.region_sites(rd.id, 0);
    const auto legacy =
        fault::enumerate_sites(spec.module, rd.id, 0, spec.base);
    ASSERT_EQ(cached->region_found, legacy.region_found) << rd.name;
    EXPECT_EQ(cached->fault_free_instructions,
              legacy.fault_free_instructions);
    ASSERT_EQ(cached->sites.internal.size(), legacy.sites.internal.size());
    EXPECT_EQ(cached->sites.internal_bits(), legacy.sites.internal_bits());
    ASSERT_EQ(cached->sites.input.size(), legacy.sites.input.size());
    for (std::size_t i = 0; i < cached->sites.input.size(); ++i) {
      EXPECT_EQ(cached->sites.input[i].address,
                legacy.sites.input[i].address);
    }
    // Cached: second lookup is the same object.
    EXPECT_EQ(session.region_sites(rd.id, 0).get(), cached.get());
  }
}

TEST(AnalysisSession, SharedAcrossThreadsYieldsOneSnapshot) {
  core::AnalysisSession session(apps::build_sp());
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const trace::ColumnTrace>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { seen[t] = session.golden_trace(); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].get(), seen[0].get());
  }
}

// --- campaign determinism ------------------------------------------------------

// Counts at every pool size equal the from-scratch oracle (fork off). With
// 64 trials the engine cuts chunks of 8, 4, 2 and 1 trials at 1, 2, 3 and 8
// workers, so some chunks fork from their cursor before running their last
// trial on it, and some run their only trial on it. The per-trial work
// counters do not depend on chunking either.
TEST(CampaignDeterminism, IdenticalCountsAcrossPoolSizes) {
  core::AnalysisSession session(apps::build_cg());
  const auto* cg_b = session.app().find_region("cg_b");
  ASSERT_NE(cg_b, nullptr);

  auto scratch_cfg = quick_campaign(64, /*seed=*/77);
  scratch_cfg.fork.enabled = false;
  const auto scratch = session.region_campaign(
      cg_b->id, 0, fault::TargetClass::Internal, scratch_cfg);
  ASSERT_EQ(scratch.trials, 64u);

  std::vector<fault::CampaignResult> results;
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(workers);
    util::Scheduler pool(workers);
    auto cfg = quick_campaign(64, /*seed=*/77);
    cfg.pool = &pool;
    const auto& r = results.emplace_back(session.region_campaign(
        cg_b->id, 0, fault::TargetClass::Internal, cfg));
    EXPECT_EQ(r.trials, scratch.trials);
    EXPECT_EQ(r.success, scratch.success);
    EXPECT_EQ(r.failed, scratch.failed);
    EXPECT_EQ(r.crashed, scratch.crashed);
    EXPECT_EQ(r.detected_recovered, scratch.detected_recovered);
    EXPECT_EQ(r.detected_unrecoverable, scratch.detected_unrecoverable);
    EXPECT_EQ(r.population_bits, scratch.population_bits);
    EXPECT_GT(r.prefix_instructions_saved, 0u);
    const auto& first = results.front();
    EXPECT_EQ(r.instructions_retired, first.instructions_retired);
    EXPECT_EQ(r.prefix_instructions_saved, first.prefix_instructions_saved);
    EXPECT_EQ(r.convergence_instructions_saved,
              first.convergence_instructions_saved);
    EXPECT_EQ(r.early_exits, first.early_exits);
    EXPECT_EQ(r.dead_delta_exits, first.dead_delta_exits);
  }
}

// The batched executor against independent oracles: outcome counts against
// the from-scratch trial loop (fork off), proof counters against the
// per-unit forked entry points. Region, whole-app and 2-rank units share
// one pool batch, so their chunks interleave.
TEST(CampaignDeterminism, BatchedMatchesFromScratchOracle) {
  auto session = std::make_shared<core::AnalysisSession>(apps::build_cg());
  util::Scheduler pool(3);
  auto cfg = quick_campaign(12, /*seed=*/42);
  cfg.pool = &pool;
  auto app_cfg = quick_campaign(16, /*seed=*/7);
  app_cfg.pool = &pool;
  fault::RankCampaignConfig rank_cfg;
  rank_cfg.nranks = 2;
  rank_cfg.trials = 8;
  rank_cfg.pool = &pool;
  ASSERT_TRUE(cfg.fork.enabled && rank_cfg.fork.enabled);

  const auto batched =
      core::run_analysis(core::AnalysisRequest()
                             .session(session)
                             .region("cg_a")
                             .region("cg_b")
                             .target(fault::TargetClass::Internal)
                             .target(fault::TargetClass::Input)
                             .success_rates(cfg)
                             .app_campaign(app_cfg)
                             .rank_campaign(rank_cfg)
                             .pool(&pool));
  EXPECT_EQ(batched.pool_batches, 1u);
  EXPECT_EQ(batched.campaign_units, 6u);

  const auto expect_oracle = [](const fault::CampaignResult& b,
                                const fault::CampaignResult& scratch,
                                const fault::CampaignResult& forked) {
    EXPECT_GT(b.trials, 0u);
    EXPECT_EQ(b.trials, scratch.trials);
    EXPECT_EQ(b.population_bits, scratch.population_bits);
    EXPECT_EQ(b.success, scratch.success);
    EXPECT_EQ(b.failed, scratch.failed);
    EXPECT_EQ(b.crashed, scratch.crashed);
    EXPECT_EQ(b.detected_recovered, scratch.detected_recovered);
    EXPECT_EQ(b.detected_unrecoverable, scratch.detected_unrecoverable);
    EXPECT_EQ(b.snapshots_taken, forked.snapshots_taken);
    EXPECT_EQ(b.resume_depth, forked.resume_depth);
    EXPECT_EQ(b.prefix_instructions_saved, forked.prefix_instructions_saved);
    EXPECT_EQ(b.convergence_instructions_saved,
              forked.convergence_instructions_saved);
    EXPECT_EQ(b.early_exits, forked.early_exits);
    EXPECT_EQ(b.dead_delta_exits, forked.dead_delta_exits);
    EXPECT_EQ(b.instructions_retired, forked.instructions_retired);
  };
  auto scratch_cfg = cfg;
  scratch_cfg.fork.enabled = false;
  ASSERT_EQ(batched.entries.size(), 4u);
  for (const auto& e : batched.entries) {
    SCOPED_TRACE(e.region_name + (e.target == fault::TargetClass::Input
                                      ? " input"
                                      : " internal"));
    expect_oracle(
        e.campaign,
        session->region_campaign(e.region_id, e.instance, e.target,
                                 scratch_cfg),
        session->region_campaign(e.region_id, e.instance, e.target, cfg));
  }
  const auto* app = batched.find_app(session->app().name);
  ASSERT_NE(app, nullptr);
  ASSERT_TRUE(app->whole_app && app->rank_campaign);
  auto app_scratch_cfg = app_cfg;
  app_scratch_cfg.fork.enabled = false;
  expect_oracle(*app->whole_app, session->app_campaign(app_scratch_cfg),
                session->app_campaign(app_cfg));
  // The forked engine actually forked and probed.
  EXPECT_GT(app->whole_app->snapshots_taken, 0u);
  EXPECT_GT(app->whole_app->prefix_instructions_saved, 0u);
  EXPECT_GT(batched.early_exits, 0u);

  // Rank trials: the taxonomy against fork off; the prefix-reuse counters
  // against the per-unit forked call. CG never communicates, so no world
  // abort cuts a peer short and the retired count is deterministic too.
  const auto& rb = *app->rank_campaign;
  auto rank_scratch_cfg = rank_cfg;
  rank_scratch_cfg.fork.enabled = false;
  const auto rs = session->rank_campaign(rank_scratch_cfg);
  const auto rf = session->rank_campaign(rank_cfg);
  EXPECT_EQ(rb.trials, 8u);
  EXPECT_EQ(rb.trials, rs.trials);
  EXPECT_EQ(rb.masked_locally, rs.masked_locally);
  EXPECT_EQ(rb.absorbed_by_collective, rs.absorbed_by_collective);
  EXPECT_EQ(rb.propagated, rs.propagated);
  EXPECT_EQ(rb.corrupted_output, rs.corrupted_output);
  EXPECT_EQ(rb.trapped, rs.trapped);
  EXPECT_EQ(rb.propagation_depth, rs.propagation_depth);
  EXPECT_EQ(rb.rank_trials, rs.rank_trials);
  EXPECT_EQ(rb.rank_success, rs.rank_success);
  EXPECT_EQ(rb.snapshots_taken, rf.snapshots_taken);
  EXPECT_EQ(rb.prefix_instructions_saved, rf.prefix_instructions_saved);
  EXPECT_EQ(rb.instructions_retired, rf.instructions_retired);
  EXPECT_GT(rb.prefix_instructions_saved, 0u);
  // run_rank_campaign runs the same engine with fork off, so the taxonomy
  // is also tallied trial by trial, with no engine in between.
  const auto prepared = fault::prepare_rank_campaign(
      *session->rank_enumeration(2), session->app().base, rank_cfg);
  std::array<std::size_t, 5> by_outcome{};
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    const auto trial = fault::run_rank_trial(
        *session->program(), prepared, fault::RankSnapshots{}, i,
        session->app().verifier);
    ++by_outcome[static_cast<std::size_t>(trial.outcome)];
  }
  EXPECT_EQ(rb.masked_locally, by_outcome[0]);
  EXPECT_EQ(rb.absorbed_by_collective, by_outcome[1]);
  EXPECT_EQ(rb.propagated, by_outcome[2]);
  EXPECT_EQ(rb.corrupted_output, by_outcome[3]);
  EXPECT_EQ(rb.trapped, by_outcome[4]);
}

// --- cross-region batching -----------------------------------------------------

TEST(Batching, MultiRegionRequestDispatchesOnePoolBatch) {
  util::Scheduler pool(2);
  const auto report =
      core::run_analysis(core::AnalysisRequest()
                             .app("CG")
                             .analysis_regions()
                             .target(fault::TargetClass::Internal)
                             .target(fault::TargetClass::Input)
                             .success_rates(quick_campaign(6))
                             .pool(&pool));

  // Every (region, target) campaign of the request went through exactly ONE
  // parallel_for dispatch: regions execute concurrently on the shared pool
  // instead of serializing between per-region campaigns.
  EXPECT_EQ(pool.parallel_for_calls(), 1u);
  EXPECT_EQ(report.pool_batches, 1u);
  EXPECT_GT(report.campaign_units, 1u);
  EXPECT_EQ(report.pool_workers, 2u);

  std::size_t sum = 0;
  for (const auto& e : report.entries) {
    if (e.region_found) {
      EXPECT_EQ(e.campaign.trials, 6u);
      EXPECT_EQ(e.campaign.success + e.campaign.failed + e.campaign.crashed,
                e.campaign.trials);
    }
    sum += e.campaign.trials;
  }
  EXPECT_EQ(report.total_trials, sum);
  EXPECT_GT(report.total_trials, 0u);
  EXPECT_GT(report.campaign_ms, 0.0);
  EXPECT_GT(report.trials_per_second(), 0.0);
}

TEST(Batching, CampaignConfigPoolIsHonored) {
  // run_campaign's contract (CampaignConfig::pool) must hold through the
  // declarative path too when no request-level pool is set.
  util::Scheduler pool(2);
  auto cfg = quick_campaign(5);
  cfg.pool = &pool;
  const auto report = core::run_analysis(
      core::AnalysisRequest().app("CG").region("cg_a").success_rates(cfg));
  EXPECT_EQ(pool.parallel_for_calls(), 1u);
  EXPECT_EQ(report.pool_workers, 2u);
}

// --- the request/report model --------------------------------------------------

TEST(AnalysisRequest, ReportCarriesAppAnalysesAndLookups) {
  const auto report = core::run_analysis(core::AnalysisRequest()
                                             .app("CG")
                                             .region("cg_b")
                                             .region_io()
                                             .success_rates(quick_campaign(5))
                                             .pattern_rates()
                                             .app_campaign(quick_campaign(8)));
  const auto* app = report.find_app("CG");
  ASSERT_NE(app, nullptr);
  EXPECT_GT(app->golden_instructions, 0u);
  ASSERT_TRUE(app->rates.has_value());
  EXPECT_GT(app->rates->total_instructions, 0u);
  ASSERT_TRUE(app->whole_app.has_value());
  EXPECT_EQ(app->whole_app->trials, 8u);
  // The whole-app campaign ran snapshot-forked: the report rolls up its
  // prefix-reuse counters.
  EXPECT_GT(report.snapshots_taken, 0u);
  EXPECT_GT(report.instructions_saved, 0u);
  EXPECT_GT(report.max_resume_depth, 0u);
  EXPECT_GT(app->whole_app->prefix_instructions_saved, 0u);

  const auto* entry =
      report.find("CG", "cg_b", fault::TargetClass::Internal);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->region_found);
  ASSERT_TRUE(entry->io.has_value());
  EXPECT_FALSE(entry->io->inputs.empty());
  EXPECT_EQ(entry->campaign.trials, 5u);
  EXPECT_EQ(report.find("CG", "cg_b", fault::TargetClass::Input), nullptr);
}

TEST(AnalysisRequest, OpcodeProfileRanksCoverageAndJitSplit) {
  const auto report = core::run_analysis(
      core::AnalysisRequest().app("CG").opcode_profile());
  const auto* app = report.find_app("CG");
  ASSERT_NE(app, nullptr);
  ASSERT_TRUE(app->opcode_profile.has_value());
  const auto& prof = *app->opcode_profile;

  // Clean run: every dispatched instruction retires, so the counts sum to
  // the golden instruction total and the compiled/deopt split partitions it.
  std::uint64_t sum = 0;
  for (const auto c : prof.counts) sum += c;
  EXPECT_EQ(sum, app->golden_instructions);
  EXPECT_EQ(prof.jit_compiled_dispatches + prof.jit_deopt_dispatches, sum);
  // The single-rank CG workload has no MiniMPI ops: full native coverage,
  // both dynamically and in the static instruction stream.
  EXPECT_EQ(prof.jit_deopt_dispatches, 0u);
  EXPECT_EQ(prof.jit_static_deopt, 0u);
  EXPECT_GT(prof.jit_static_compiled, 0u);

  // ranked() orders opcodes by retired-instruction share, descending, and
  // drops zero-count opcodes.
  const auto ranked = prof.ranked();
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].second, ranked[i].second);
  }
  for (const auto& [op, count] : ranked) {
    EXPECT_GT(count, 0u);
    EXPECT_EQ(count, prof.counts[static_cast<std::size_t>(op)]);
  }
}

TEST(AnalysisSession, CompilesNativeBackendWhenEnabled) {
  core::AnalysisSession session(apps::build_app("CG"));
  if (!jit::JitProgram::runtime_enabled()) {
    EXPECT_EQ(session.jit(), nullptr);
    return;
  }
  // The session's base options carry the compiled program, so campaign
  // preparation inherits native execution without any per-call wiring.
  ASSERT_NE(session.jit(), nullptr);
  EXPECT_EQ(session.app().base.jit, session.jit());
  EXPECT_EQ(&session.jit()->program(), session.program().get());
  EXPECT_GT(session.jit()->stats().compiled, 0u);
}

TEST(AnalysisRequest, UnknownRegionNameThrows) {
  EXPECT_THROW(
      (void)core::run_analysis(core::AnalysisRequest().app("CG").region(
          "no_such_region")),
      std::invalid_argument);
}

TEST(AnalysisRequest, MainLoopIterationsEnumerateInstances) {
  const auto report = core::run_analysis(
      core::AnalysisRequest().app("SP").main_loop_iterations());
  const auto iters =
      static_cast<std::size_t>(apps::build_sp().main_iters);
  EXPECT_EQ(report.entries.size(), iters);
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    EXPECT_EQ(report.entries[i].instance, i);
    EXPECT_TRUE(report.entries[i].region_found);
  }
}

// --- observer pipeline ---------------------------------------------------------

ir::Module gated_module(std::uint32_t* rid_out) {
  hl::ProgramBuilder pb("t");
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_i64("s", 0);
    f.for_("i", 0, 40, [&](hl::Value i) { s.set(s.get() + i); });  // outside
    f.region(rid, [&] {
      f.for_("i", 0, 10, [&](hl::Value i) { s.set(s.get() + i); });
    });
    f.for_("i", 0, 40, [&](hl::Value i) { s.set(s.get() + i); });  // outside
    f.emit(s.get());
    f.ret();
  }
  *rid_out = rid;
  return pb.finish();
}

TEST(ObserverChain, EnabledIsOrOverStages) {
  trace::TraceCollector always_on;
  std::uint32_t rid = 0;
  const auto mod = gated_module(&rid);

  vm::ObserverChain empty;
  EXPECT_FALSE(empty.enabled());

  trace::TraceCollector sink;
  vm::RegionWindowGate gate(&sink, rid);
  vm::ObserverChain gated;
  gated.then(&gate);
  EXPECT_FALSE(gated.enabled());  // window not open yet

  vm::ObserverChain mixed;
  mixed.then(&gate).then(&always_on);
  EXPECT_TRUE(mixed.enabled());
}

TEST(ObserverChain, PerStageGatingSkipsDisabledStages) {
  std::uint32_t rid = 0;
  const auto mod = gated_module(&rid);

  trace::TraceCollector windowed_sink;
  vm::RegionWindowGate gate(&windowed_sink, rid);
  trace::TraceCollector full_sink;
  vm::ObserverChain chain;
  chain.then(&gate).then(&full_sink);
  vm::VmOptions opts;
  opts.observer = &chain;
  const auto run = vm::Vm::run(mod, opts);
  ASSERT_TRUE(run.completed());

  // The ungated stage saw the whole stream; the gated one only its window.
  EXPECT_EQ(full_sink.trace().size(), run.instructions);
  EXPECT_GT(windowed_sink.trace().size(), 10u);
  EXPECT_LT(windowed_sink.trace().size(), full_sink.trace().size() / 2);
  // The window includes its own markers.
  EXPECT_EQ(windowed_sink.trace().records.front().op,
            ir::Opcode::RegionEnter);
}

TEST(RegionWindowGate, SelfNestedRegionKeepsWindowOpen) {
  // A region whose body re-enters the same region id must not close the
  // outer window at the inner exit: the gated capture has to match the
  // segmenter's [enter, exit] span for the outer instance.
  hl::ProgramBuilder pb("t");
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_i64("s", 0);
    f.region(rid, [&] {
      f.for_("i", 0, 5, [&](hl::Value i) { s.set(s.get() + i); });
      f.region(rid, [&] {  // nested instance of the SAME region
        f.for_("i", 0, 5, [&](hl::Value i) { s.set(s.get() + i); });
      });
      f.for_("i", 0, 5, [&](hl::Value i) { s.set(s.get() + i); });  // tail
    });
    f.emit(s.get());
    f.ret();
  }
  const auto mod = pb.finish();

  trace::TraceCollector all;
  vm::VmOptions aopts;
  aopts.observer = &all;
  ASSERT_TRUE(vm::Vm::run(mod, aopts).completed());
  const auto instances = trace::segment_regions(all.trace().span());
  const auto outer = trace::find_instance(instances, rid, 0);
  ASSERT_TRUE(outer.has_value());

  trace::TraceCollector windowed;
  vm::RegionWindowGate gate(&windowed, rid, /*instance=*/0);
  vm::VmOptions gopts;
  gopts.observer = &gate;
  ASSERT_TRUE(vm::Vm::run(mod, gopts).completed());

  // Markers included: the window is exactly the outer instance's span.
  EXPECT_EQ(windowed.trace().size(),
            outer->exit_index - outer->enter_index + 1);
  EXPECT_EQ(windowed.trace().records.back().op, ir::Opcode::RegionExit);
}

TEST(ObserverChain, StageFiltersSelectRecords) {
  std::uint32_t rid = 0;
  const auto mod = gated_module(&rid);
  trace::TraceCollector stores;
  vm::ObserverChain chain;
  chain.then(&stores,
             [](const vm::DynInstr& d) { return d.op == ir::Opcode::Store; });
  vm::VmOptions opts;
  opts.observer = &chain;
  ASSERT_TRUE(vm::Vm::run(mod, opts).completed());
  ASSERT_FALSE(stores.trace().empty());
  for (const auto& r : stores.trace().records) {
    EXPECT_EQ(r.op, ir::Opcode::Store);
  }
}

}  // namespace
}  // namespace ft
