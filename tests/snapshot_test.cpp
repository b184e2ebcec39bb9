// Snapshot/resume coverage: Vm::Snapshot round-trips (save/restore mid-run,
// run_until pausing, fork_from syncing) must be invisible to execution —
// bit-identical outputs, traps, retired counts and columnar traces versus a
// from-scratch run — and the snapshot-forked campaign scheduler must
// produce outcome counts identical to the from-scratch trial loop. Pinned
// for all ten workloads, clean, faulted and trapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "fault/ladder.h"
#include "fault/sites.h"
#include "harden/harden.h"
#include "hl/builder.h"
#include "jit/jit_program.h"
#include "trace/column.h"
#include "trace/segment.h"
#include "vm/decode.h"
#include "util/scheduler.h"
#include "vm/interp.h"

namespace ft {
namespace {

bool same_record(const vm::DynInstr& a, const vm::DynInstr& b,
                 std::uint64_t index_offset = 0) {
  return a.index == b.index + index_offset && a.func == b.func &&
         a.block == b.block && a.instr == b.instr && a.op == b.op &&
         a.pred == b.pred && a.type == b.type && a.nops == b.nops &&
         a.line == b.line && a.aux == b.aux && a.result_loc == b.result_loc &&
         a.result_bits == b.result_bits && a.op_loc == b.op_loc &&
         a.op_bits == b.op_bits && a.op_type == b.op_type &&
         a.mem_addr == b.mem_addr && a.mem_size == b.mem_size &&
         a.branch_taken == b.branch_taken;
}

void expect_same_result(const vm::RunResult& a, const vm::RunResult& b) {
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fault_fired, b.fault_fired);
  EXPECT_TRUE(a.outputs == b.outputs);
}

class SnapshotEquivalence : public ::testing::TestWithParam<std::string> {};

// save() mid-run, then (a) the saved machine continues and (b) a fresh
// machine restores — both must finish bit-identically to a straight run.
TEST_P(SnapshotEquivalence, RoundTripIsBitIdentical) {
  const auto app = apps::build_app(GetParam());
  const auto prog = vm::DecodedProgram::decode(app.module);

  const auto baseline = vm::Vm::run(prog, app.base);
  ASSERT_TRUE(baseline.completed());
  const auto midpoint = baseline.instructions / 2;

  vm::Vm original(prog, app.base);
  original.run_until(midpoint);
  ASSERT_EQ(original.status(), vm::Vm::Status::Running);
  ASSERT_EQ(original.instructions_retired(), midpoint);
  const auto snap = original.snapshot();
  EXPECT_TRUE(original.state_equals(snap));

  // (a) The snapshotted machine keeps running unaffected.
  const auto continued = original.run();
  expect_same_result(continued, baseline);

  // (b) A fresh machine restored from the snapshot finishes identically.
  vm::Vm resumed(prog, app.base);
  resumed.restore(snap);
  EXPECT_TRUE(resumed.state_equals(snap));
  expect_same_result(resumed.run(), baseline);

  // (c) So does one constructed directly in the snapshotted state.
  vm::Vm constructed(prog, snap, app.base);
  expect_same_result(constructed.run(), baseline);
}

// Forking a faulty trial from a clean-prefix snapshot is bit-identical to
// running the faulty plan from scratch — including crashing plans and the
// hang budget.
TEST_P(SnapshotEquivalence, FaultedForkMatchesScratch) {
  const auto app = apps::build_app(GetParam());
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto clean = vm::Vm::run(prog, app.base);
  ASSERT_TRUE(clean.completed());

  const auto check_plan = [&](const vm::FaultPlan& plan,
                              std::uint64_t fork_at,
                              std::uint64_t max_instructions) {
    vm::VmOptions faulted = app.base;
    faulted.fault = plan;
    faulted.max_instructions = max_instructions;
    const auto scratch = vm::Vm::run(prog, faulted);

    vm::VmOptions prefix_opts = faulted;
    prefix_opts.fault = vm::FaultPlan::none();
    vm::Vm golden(prog, prefix_opts);
    golden.run_until(fork_at);
    ASSERT_EQ(golden.status(), vm::Vm::Status::Running);

    vm::Vm trial(prog, golden.snapshot(), faulted);
    expect_same_result(trial.run(), scratch);
  };

  // Mid-run register flip, forked exactly at the injection index.
  const std::uint64_t mid = std::min<std::uint64_t>(
      40000, clean.instructions * 3 / 4);
  check_plan(vm::FaultPlan::result_bit(mid, 40), mid,
             app.base.max_instructions);
  // High-bit flip that often traps (OutOfBounds / hang budget), forked
  // strictly before the injection.
  const std::uint64_t early = std::min<std::uint64_t>(
      5000, clean.instructions / 4);
  check_plan(vm::FaultPlan::result_bit(early, 62), early / 2, 400000);
  // Region-input memory flip forked exactly at the instance's RegionEnter
  // (the deepest fault-free prefix an input-class trial can fork at).
  if (app.main_region != ~std::uint32_t{0} && app.module.num_globals() > 0) {
    const auto sites =
        fault::enumerate_sites(app.module, app.main_region, 0, app.base);
    ASSERT_TRUE(sites.region_found);
    ASSERT_NE(sites.region_entry_index,
              fault::SiteEnumerationResult::kNoEntry);
    const auto& g = app.module.global(0);
    check_plan(vm::FaultPlan::region_input_bit(app.main_region, 0, g.addr,
                                               store_size(g.elem), 17),
               sites.region_entry_index, app.base.max_instructions);
  }
}

// A traced run paused by run_until and a traced run resumed from a
// snapshot both emit columnar records bit-identical to an uninterrupted
// traced run (the suffix trace matches row for row, offset by the resume
// point).
TEST_P(SnapshotEquivalence, ColumnarTraceSurvivesPauseAndResume) {
  const auto app = apps::build_app(GetParam());
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  const auto traced_run = [&](trace::ColumnTrace& sink, auto&& drive) {
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.column_sink = &sink;
    vm::Vm vm(*prog, opts);
    return drive(vm);
  };

  trace::ColumnTrace full(prog);
  const auto baseline =
      traced_run(full, [](vm::Vm& vm) { return vm.run(); });
  ASSERT_TRUE(baseline.completed());
  const auto midpoint = baseline.instructions / 2;

  // Pause mid-trace, snapshot, continue: one contiguous identical trace.
  trace::ColumnTrace paused(prog);
  vm::Vm::Snapshot snap;
  const auto paused_result = traced_run(paused, [&](vm::Vm& vm) {
    vm.run_until(midpoint);
    vm.save(snap);
    return vm.run();
  });
  expect_same_result(paused_result, baseline);
  ASSERT_EQ(paused.size(), full.size());
  for (std::size_t row = 0; row < full.size(); row += 97) {
    ASSERT_TRUE(same_record(full.record(row), paused.record(row)))
        << "at row " << row;
  }

  // Resume from the snapshot with an empty sink: the suffix trace.
  trace::ColumnTrace suffix(prog);
  const auto resumed_result = traced_run(suffix, [&](vm::Vm& vm) {
    vm.restore(snap);
    return vm.run();
  });
  expect_same_result(resumed_result, baseline);
  ASSERT_EQ(suffix.size(), full.size() - midpoint);
  for (std::size_t row = 0; row < suffix.size(); row += 89) {
    ASSERT_TRUE(same_record(full.record(midpoint + row), suffix.record(row),
                            midpoint))
        << "at suffix row " << row;
  }

  // Rewind: restoring a traced machine to an earlier point rolls the rows
  // past the restore point back, so the re-executed trace is contiguous
  // and identical to the uninterrupted one.
  trace::ColumnTrace rewound(prog);
  const auto rewound_result = traced_run(rewound, [&](vm::Vm& vm) {
    vm.run_until(midpoint);
    vm::Vm::Snapshot mid;
    vm.save(mid);
    vm.run_until(midpoint + (baseline.instructions - midpoint) / 2);
    vm.restore(mid);  // rows past `midpoint` must roll back
    return vm.run();
  });
  expect_same_result(rewound_result, baseline);
  ASSERT_EQ(rewound.size(), full.size());
  for (std::size_t row = 0; row < full.size(); row += 101) {
    ASSERT_TRUE(same_record(full.record(row), rewound.record(row)))
        << "at rewound row " << row;
  }
}

// The snapshot-forked campaign scheduler must report outcome counts
// identical to the from-scratch trial loop on every application (clean,
// faulted and trapping trials all occur across these populations), while
// actually reusing prefixes. Every campaign a Fig. 5 sweep runs — each
// analysis region x {Internal, Input} — plus the whole-program campaign,
// with the session's golden section ladder attached so trials probe on it,
// on 1, 2 and 4 workers sharing one ladder.
TEST_P(SnapshotEquivalence, ForkedCampaignCountsMatchScratch) {
  core::AnalysisSession session(apps::build_app(GetParam()));
  const auto& app = session.app();
  const auto& prog = *session.program();
  const auto golden = session.golden();

  struct Campaign {
    std::string name;
    std::shared_ptr<const fault::SiteEnumerationResult> sites;
    fault::TargetClass target;
  };
  std::vector<Campaign> campaigns{
      {"whole program", session.whole_program_sites(),
       fault::TargetClass::Internal}};
  for (const auto& r : app.analysis_regions) {
    const auto sites = session.region_sites(r.id, 0);
    ASSERT_TRUE(sites->region_found) << r.name;
    campaigns.push_back({r.name + " internal", sites,
                         fault::TargetClass::Internal});
    campaigns.push_back({r.name + " input", sites, fault::TargetClass::Input});
  }
  const auto ladder = session.ladder();
  ASSERT_TRUE(ladder && !ladder->empty());

  fault::CampaignConfig scratch_cfg;
  scratch_cfg.trials = 16;
  scratch_cfg.seed = 0xABCDull;
  scratch_cfg.fork.enabled = false;
  auto forked_cfg = scratch_cfg;
  forked_cfg.fork.enabled = true;

  util::Scheduler oracle_pool(2);
  std::vector<std::unique_ptr<util::Scheduler>> pools;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<util::Scheduler>(workers));
  }
  for (const auto& c : campaigns) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.sites->ladder, ladder);
    const auto scratch = fault::run_prepared_campaign(
        prog, fault::prepare_campaign(*c.sites, c.target, app.base, scratch_cfg),
        golden->outputs, app.verifier, oracle_pool);
    const auto prepared =
        fault::prepare_campaign(*c.sites, c.target, app.base, forked_cfg);
    if (!prepared.plans.empty()) {
      ASSERT_EQ(prepared.ladder, ladder);
    }
    EXPECT_EQ(scratch.prefix_instructions_saved, 0u);
    EXPECT_EQ(scratch.snapshots_taken, 0u);
    EXPECT_EQ(scratch.early_exits, 0u);
    for (const auto& pool : pools) {
      SCOPED_TRACE(std::to_string(pool->size()) + " workers");
      const auto forked = fault::run_prepared_campaign(
          prog, prepared, golden->outputs, app.verifier, *pool);
      EXPECT_EQ(forked.trials, scratch.trials);
      EXPECT_EQ(forked.success, scratch.success);
      EXPECT_EQ(forked.failed, scratch.failed);
      EXPECT_EQ(forked.crashed, scratch.crashed);
      EXPECT_EQ(forked.detected_recovered, scratch.detected_recovered);
      EXPECT_EQ(forked.detected_unrecoverable, scratch.detected_unrecoverable);
      EXPECT_LE(forked.dead_delta_exits, forked.early_exits);
      if (c.target == fault::TargetClass::Internal &&
          c.sites == campaigns.front().sites) {
        // The whole-program campaign reuses prefixes; region campaigns may
        // fork too early in the run for a waypoint to exist.
        EXPECT_GT(forked.prefix_instructions_saved, 0u);
        EXPECT_GT(forked.snapshots_taken, 0u);
        EXPECT_GT(forked.resume_depth, 0u);
        EXPECT_LT(forked.instructions_retired, scratch.instructions_retired);
      }
    }
  }
}

// A chained save shares exactly the pages that did not change since the
// previous snapshot (and maps all-zero pages to the shared zero page); the
// chained snapshot still restores bit-identically.
TEST_P(SnapshotEquivalence, ChainedSaveSharesUnchangedPages) {
  const auto app = apps::build_app(GetParam());
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto baseline = vm::Vm::run(prog, app.base);
  ASSERT_TRUE(baseline.completed());

  vm::Vm golden(prog, app.base);
  golden.run_until(baseline.instructions / 3);
  const auto first = golden.snapshot();
  golden.run_until(baseline.instructions / 2);
  ASSERT_EQ(golden.status(), vm::Vm::Status::Running);
  vm::Vm::Snapshot second;
  golden.save(second, &first);
  EXPECT_TRUE(golden.state_equals(second));

  const auto& zero = vm::Vm::Snapshot::zero_page();
  std::size_t shared = 0;
  for (std::size_t p = 0; p < second.pages.size(); ++p) {
    const auto& a = first.pages[p];
    const auto& b = second.pages[p];
    const bool same_bytes =
        std::equal(a->begin(), a->end(), b->begin(), b->end());
    EXPECT_EQ(a == b, same_bytes) << "page " << p;
    if (std::all_of(b->begin(), b->end(), [](auto x) { return x == 0; })) {
      EXPECT_EQ(b, zero) << "page " << p;
    }
    if (a == b) ++shared;
  }
  EXPECT_GT(shared, 0u);

  vm::Vm resumed(prog, second, app.base);
  expect_same_result(resumed.run(), baseline);
}

INSTANTIATE_TEST_SUITE_P(AllApps, SnapshotEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- scheduler pieces ----------------------------------------------------------

TEST(ForkSchedule, SortsByBoundAndStaysDeterministic) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto sites = fault::enumerate_whole_program_sites(prog, app.base);
  fault::CampaignConfig cfg;
  cfg.trials = 40;
  const auto prepared = fault::prepare_campaign(
      sites, fault::TargetClass::Internal, app.base, cfg);
  ASSERT_EQ(prepared.fork_bounds.size(), prepared.plans.size());
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    EXPECT_EQ(prepared.fork_bounds[i], prepared.plans[i].dyn_index);
  }
  const auto order = fault::fork_schedule(prepared);
  ASSERT_EQ(order.size(), prepared.plans.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(prepared.fork_bounds[order[i - 1]],
              prepared.fork_bounds[order[i]]);
  }
  EXPECT_TRUE(order == fault::fork_schedule(prepared));
}

TEST(ForkSchedule, InputCampaignBoundsAreTheRegionEntry) {
  const auto app = apps::build_cg();
  const auto& rd = app.analysis_regions.front();
  const auto sites = fault::enumerate_sites(app.module, rd.id, 0, app.base);
  ASSERT_TRUE(sites.region_found);
  ASSERT_NE(sites.region_entry_index, fault::SiteEnumerationResult::kNoEntry);
  fault::CampaignConfig cfg;
  cfg.trials = 8;
  const auto prepared = fault::prepare_campaign(
      sites, fault::TargetClass::Input, app.base, cfg);
  for (const auto bound : prepared.fork_bounds) {
    EXPECT_EQ(bound, sites.region_entry_index);
  }
}

TEST(PrepareSnapshots, WaypointsAreOrderedAndAssignable) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto sites = fault::enumerate_whole_program_sites(prog, app.base);
  fault::CampaignConfig cfg;
  cfg.trials = 60;
  const auto prepared = fault::prepare_campaign(
      sites, fault::TargetClass::Internal, app.base, cfg);
  const auto snaps = fault::prepare_snapshots(prog, prepared);
  ASSERT_FALSE(snaps.empty());
  ASSERT_EQ(snaps.fork_waypoint.size(), prepared.plans.size());
  for (std::size_t i = 1; i < snaps.waypoints.size(); ++i) {
    EXPECT_GT(snaps.waypoints[i].index, snaps.waypoints[i - 1].index);
  }
  EXPECT_EQ(snaps.resume_depth, snaps.waypoints.back().index);
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    const auto w = snaps.fork_waypoint[i];
    if (w != 0) {
      EXPECT_LE(snaps.waypoints[w - 1].index, prepared.fork_bounds[i]);
    }
    if (w < snaps.waypoints.size()) {
      EXPECT_GT(snaps.waypoints[w].index, prepared.fork_bounds[i]);
    }
  }
  // Disabled forking prepares nothing.
  auto off = prepared;
  off.fork.enabled = false;
  EXPECT_TRUE(fault::prepare_snapshots(prog, off).empty());
}

TEST(RestoreDirty, IncrementalRestoreMatchesFullRestore) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  vm::Vm golden(prog, app.base);
  golden.run_until(60000);
  ASSERT_EQ(golden.status(), vm::Vm::Status::Running);
  const auto snap = golden.snapshot();
  EXPECT_GT(snap.resident_bytes(), app.module.memory_size());

  const auto baseline = golden.run();

  // A tracked machine constructed in the snapshotted state, run to
  // completion, then incrementally restored: only its own dirtied pages
  // are copied back, and the re-run is bit-identical.
  vm::VmOptions tracked = app.base;
  tracked.track_writes = true;
  vm::Vm vm(prog, snap, tracked);
  expect_same_result(vm.run(), baseline);
  vm.restore_dirty(snap);
  EXPECT_TRUE(vm.state_equals(snap));
  expect_same_result(vm.run(), baseline);
}

TEST(TrialRunner, FreshRunnerPerTrialMatchesRunTrial) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto sites = fault::enumerate_whole_program_sites(prog, app.base);
  const auto golden = vm::Vm::run(prog, app.base);
  fault::CampaignConfig cfg;
  cfg.trials = 10;
  const auto prepared = fault::prepare_campaign(
      sites, fault::TargetClass::Internal, app.base, cfg);
  const auto snapshots = fault::prepare_snapshots(prog, prepared);
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    // A fresh runner per trial: no machine reuse, the cursor seeded from
    // the nearest waypoint every time.
    fault::TrialRunner runner(prog, prepared, snapshots, golden.outputs,
                              app.verifier);
    fault::TrialAccounting acct;
    const auto forked = runner.run(i, &acct);
    const auto scratch = fault::run_trial(prog, prepared, prepared.plans[i],
                                          golden.outputs, app.verifier);
    EXPECT_EQ(forked, scratch) << "plan " << i;
    EXPECT_EQ(acct.prefix_saved, prepared.fork_bounds[i]);
  }
}

// A chunk's last trial runs on the golden cursor itself instead of a forked
// copy. Per plan, on every app (hardened, so detectors fire and recovery
// rolls back the former cursor), the cursor trial must match the forked one
// in outcome and in every accounting field: with the golden ladder and with
// recovery on and off, and without a ladder, where trials probe waypoints
// by state_equals.
TEST(TrialRunner, LastTrialOnTheCursorMatchesForkedTrial) {
  std::size_t detected = 0, recovered = 0, early_exits = 0;
  for (const auto& name : apps::all_app_names()) {
    SCOPED_TRACE(name);
    const auto app = apps::build_app(name);
    const auto hardened = harden::harden_module(app.module, {});
    ASSERT_TRUE(hardened.verify_errors.empty());
    const auto prog = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(hardened.module));
    trace::ColumnTrace trace(prog);
    vm::VmOptions traced = app.base;
    traced.column_sink = &trace;
    const auto golden = vm::Vm::run(*prog, traced);
    ASSERT_TRUE(golden.completed());
    auto sites = fault::enumerate_whole_program_sites_from_trace(trace);
    const auto ladder = std::make_shared<const fault::SectionLadder>(
        fault::build_ladder(*prog, trace, trace::segment_regions(trace),
                            app.base, fault::kLadderSections));
    // Trials run natively, as in a session, when this build has the JIT.
    const auto jit = jit::JitProgram::runtime_enabled()
                         ? jit::JitProgram::compile(*prog)
                         : nullptr;
    vm::VmOptions base = app.base;
    base.jit = jit.get();

    for (const bool with_ladder : {true, false}) {
      for (const bool recovery : {false, true}) {
        SCOPED_TRACE(std::string(with_ladder ? "ladder" : "waypoints") +
                     (recovery ? ", recovery on" : ", recovery off"));
        sites.ladder = with_ladder ? ladder : nullptr;
        fault::CampaignConfig cfg;
        cfg.trials = 48;
        cfg.seed = 0xC0A5ull;
        cfg.recovery.enabled = recovery;
        cfg.recovery.checkpoint_interval = 4096;
        const auto prepared = fault::prepare_campaign(
            sites, fault::TargetClass::Internal, base, cfg);
        const auto snapshots = fault::prepare_snapshots(*prog, prepared);
        ASSERT_TRUE(with_ladder || !snapshots.waypoints.empty());
        // `forked` keeps its machines across trials and never gives up its
        // cursor; every trial of `cursor` is its last, so each one consumes
        // the cursor and the next re-seeds it from a waypoint.
        fault::TrialRunner forked(*prog, prepared, snapshots, golden.outputs,
                                  app.verifier);
        fault::TrialRunner cursor(*prog, prepared, snapshots, golden.outputs,
                                  app.verifier);
        for (const auto i : fault::fork_schedule(prepared)) {
          fault::TrialAccounting f, c;
          const auto fo = forked.run(i, &f);
          const auto co = cursor.run(i, &c, /*last=*/true);
          EXPECT_EQ(co, fo) << "plan " << i;
          EXPECT_EQ(c.instructions, f.instructions) << "plan " << i;
          EXPECT_EQ(c.prefix_saved, f.prefix_saved) << "plan " << i;
          EXPECT_EQ(c.convergence_saved, f.convergence_saved) << "plan " << i;
          EXPECT_EQ(c.early_exit, f.early_exit) << "plan " << i;
          EXPECT_EQ(c.dead_delta, f.dead_delta) << "plan " << i;
          detected += fo == fault::Outcome::DetectedRecovered ||
                      fo == fault::Outcome::DetectedUnrecoverable;
          recovered += fo == fault::Outcome::DetectedRecovered;
          early_exits += f.early_exit;
        }
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(early_exits, 0u);
}

TEST(ForkFrom, IncrementalSyncTracksBothMachines) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  vm::VmOptions tracked = app.base;
  tracked.track_writes = true;

  vm::Vm cursor(prog, tracked);
  cursor.run_until(50000);
  ASSERT_EQ(cursor.status(), vm::Vm::Status::Running);

  vm::Vm trial(prog, tracked);
  trial.fork_from(cursor, /*full=*/true);
  EXPECT_TRUE(trial.state_equals(cursor.snapshot()));

  // Diverge the trial (run a faulty stretch), advance the cursor, then
  // sync incrementally: the trial must equal a straight golden advance.
  trial.set_fault(vm::FaultPlan::result_bit(50100, 13));
  trial.run_until(90000);
  cursor.run_until(120000);
  ASSERT_EQ(cursor.status(), vm::Vm::Status::Running);
  trial.fork_from(cursor, /*full=*/false);

  vm::Vm reference(prog, app.base);
  reference.run_until(120000);
  trial.set_fault(vm::FaultPlan::none());
  const auto from_sync = trial.run();
  expect_same_result(from_sync, reference.run());
}

// Arming a plan starts a fresh write bitmap: a golden cursor armed in place
// then reports exactly the pages a forked copy of it writes over the same
// faulty stretch, which are the pages a ladder probe compares.
TEST(SetFault, StartsAFreshWriteBitmapLikeAFork) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  vm::VmOptions tracked = app.base;
  tracked.track_writes = true;

  vm::Vm cursor(prog, tracked);
  cursor.run_until(50000);
  ASSERT_EQ(cursor.status(), vm::Vm::Status::Running);
  // A copy built from a snapshot leaves the cursor's bitmap as it is
  // (fork_from would clear both).
  vm::Vm fork(prog, cursor.snapshot(), tracked);
  const auto written = cursor.dirty_pages();
  ASSERT_TRUE(std::any_of(written.begin(), written.end(),
                          [](std::uint64_t w) { return w != 0; }));

  const auto plan = vm::FaultPlan::result_bit(50100, 13);
  for (vm::Vm* m : {&cursor, &fork}) {
    m->set_fault(plan);
    const auto fresh = m->dirty_pages();
    EXPECT_TRUE(std::all_of(fresh.begin(), fresh.end(),
                            [](std::uint64_t w) { return w == 0; }));
    m->run_until(90000);
  }
  ASSERT_EQ(cursor.status(), vm::Vm::Status::Running);
  EXPECT_TRUE(std::ranges::equal(cursor.dirty_pages(), fork.dirty_pages()));
  EXPECT_TRUE(cursor.state_equals(fork.snapshot()));
  expect_same_result(cursor.run(), fork.run());
}

TEST(RunUntil, PausesWithoutTrappingAndHonorsHangBudget) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);

  vm::Vm vm(prog, app.base);
  vm.run_until(1000);
  EXPECT_EQ(vm.status(), vm::Vm::Status::Running);
  EXPECT_EQ(vm.instructions_retired(), 1000u);
  vm.run_until(1000);  // idempotent at the mark
  EXPECT_EQ(vm.instructions_retired(), 1000u);

  // The hang budget still wins over a deeper mark.
  vm::VmOptions tight = app.base;
  tight.max_instructions = 2000;
  vm::Vm hung(prog, tight);
  hung.run_until(~std::uint64_t{0});
  EXPECT_EQ(hung.status(), vm::Vm::Status::Trapped);
  EXPECT_EQ(hung.trap(), vm::TrapKind::Hang);
  EXPECT_EQ(hung.instructions_retired(), 2000u);
}

TEST(ForkedCampaign, DeterministicAcrossRunsAndPoolSizes) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto sites = fault::enumerate_whole_program_sites(prog, app.base);
  const auto golden = vm::Vm::run(prog, app.base);
  fault::CampaignConfig cfg;
  cfg.trials = 24;
  cfg.seed = 99;
  const auto prepared = fault::prepare_campaign(
      sites, fault::TargetClass::Internal, app.base, cfg);

  std::vector<fault::CampaignResult> results;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::Scheduler pool(workers);
    results.push_back(fault::run_prepared_campaign(
        prog, prepared, golden.outputs, app.verifier, pool));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].success, results[0].success);
    EXPECT_EQ(results[i].failed, results[0].failed);
    EXPECT_EQ(results[i].crashed, results[0].crashed);
    EXPECT_EQ(results[i].early_exits, results[0].early_exits);
    EXPECT_EQ(results[i].instructions_retired,
              results[0].instructions_retired);
    EXPECT_EQ(results[i].prefix_instructions_saved,
              results[0].prefix_instructions_saved);
  }
}

// --- the golden section ladder ------------------------------------------------

/// A built program with its golden trace, outputs and section ladder, the
/// ladder attached to the region's sites the way core::AnalysisSession
/// attaches it.
struct LadderHarness {
  std::shared_ptr<const vm::DecodedProgram> prog;
  trace::ColumnTrace trace;
  std::vector<vm::OutputValue> golden;
  std::shared_ptr<const fault::SectionLadder> ladder;
  fault::SiteEnumerationResult sites;

  LadderHarness(const ir::Module& mod, std::uint32_t region_id)
      : prog(std::make_shared<const vm::DecodedProgram>(
            vm::DecodedProgram::decode(mod))),
        trace(prog) {
    vm::VmOptions opts;
    opts.column_sink = &trace;
    const auto run = vm::Vm::run(*prog, opts);
    EXPECT_TRUE(run.completed());
    golden = run.outputs;
    ladder = std::make_shared<const fault::SectionLadder>(fault::build_ladder(
        *prog, trace, trace::segment_regions(trace), {},
        fault::kLadderSections));
    sites = fault::enumerate_sites(mod, region_id, 0, {});
    EXPECT_TRUE(sites.region_found);
    sites.ladder = ladder;
  }

  /// Dynamic index of the first retired `op` at or after `from`.
  [[nodiscard]] std::uint64_t first(ir::Opcode op, std::uint64_t from) const {
    const auto cols = trace.raw();
    for (std::uint64_t row = from; row < trace.size(); ++row) {
      if (prog->code()[cols.pc[row]].op == op) return row;
    }
    ADD_FAILURE() << "opcode not retired";
    return 0;
  }
};

// A flip that lands only in a buffer no later code reads is dead at the
// first ladder boundary after its region: the trial closes there by the
// dead-delta rule, with the outcome of the from-scratch trial, and the
// region's whole campaign keeps the from-scratch counts.
TEST(LadderProbe, DeadBufferFlipClosesAtFirstProbe) {
  hl::ProgramBuilder pb("dead_buffer");
  std::vector<double> init(64);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = 1.0 + 0.5 * i;
  const auto src = pb.global_init_f64("src", init);
  const auto dead = pb.global_f64("dead", 64);
  const auto acc = pb.global_f64("acc", 1);
  const auto produce = pb.declare_region("produce");
  const auto work = pb.declare_region("work");
  {
    auto f = pb.define(pb.declare_function("main"));
    f.region(produce, [&] {
      f.for_("i", 0, 64, [&](hl::Value i) {
        f.st(dead, i, f.ld(src, i) * 3.0);
      });
    });
    f.for_("it", 0, 4, [&](hl::Value) {
      f.region(work, [&] {
        f.for_("j", 0, 64, [&](hl::Value j) {
          f.st(acc, 0, f.ld(acc, 0) + f.ld(src, j));
        });
      });
    });
    f.emit(f.ld(acc, 0));
    f.ret();
  }
  const auto mod = pb.finish();
  const LadderHarness h(mod, produce);
  ASSERT_GE(h.ladder->sections.size(), 3u);
  const auto verify = fault::tolerance_verifier(1e-9);

  // Flip the first iteration's product: it is stored to dead[0], and the
  // next iteration overwrites its register, so only dead memory differs.
  fault::CampaignConfig cfg;
  cfg.trials = 64;
  auto prepared = fault::prepare_campaign(
      h.sites, fault::TargetClass::Internal, {}, cfg);
  ASSERT_EQ(prepared.ladder, h.ladder);
  const std::uint64_t product =
      h.first(ir::Opcode::FMul, h.sites.region_entry_index);
  auto one = prepared;
  one.plans = {fault::plan_for_internal({product, 64}, 40)};
  one.fork_bounds = {product};
  const auto snapshots = fault::prepare_snapshots(*h.prog, one);
  fault::TrialRunner runner(*h.prog, one, snapshots, h.golden, verify);
  fault::TrialAccounting acct;
  const auto outcome = runner.run(0, &acct);
  EXPECT_EQ(outcome, fault::run_trial(*h.prog, one, one.plans[0], h.golden,
                                      verify));
  EXPECT_EQ(outcome, fault::Outcome::VerificationSuccess);
  EXPECT_TRUE(acct.early_exit);
  EXPECT_TRUE(acct.dead_delta);
  // Closed at the first boundary after the region, not at the end.
  const auto closed_at = product + acct.instructions;
  EXPECT_EQ(closed_at,
            h.ladder->sections[h.ladder->section_of(product) + 1].begin);
  EXPECT_EQ(acct.convergence_saved, h.trace.size() - closed_at);

  // The region's campaign: forked counts equal the from-scratch loop, and
  // the dead buffer closes some trials early.
  auto scratch_cfg = cfg;
  scratch_cfg.fork.enabled = false;
  util::Scheduler pool(2);
  const auto scratch = fault::run_prepared_campaign(
      *h.prog,
      fault::prepare_campaign(h.sites, fault::TargetClass::Internal, {},
                              scratch_cfg),
      h.golden, verify, pool);
  const auto forked =
      fault::run_prepared_campaign(*h.prog, prepared, h.golden, verify, pool);
  EXPECT_EQ(forked.success, scratch.success);
  EXPECT_EQ(forked.failed, scratch.failed);
  EXPECT_EQ(forked.crashed, scratch.crashed);
  EXPECT_GT(forked.dead_delta_exits, 0u);
}

// A probe compares the pages the trial wrote AND the pages the golden run
// wrote since the fork. Here a flag flip at region entry sends one store to
// a dead spill word beside the flag instead of to x[0], which sits on a page
// of its own. The trial restores the flag, so the pages it wrote differ from
// golden only in the dead spill word; only the page golden wrote shows the
// live x[0] delta that makes the output wrong. Counts must equal the
// from-scratch loop.
TEST(LadderProbe, GoldenWritesBetweenForkAndProbeAreCompared) {
  hl::ProgramBuilder pb("golden_dirty");
  const auto flag = pb.global_init_i64("flag", {1});
  const auto spill = pb.global_f64("spill", 1);  // never read
  (void)pb.global_f64("pad", 2048);              // x lands two pages on
  const auto x = pb.global_f64("x", 8);
  const auto store_flagged = pb.declare_function("store_flagged");
  const auto body = pb.declare_region("body");
  const auto report = pb.declare_region("report");
  {
    // A callee, so the loaded flag dies with its frame, and two branches of
    // equal length, so both paths stay in step: once it returns only
    // memory differs.
    auto f = pb.define(store_flagged);
    f.if_else(
        f.ld(flag, 0).ne(std::int64_t{0}), [&] { f.st(x, 0, f.c_f64(5.0)); },
        [&] { f.st(spill, 0, f.c_f64(5.0)); });
    f.ret();
  }
  {
    auto f = pb.define(pb.declare_function("main"));
    f.region(body, [&] {
      (void)f.call(store_flagged);
      f.st(flag, 0, f.c_i64(1));
    });
    f.region(report, [&] { f.emit(f.ld(x, 0)); });
    f.ret();
  }
  const auto mod = pb.finish();
  ASSERT_NE(mod.global(flag.index).addr / vm::Vm::Snapshot::kPageBytes,
            mod.global(x.index).addr / vm::Vm::Snapshot::kPageBytes);
  const LadderHarness h(mod, body);
  const auto verify = fault::tolerance_verifier(1e-9);

  // Every bit of every input word of the region, flipped at its entry.
  fault::CampaignConfig cfg;
  auto prepared = fault::prepare_campaign(h.sites, fault::TargetClass::Input,
                                          {}, cfg);
  prepared.plans.clear();
  prepared.fork_bounds.clear();
  bool flag_is_input = false;
  for (const auto& site : h.sites.sites.input) {
    flag_is_input |= site.address == mod.global(flag.index).addr;
    for (std::uint32_t bit = 0; bit < 8 * site.width_bytes; ++bit) {
      prepared.plans.push_back(fault::plan_for_input(h.sites.sites, site, bit));
      prepared.fork_bounds.push_back(h.sites.region_entry_index);
    }
  }
  ASSERT_TRUE(flag_is_input);
  auto scratch_prep = prepared;
  scratch_prep.fork.enabled = false;
  util::Scheduler pool(2);
  const auto scratch = fault::run_prepared_campaign(*h.prog, scratch_prep,
                                                    h.golden, verify, pool);
  const auto forked =
      fault::run_prepared_campaign(*h.prog, prepared, h.golden, verify, pool);
  // Clearing bit 0 of the flag diverts the store: the output is wrong.
  EXPECT_GE(scratch.failed, 1u);
  EXPECT_EQ(forked.success, scratch.success);
  EXPECT_EQ(forked.failed, scratch.failed);
  EXPECT_EQ(forked.crashed, scratch.crashed);
  EXPECT_GT(forked.early_exits, 0u);
}

}  // namespace
}  // namespace ft
