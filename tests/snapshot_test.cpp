// Snapshot/resume coverage: Vm::Snapshot round-trips (save/restore mid-run,
// run_until pausing, fork_from syncing) must be invisible to execution —
// bit-identical outputs, traps, retired counts and columnar traces versus a
// from-scratch run — and the snapshot-forked campaign scheduler must
// produce outcome counts identical to the from-scratch trial loop. Pinned
// for all ten workloads, clean, faulted and trapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "apps/app.h"
#include "fault/campaign.h"
#include "fault/sites.h"
#include "trace/column.h"
#include "vm/decode.h"
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
// actually reusing prefixes.
TEST_P(SnapshotEquivalence, ForkedCampaignCountsMatchScratch) {
  const auto app = apps::build_app(GetParam());
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto sites = fault::enumerate_whole_program_sites(prog, app.base);
  ASSERT_TRUE(sites.region_found);
  const auto golden = vm::Vm::run(prog, app.base);
  ASSERT_TRUE(golden.completed());

  fault::CampaignConfig scratch_cfg;
  scratch_cfg.trials = 16;
  scratch_cfg.seed = 0xABCDull;
  scratch_cfg.fork.enabled = false;
  auto forked_cfg = scratch_cfg;
  forked_cfg.fork.enabled = true;

  util::Scheduler pool(2);
  const auto scratch = fault::run_prepared_campaign(
      prog, fault::prepare_campaign(sites, fault::TargetClass::Internal,
                                    app.base, scratch_cfg),
      golden.outputs, app.verifier, pool);
  const auto forked = fault::run_prepared_campaign(
      prog, fault::prepare_campaign(sites, fault::TargetClass::Internal,
                                    app.base, forked_cfg),
      golden.outputs, app.verifier, pool);

  EXPECT_EQ(forked.trials, scratch.trials);
  EXPECT_EQ(forked.success, scratch.success);
  EXPECT_EQ(forked.failed, scratch.failed);
  EXPECT_EQ(forked.crashed, scratch.crashed);
  // The scratch path reports no prefix reuse; the forked path must.
  EXPECT_EQ(scratch.prefix_instructions_saved, 0u);
  EXPECT_EQ(scratch.snapshots_taken, 0u);
  EXPECT_GT(forked.prefix_instructions_saved, 0u);
  EXPECT_GT(forked.snapshots_taken, 0u);
  EXPECT_GT(forked.resume_depth, 0u);
  EXPECT_LT(forked.instructions_retired, scratch.instructions_retired);
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

TEST(RunForkedTrial, OneShotMatchesRunTrial) {
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
    fault::TrialAccounting acct;
    const auto forked = fault::run_forked_trial(
        prog, prepared, snapshots, i, golden.outputs, app.verifier, &acct);
    const auto scratch = fault::run_trial(prog, prepared, prepared.plans[i],
                                          golden.outputs, app.verifier);
    EXPECT_EQ(forked, scratch) << "plan " << i;
    EXPECT_EQ(acct.prefix_saved, prepared.fork_bounds[i]);
  }
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

}  // namespace
}  // namespace ft
