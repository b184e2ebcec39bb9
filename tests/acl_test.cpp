// ACL table tests, including the paper's Fig. 3 worked example, the
// differential engine (checked against plain traced runs), and
// liveness/kill invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "acl/diff.h"
#include "acl/table.h"
#include "apps/app.h"
#include "fault/campaign.h"
#include "hl/builder.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/events.h"
#include "util/bits.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

// --- Fig. 3: hand-built record stream, taint mode -----------------------------
//
// Instr 1 writes Loc_1 (the injected corruption), 2 and 4 touch an
// unrelated location, 3 reads Loc_1 and writes Loc_2, 5 overwrites Loc_1
// with a clean value, 6 ends the stream. Expected ACL counts after each
// instruction: 1 1 2 2 1 0 (the last row of the paper's figure).

vm::DynInstr rec(std::uint64_t index, ir::Opcode op, vm::Location result,
                 std::initializer_list<vm::Location> reads) {
  vm::DynInstr d;
  d.index = index;
  d.op = op;
  d.result_loc = result;
  d.type = ir::Type::F64;
  unsigned k = 0;
  for (const auto l : reads) {
    d.op_loc[k] = l;
    d.op_type[k] = ir::Type::F64;
    k++;
  }
  d.nops = k;
  return d;
}

/// The lockstep diff of `m` on a fresh decoding of it.
acl::ColumnDiff diff_of(const ir::Module& m, const acl::DiffOptions& opts) {
  return acl::diff_run_columnar(std::make_shared<const vm::DecodedProgram>(
                                    vm::DecodedProgram::decode(m)),
                                opts);
}

TEST(AclTable, Figure3WorkedExample) {
  constexpr vm::Location loc1 = 100, loc2 = 108, other = 200;
  std::vector<vm::DynInstr> records = {
      rec(0, ir::Opcode::Store, loc1, {}),        // 1: fault lands in Loc_1
      rec(1, ir::Opcode::Store, other, {}),       // 2: unrelated
      rec(2, ir::Opcode::Store, loc2, {loc1}),    // 3: Loc_1 -> Loc_2
      rec(3, ir::Opcode::Store, other, {}),       // 4: unrelated
      rec(4, ir::Opcode::Store, loc1, {}),        // 5: clean overwrite
      rec(5, ir::Opcode::Ret, vm::kNoLoc, {}),    // 6: end
  };
  const auto events = trace::LocationEvents::build(records);
  const auto acl = acl::build_acl_taint(records, events, loc1, 0);

  ASSERT_EQ(acl.count.size(), 6u);
  EXPECT_EQ(acl.count[0], 1u);
  EXPECT_EQ(acl.count[1], 1u);
  EXPECT_EQ(acl.count[2], 2u);
  EXPECT_EQ(acl.count[3], 2u);
  EXPECT_EQ(acl.count[4], 1u);  // Loc_1 overwritten by a clean value
  EXPECT_EQ(acl.count[5], 0u);  // Loc_2 dead at end of trace
  EXPECT_EQ(acl.max_count, 2u);

  EXPECT_EQ(acl.kills(acl::AclEventKind::KillOverwrite), 1u);
  EXPECT_EQ(acl.kills(acl::AclEventKind::KillEndOfTrace), 1u);
  EXPECT_EQ(acl.first_corruption_index, 0u);
}

TEST(AclTable, TaintKillDeadAtLastUse) {
  constexpr vm::Location loc1 = 100, loc2 = 108;
  // Loc_1 corrupted at 0; its only use is at 1 and it is never written
  // again -> it must die *at* instruction 1 (the consuming instruction).
  std::vector<vm::DynInstr> records = {
      rec(0, ir::Opcode::Store, loc1, {}),
      rec(1, ir::Opcode::Store, loc2, {loc1}),
      rec(2, ir::Opcode::Store, loc2, {}),  // clean overwrite of Loc_2
      rec(3, ir::Opcode::Ret, vm::kNoLoc, {}),
  };
  const auto events = trace::LocationEvents::build(records);
  const auto acl = acl::build_acl_taint(records, events, loc1, 0);
  ASSERT_EQ(acl.count.size(), 4u);
  EXPECT_EQ(acl.count[0], 1u);
  EXPECT_EQ(acl.count[1], 1u);  // Loc_1 died (dead), Loc_2 born
  EXPECT_EQ(acl.count[2], 0u);  // Loc_2 overwritten clean
  EXPECT_EQ(acl.kills(acl::AclEventKind::KillDead), 1u);
  EXPECT_EQ(acl.kills(acl::AclEventKind::KillOverwrite), 1u);
}

// --- differential engine ------------------------------------------------------

TEST(DiffRun, NoFaultMeansNoDifference) {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 20, [&](hl::Value i) { s.set(s.get() + f.sitofp(i)); });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  acl::DiffOptions opts;
  opts.fault = vm::FaultPlan::none();
  const auto diff = diff_of(mod, opts);
  EXPECT_FALSE(diff.diverged());
  for (std::size_t i = 0; i < diff.usable_records(); ++i) {
    EXPECT_FALSE(diff.differs[i]);
  }
  EXPECT_EQ(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(DiffRun, ReserveRecordsIsHonored) {
  // The clean-side columns are pre-reserved from
  // DiffOptions::reserve_records. A hint far above what organic doubling
  // would reach proves reserve ran.
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 50, [&](hl::Value i) { s.set(s.get() + f.sitofp(i)); });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  acl::DiffOptions opts;
  opts.fault = vm::FaultPlan::result_bit(30, 1);
  const auto records = diff_of(mod, opts).usable_records();
  ASSERT_GT(records, 0u);

  opts.reserve_records = records * 4;
  const auto reserved = diff_of(mod, opts);
  EXPECT_EQ(reserved.usable_records(), records);
  EXPECT_GE(reserved.clean_bits.capacity(), records * 4);
  EXPECT_GE(reserved.clean_op_bits.capacity(), records * 4);
  EXPECT_GE(reserved.differs.words().capacity(), (records * 4 + 63) / 64);

  // The cap still clamps the reserve (no over-allocation past max_records).
  opts.max_records = records / 2;
  const auto capped = diff_of(mod, opts);
  EXPECT_TRUE(capped.truncated);
  EXPECT_LT(capped.clean_bits.capacity(), records * 4);
}

/// A program plus the fault plan the diff tests inject into it.
struct Kernel {
  ir::Module mod;
  vm::FaultPlan plan;
};

/// Index of the first record of a fault-free legacy run that `pred` accepts
/// (the last one when `last` is set).
template <typename Pred>
std::uint64_t find_record(const ir::Module& m, Pred pred, bool last = false) {
  trace::TraceCollector c;
  vm::VmOptions vopts;
  vopts.observer = &c;
  (void)vm::Vm::run(m, vopts);
  std::uint64_t found = 0;
  for (const auto& r : c.trace().records) {
    if (!pred(r)) continue;
    found = r.index;
    if (!last) break;
  }
  return found;
}

/// sum(arr) emitted: a flip of the load of 3.0 corrupts the emitted sum.
Kernel summing_kernel() {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 2.0, 3.0, 4.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 4, [&](hl::Value i) { s.set(s.get() + f.ld(arr, i)); });
    f.emit(s.get());
    f.ret();
  }
  Kernel k{pb.finish(), {}};
  const auto load_index = find_record(k.mod, [](const vm::DynInstr& r) {
    return r.op == ir::Opcode::Load &&
           r.result_bits == util::f64_to_bits(3.0);
  });
  k.plan = vm::FaultPlan::result_bit(load_index, 51);
  return k;
}

TEST(DiffRun, FaultShowsUpExactlyAtInjection) {
  const auto k = summing_kernel();
  const auto load_index = k.plan.dyn_index;
  ASSERT_NE(load_index, 0u);
  const auto diff = diff_of(k.mod, acl::DiffOptions{{}, k.plan});
  ASSERT_FALSE(diff.diverged());
  // Nothing differs before the injection; the injected record differs.
  for (std::uint64_t i = 0; i < load_index; ++i) {
    EXPECT_FALSE(diff.differs[i]);
  }
  EXPECT_TRUE(diff.differs[load_index]);
  EXPECT_NE(diff.faulty_result.outputs, diff.clean_result.outputs);
}

/// Branch on x: flipping the comparison's i1 flips control flow.
Kernel diverging_kernel() {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto x = f.var_i64("x", 4);
    f.if_else(x.get().gt(2), [&] { f.emit(f.c_i64(111)); },
              [&] { f.emit(f.c_i64(222)); });
    f.ret();
  }
  Kernel k{pb.finish(), {}};
  const auto cmp_index = find_record(
      k.mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::ICmp; },
      /*last=*/true);
  k.plan = vm::FaultPlan::result_bit(cmp_index, 0);  // flip the i1
  return k;
}

/// data[idx]: a high-bit flip of the loaded index reads out of bounds.
Kernel trapping_kernel() {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_i64("idx", {1});
  auto data = pb.global_f64("data", 4);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.ld(data, f.ld(arr, 0)));
    f.ret();
  }
  Kernel k{pb.finish(), {}};
  const auto idx_load = find_record(k.mod, [](const vm::DynInstr& r) {
    return r.op == ir::Opcode::Load && r.type == ir::Type::I64;
  });
  k.plan = vm::FaultPlan::result_bit(idx_load, 40);  // huge index
  return k;
}

TEST(DiffRun, ControlFlowDivergenceIsDetected) {
  const auto k = diverging_kernel();
  const auto diff = diff_of(k.mod, acl::DiffOptions{{}, k.plan});
  EXPECT_TRUE(diff.diverged());
  EXPECT_GT(diff.divergence_index, k.plan.dyn_index);
  EXPECT_NE(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(DiffRun, CrashingFaultStillReportsOutcome) {
  const auto k = trapping_kernel();
  const auto diff = diff_of(k.mod, acl::DiffOptions{{}, k.plan});
  EXPECT_EQ(diff.faulty_result.trap, vm::TrapKind::OutOfBounds);
  EXPECT_TRUE(diff.clean_result.completed());
}

// --- the diff against two plain traced runs ----------------------------------
//
// Independent oracle for diff_run_columnar: a fault-free and a faulted
// traced run of the same program, under the same options and hang budget,
// determine every field of the lockstep diff.

void expect_same_result(const vm::RunResult& a, const vm::RunResult& b) {
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fault_fired, b.fault_fired);
  EXPECT_TRUE(a.outputs == b.outputs);
}

struct TracedRun {
  trace::ColumnTrace trace;
  vm::RunResult result;
};

TracedRun traced_run(const std::shared_ptr<const vm::DecodedProgram>& prog,
                     vm::VmOptions opts, const vm::FaultPlan& plan) {
  TracedRun out{trace::ColumnTrace(prog), {}};
  opts.column_sink = &out.trace;
  opts.fault = plan;
  out.result = vm::Vm::run(*prog, opts);
  return out;
}

/// Diff `m` under `plan` and check it against the two plain runs. Returns
/// the number of lockstep rows (the common pc prefix of the runs); the diff
/// itself lands in `*diff_out` when given.
std::size_t expect_diff_matches_plain_runs(
    const ir::Module& m, vm::VmOptions base, const vm::FaultPlan& plan,
    std::size_t max_records, acl::ColumnDiff* diff_out = nullptr) {
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(m));
  const auto golden = traced_run(prog, base, vm::FaultPlan::none());
  EXPECT_TRUE(golden.result.completed());
  base.max_instructions = fault::hang_budget(
      fault::CampaignConfig{}.budget_factor, golden.result.instructions);
  const auto faulted = traced_run(prog, base, plan);

  acl::DiffOptions opts;
  opts.base = base;
  opts.fault = plan;
  opts.max_records = max_records;
  const auto diff = acl::diff_run_columnar(prog, opts);

  const auto g = golden.trace.raw();
  const auto f = faulted.trace.raw();
  const std::size_t both = std::min(g.rows, f.rows);
  std::size_t lockstep = 0;
  while (lockstep < both && g.pc[lockstep] == f.pc[lockstep]) ++lockstep;
  std::uint64_t divergence = acl::kNoIndex;
  if (lockstep < both) {
    divergence = lockstep;  // the first row whose pcs differ
  } else if (!faulted.result.completed()) {
    divergence = f.rows;  // the row that trapped
  }
  const bool truncated = max_records != 0 && lockstep >= max_records;
  const std::size_t usable = truncated ? max_records : lockstep;

  EXPECT_EQ(diff.divergence_index, divergence);
  EXPECT_EQ(diff.truncated, truncated);
  EXPECT_EQ(diff.usable_records(), usable);
  EXPECT_EQ(diff.faulty.size(), usable);
  EXPECT_EQ(diff.clean_op_bits.size(), usable);
  EXPECT_EQ(diff.differs.size(), usable);
  for (std::size_t i = 0; i < std::min(usable, diff.usable_records()); ++i) {
    const auto fr = faulted.trace.record(i);
    const auto gr = golden.trace.record(i);
    EXPECT_TRUE(diff.faulty.record(i) == fr) << "row " << i;
    EXPECT_EQ(diff.clean_bits[i], gr.result_bits) << "row " << i;
    EXPECT_EQ(diff.clean_op_bits[i], gr.op_bits) << "row " << i;
    const bool comparable = fr.result_loc != vm::kNoLoc ||
                            fr.op == ir::Opcode::Emit ||
                            fr.op == ir::Opcode::EmitTrunc;
    EXPECT_EQ(bool(diff.differs[i]),
              comparable && fr.result_bits != gr.result_bits)
        << "row " << i;
    if (::testing::Test::HasFailure()) break;  // one row's report is enough
  }
  expect_same_result(diff.clean_result, golden.result);
  expect_same_result(diff.faulty_result, faulted.result);
  if (diff_out) *diff_out = diff;
  return lockstep;
}

TEST(DiffOracle, CorruptedOutputKernel) {
  // The corrupted sum reaches the emit: exercises the Emit rule of differs.
  const auto k = summing_kernel();
  expect_diff_matches_plain_runs(k.mod, {}, k.plan, 0);
}

TEST(DiffOracle, DivergingKernel) {
  const auto k = diverging_kernel();
  const auto lockstep = expect_diff_matches_plain_runs(k.mod, {}, k.plan, 0);
  EXPECT_GT(lockstep, k.plan.dyn_index);
  // The record cap at and just past the lockstep length.
  expect_diff_matches_plain_runs(k.mod, {}, k.plan, lockstep);
  expect_diff_matches_plain_runs(k.mod, {}, k.plan, lockstep + 1);
  expect_diff_matches_plain_runs(k.mod, {}, k.plan, 1);
}

TEST(DiffOracle, TrappingKernel) {
  const auto k = trapping_kernel();
  const auto lockstep = expect_diff_matches_plain_runs(k.mod, {}, k.plan, 0);
  expect_diff_matches_plain_runs(k.mod, {}, k.plan, lockstep);
}

/// while (i != n) ++i over a loaded n: a high-bit flip of the load keeps
/// the faulty run looping after the clean one leaves the loop, until the
/// hang budget ends it.
Kernel hanging_kernel() {
  hl::ProgramBuilder pb("t");
  auto bound = pb.global_init_i64("n", {5000});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    const auto n = f.ld(bound, 0);
    auto i = f.var_i64("i", 0);
    f.while_([&] { return i.get().ne(n); }, [&] { i.set(i.get() + 1); });
    f.emit(i.get());
    f.ret();
  }
  Kernel k{pb.finish(), {}};
  const auto n_load = find_record(k.mod, [](const vm::DynInstr& r) {
    return r.op == ir::Opcode::Load && r.type == ir::Type::I64;
  });
  k.plan = vm::FaultPlan::result_bit(n_load, 40);
  return k;
}

TEST(DiffOracle, HangingKernel) {
  const auto k = hanging_kernel();
  acl::ColumnDiff diff;
  const auto lockstep =
      expect_diff_matches_plain_runs(k.mod, {}, k.plan, 0, &diff);
  EXPECT_EQ(diff.faulty_result.trap, vm::TrapKind::Hang);
  EXPECT_TRUE(diff.clean_result.completed());
  // The 5000 iterations before the exit test that parts the runs span
  // several diff windows, so the capped legs compare many rows past the cap.
  EXPECT_GT(lockstep, 30000u);
  for (const std::size_t cap : {std::size_t{1}, lockstep}) {
    SCOPED_TRACE(cap);
    expect_diff_matches_plain_runs(k.mod, {}, k.plan, cap, &diff);
    EXPECT_LE(diff.faulty.size(), cap);
  }
}

class DiffOracleApps : public ::testing::TestWithParam<std::string> {};

TEST_P(DiffOracleApps, MatchesPlainRuns) {
  const auto app = apps::build_app(GetParam());
  expect_diff_matches_plain_runs(app.module, app.base,
                                 vm::FaultPlan::result_bit(20000, 33),
                                 /*max_records=*/150000);
  // An input fault flips memory at the main region's entry, wherever that
  // falls inside a diff window.
  if (app.main_region != ~std::uint32_t{0} && app.module.num_globals() > 0) {
    SCOPED_TRACE("region input fault");
    const auto& g = app.module.global(0);
    expect_diff_matches_plain_runs(
        app.module, app.base,
        vm::FaultPlan::region_input_bit(app.main_region, 0, g.addr,
                                        store_size(g.elem), 17),
        /*max_records=*/150000);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, DiffOracleApps,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- value-diff ACL over a real program ------------------------------------------

TEST(AclValueDiff, OverwriteKillsCorruption) {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 0.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto v = f.ld(arr, 0);
    f.st(arr, 1, v);          // propagate
    f.st(arr, 1, f.c_f64(9.0));  // clean overwrite
    f.emit(f.ld(arr, 1));
    f.ret();
  }
  auto mod = pb.finish();

  trace::TraceCollector c;
  vm::VmOptions vopts;
  vopts.observer = &c;
  (void)vm::Vm::run(mod, vopts);
  std::uint64_t load_idx = 0;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::Load &&
        r.result_bits == util::f64_to_bits(1.0)) {
      load_idx = r.index;
      break;
    }
  }

  acl::DiffOptions opts;
  opts.fault = vm::FaultPlan::result_bit(load_idx, 50);
  const auto diff = diff_of(mod, opts);
  ASSERT_FALSE(diff.diverged());
  const auto events = trace::LocationEvents::build(diff.records());
  const auto acl_series = acl::build_acl(diff, events);

  // Corruption was born, propagated, and fully eliminated by the overwrite
  // (outputs match the clean run).
  EXPECT_GT(acl_series.births(), 0u);
  EXPECT_GT(acl_series.kills(acl::AclEventKind::KillOverwrite), 0u);
  EXPECT_EQ(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(AclValueDiff, CountNeverNegativeAndEndsAtZeroWhenMasked) {
  // Property over several injection points: counts are sane.
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 2.0, 3.0, 4.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 4, [&](hl::Value i) { s.set(s.get() + f.ld(arr, i)); });
    f.st(arr, 0, f.c_f64(5.0));  // clean overwrite of arr[0]
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  for (const std::uint64_t idx : {2ull, 5ull, 8ull, 11ull}) {
    acl::DiffOptions opts;
    opts.fault = vm::FaultPlan::result_bit(idx, 13);
    const auto diff = diff_of(mod, opts);
    if (diff.diverged()) continue;
    const auto events = trace::LocationEvents::build(diff.records());
    const auto acl_series = acl::build_acl(diff, events);
    for (std::size_t i = 1; i < acl_series.count.size(); ++i) {
      // Counts move by bounded steps and stay non-negative (unsigned).
      EXPECT_LE(acl_series.count[i],
                acl_series.count[i - 1] + 2u);
    }
    if (!acl_series.count.empty()) {
      EXPECT_EQ(acl_series.count.back(), 0u);  // end-of-trace cleanup
    }
  }
}

TEST(AclErrorMagnitude, MatchesEquation2) {
  const auto clean = util::f64_to_bits(4.0);
  const auto faulty = util::f64_to_bits(5.0);
  EXPECT_DOUBLE_EQ(acl::error_magnitude(clean, faulty, ir::Type::F64), 0.25);
  EXPECT_DOUBLE_EQ(acl::error_magnitude(clean, clean, ir::Type::F64), 0.0);
  EXPECT_TRUE(std::isinf(
      acl::error_magnitude(util::f64_to_bits(0.0), faulty, ir::Type::F64)));
  // Integer magnitudes.
  EXPECT_DOUBLE_EQ(acl::error_magnitude(10, 15, ir::Type::I64), 0.5);
}

TEST(AclEvents, KindNamesAreStable) {
  EXPECT_EQ(acl::acl_event_kind_name(acl::AclEventKind::Birth), "birth");
  EXPECT_EQ(acl::acl_event_kind_name(acl::AclEventKind::KillDead),
            "kill-dead");
}

}  // namespace
}  // namespace ft
