// JIT engine coverage: the native x64 backend (src/jit/) must be
// bit-identical to the decoded interpreter — results, trap kinds, retired
// counts, outputs and the full machine state at any pause point — for all
// ten workloads, clean and faulted and trapping. Snapshots taken under one
// engine must restore into the other with state_equals() true and an
// identical continuation (the campaign scheduler forks machines without
// knowing which engine advanced them). Also pins the per-opcode dispatch
// counters (VmOptions::count_opcodes) the JIT coverage report is built on.
// Directed kernels pin the paths random programs rarely reach: the dirty-page
// marks of stores at page edges, and every native trap exit.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "apps/app.h"
#include "hl/builder.h"
#include "jit/jit_program.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

struct JitApp {
  apps::AppSpec app;
  vm::DecodedProgram prog;
  std::shared_ptr<const jit::JitProgram> jit;

  explicit JitApp(const std::string& name)
      : app(apps::build_app(name)),
        prog(vm::DecodedProgram::decode(app.module)),
        jit(jit::JitProgram::compile(prog)) {}

  [[nodiscard]] vm::VmOptions interp_opts() const {
    auto o = app.base;
    o.jit = nullptr;
    return o;
  }
  [[nodiscard]] vm::VmOptions jit_opts() const {
    auto o = app.base;
    o.jit = jit.get();
    return o;
  }
};

void expect_same_result(const vm::RunResult& a, const vm::RunResult& b) {
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fault_fired, b.fault_fired);
  EXPECT_TRUE(a.outputs == b.outputs);
}

class JitEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(JitEquivalence, CleanRunBitIdentical) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  expect_same_result(vm::Vm::run(ja.prog, ja.interp_opts()),
                     vm::Vm::run(ja.prog, ja.jit_opts()));
}

TEST_P(JitEquivalence, FaultedRunsBitIdentical) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  const auto clean = vm::Vm::run(ja.prog, ja.interp_opts());
  const std::uint64_t n = clean.instructions;
  // Flip indices spread across the run (including the very first and very
  // last retired instruction) and a spread of bit positions — enough to
  // hit SDC, masked, trapping and verification-failure trials.
  const std::uint64_t indices[] = {0, 1, n / 7, n / 3, n / 2, n - 2, n - 1};
  const std::uint32_t bits[] = {0, 13, 31, 40, 62};
  for (const auto idx : indices) {
    for (const auto bit : bits) {
      const auto plan = vm::FaultPlan::result_bit(idx, bit);
      auto io = ja.interp_opts();
      auto jo = ja.jit_opts();
      io.fault = plan;
      jo.fault = plan;
      const auto ri = vm::Vm::run(ja.prog, io);
      const auto rj = vm::Vm::run(ja.prog, jo);
      EXPECT_EQ(ri.trap, rj.trap) << "idx=" << idx << " bit=" << bit;
      EXPECT_EQ(ri.instructions, rj.instructions)
          << "idx=" << idx << " bit=" << bit;
      EXPECT_EQ(ri.fault_fired, rj.fault_fired)
          << "idx=" << idx << " bit=" << bit;
      EXPECT_TRUE(ri.outputs == rj.outputs) << "idx=" << idx
                                            << " bit=" << bit;
    }
  }
}

TEST_P(JitEquivalence, RegionFaultBitIdentical) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  if (ja.app.main_region == ~std::uint32_t{0}) GTEST_SKIP();
  // RegionInputMemoryBit faults fire inside the RegionEnter helper — fully
  // native, no deopt — so pin them separately from ResultBit plans.
  const auto plan = vm::FaultPlan::region_input_bit(
      ja.app.main_region, 0, ir::kGlobalBase, 8, 17);
  auto io = ja.interp_opts();
  auto jo = ja.jit_opts();
  io.fault = plan;
  jo.fault = plan;
  expect_same_result(vm::Vm::run(ja.prog, io), vm::Vm::run(ja.prog, jo));
}

TEST_P(JitEquivalence, HangBudgetBitIdentical) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  const auto clean = vm::Vm::run(ja.prog, ja.interp_opts());
  auto io = ja.interp_opts();
  auto jo = ja.jit_opts();
  io.max_instructions = clean.instructions / 2;
  jo.max_instructions = clean.instructions / 2;
  const auto ri = vm::Vm::run(ja.prog, io);
  const auto rj = vm::Vm::run(ja.prog, jo);
  EXPECT_EQ(ri.trap, vm::TrapKind::Hang);
  expect_same_result(ri, rj);
}

// Snapshot interop: pause under the JIT, snapshot, restore into an
// interpreter machine (and the reverse) — state must match bit for bit and
// both continuations must agree with a straight-through run.
TEST_P(JitEquivalence, SnapshotInteropAcrossEngines) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  const auto clean = vm::Vm::run(ja.prog, ja.interp_opts());
  const std::uint64_t mid = clean.instructions / 2;

  // JIT prefix -> snapshot -> interpreter tail.
  vm::Vm jv(ja.prog, ja.jit_opts());
  jv.run_until(mid);
  ASSERT_EQ(jv.status(), vm::Vm::Status::Running);
  ASSERT_EQ(jv.instructions_retired(), mid);
  const auto snap_j = jv.snapshot();

  // Interpreter prefix -> snapshot: the two snapshots must already agree.
  vm::Vm iv(ja.prog, ja.interp_opts());
  iv.run_until(mid);
  ASSERT_EQ(iv.instructions_retired(), mid);
  EXPECT_TRUE(iv.state_equals(snap_j));
  const auto snap_i = iv.snapshot();
  EXPECT_TRUE(jv.state_equals(snap_i));

  // Restore the JIT snapshot into an interpreter machine and finish there.
  vm::Vm tail_interp(ja.prog, snap_j, ja.interp_opts());
  auto ri = tail_interp.run();
  // And the interpreter snapshot into a JIT machine.
  vm::Vm tail_jit(ja.prog, snap_i, ja.jit_opts());
  auto rj = tail_jit.run();
  EXPECT_EQ(ri.trap, rj.trap);
  EXPECT_EQ(ri.instructions, clean.instructions);
  EXPECT_EQ(rj.instructions, clean.instructions);
  // The snapshotted prefix already holds the prefix outputs; the clean
  // run's output vector must equal prefix + tail on both engines.
  EXPECT_TRUE(ri.outputs == clean.outputs);
  EXPECT_TRUE(rj.outputs == clean.outputs);
}

TEST_P(JitEquivalence, ForkFromJitCursorMatchesInterpreter) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  const auto clean = vm::Vm::run(ja.prog, ja.interp_opts());
  const std::uint64_t site = clean.instructions / 3;

  // Golden cursor advances natively; the trial machine forks from it,
  // runs a faulted tail natively, and must match a faulted interpreter run.
  auto jo = ja.jit_opts();
  jo.track_writes = true;
  vm::Vm golden(ja.prog, jo);
  golden.run_until(site);
  ASSERT_EQ(golden.status(), vm::Vm::Status::Running);

  vm::Vm trial(ja.prog, jo);
  trial.fork_from(golden, /*full=*/true);
  const auto plan = vm::FaultPlan::result_bit(site + 7, 29);
  trial.set_fault(plan);
  const auto rt = trial.run();

  auto io = ja.interp_opts();
  io.fault = plan;
  const auto ri = vm::Vm::run(ja.prog, io);
  expect_same_result(ri, rt);
}

TEST_P(JitEquivalence, RollbackFromNativeCursorReplaysClean) {
  // Recovery re-entry (fault/campaign.h): after Vm::rollback onto a
  // waypoint snapshot, the stale run_until pause mark is cleared, the hang
  // budget is whole again (restore rewound the retired count it is compared
  // against), the armed fault is disarmed and the dirty-page bitmap is
  // fully clean — consistently whether the machine advanced natively or
  // under the interpreter.
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  const auto clean = vm::Vm::run(ja.prog, ja.interp_opts());
  const std::uint64_t way = clean.instructions / 4;
  const std::uint64_t deep = clean.instructions / 2;

  auto jo = ja.jit_opts();
  jo.track_writes = true;
  // A budget an un-rewound retired count would bust: rollback re-executes
  // the tail, so a machine that kept the pre-rollback count would classify
  // the replay as a hang well before completion.
  jo.max_instructions = clean.instructions + 8;
  auto io = ja.interp_opts();
  io.track_writes = true;
  io.max_instructions = jo.max_instructions;

  // Native cursor: pause at the waypoint, snapshot, then run on with an
  // armed fault to a deeper pause — exactly the state an interrupted trial
  // leaves behind when its detector fires.
  vm::Vm jv(ja.prog, jo);
  jv.run_until(way);
  ASSERT_EQ(jv.status(), vm::Vm::Status::Running);
  const auto waypoint = jv.snapshot();
  jv.set_fault(vm::FaultPlan::result_bit(way + 5, 11));
  jv.run_until(deep);
  jv.rollback(waypoint);

  // Interpreter machine through the same interrupted history, rolled back
  // onto the SAME waypoint: the two machines must agree bit for bit.
  vm::Vm iv(ja.prog, io);
  iv.set_fault(vm::FaultPlan::result_bit(way + 5, 11));
  iv.run_until(deep);
  iv.rollback(waypoint);
  EXPECT_TRUE(iv.state_equals(jv.snapshot()));
  EXPECT_TRUE(jv.state_equals(iv.snapshot()));

  // Dirty bitmaps are clean after rollback, so a fork partner must resync
  // in full; the forked trial's completion pins the bitmap reset.
  vm::Vm trial(ja.prog, jo);
  trial.fork_from(jv, /*full=*/true);
  const auto rt = trial.run();
  EXPECT_EQ(rt.trap, vm::TrapKind::None);
  EXPECT_TRUE(rt.outputs == clean.outputs);

  // Both rolled-back machines re-execute to completion: no spurious hang
  // (budget), no early pause (stale mark), no re-fired fault (disarmed),
  // outputs bit-identical to golden on both engines.
  const auto rj = jv.run();
  const auto ri = iv.run();
  EXPECT_EQ(rj.trap, vm::TrapKind::None);
  EXPECT_EQ(ri.trap, vm::TrapKind::None);
  EXPECT_EQ(rj.instructions, clean.instructions);
  EXPECT_EQ(ri.instructions, clean.instructions);
  EXPECT_FALSE(rj.fault_fired);
  EXPECT_FALSE(ri.fault_fired);
  EXPECT_TRUE(rj.outputs == clean.outputs);
  EXPECT_TRUE(ri.outputs == clean.outputs);
}

TEST_P(JitEquivalence, OpcodeCountsSumToRetired) {
  JitApp ja(GetParam());
  auto o = ja.interp_opts();
  o.count_opcodes = true;
  vm::Vm v(ja.prog, o);
  const auto r = v.run();
  const auto counts = v.opcode_counts();
  ASSERT_FALSE(counts.empty());
  const std::uint64_t sum =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(sum, r.instructions);  // clean run: every dispatch retires
}

TEST_P(JitEquivalence, CountOpcodesForcesInterpreter) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja(GetParam());
  ASSERT_NE(ja.jit, nullptr);
  // count_opcodes needs per-dispatch increments, which native code does
  // not do — the engine dispatch must fall back to the interpreter and
  // still produce both the counters and the identical result.
  auto o = ja.jit_opts();
  o.count_opcodes = true;
  vm::Vm v(ja.prog, o);
  const auto r = v.run();
  expect_same_result(vm::Vm::run(ja.prog, ja.interp_opts()), r);
  EXPECT_FALSE(v.opcode_counts().empty());
}

INSTANTIATE_TEST_SUITE_P(AllApps, JitEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

TEST(JitProgram, StatsReportCompiledAndDeoptSplit) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  JitApp ja("CG");
  ASSERT_NE(ja.jit, nullptr);
  const auto& st = ja.jit->stats();
  EXPECT_EQ(st.compiled + st.deopt, ja.prog.code_size());
  EXPECT_GT(st.compiled, 0u);
  EXPECT_GT(st.code_bytes, 0u);
  // The single-rank workloads contain no MPI ops, so everything compiles.
  EXPECT_EQ(st.deopt, 0u);
}

TEST(JitProgram, OpcodeCompiledMatchesTemplates) {
  EXPECT_TRUE(jit::JitProgram::opcode_compiled(ir::Opcode::Add));
  EXPECT_TRUE(jit::JitProgram::opcode_compiled(ir::Opcode::Store));
  EXPECT_TRUE(jit::JitProgram::opcode_compiled(ir::Opcode::Call));
  EXPECT_FALSE(jit::JitProgram::opcode_compiled(ir::Opcode::MpiRank));
  EXPECT_FALSE(jit::JitProgram::opcode_compiled(ir::Opcode::MpiBarrier));
}

// --- directed kernels ---------------------------------------------------------

using hl::FunctionBuilder;
using hl::ProgramBuilder;
using hl::Value;

/// A module whose `main` runs `body` and returns.
ir::Module kernel(const std::function<void(ProgramBuilder&, FunctionBuilder&)>&
                      body) {
  ProgramBuilder pb("kernel");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    body(pb, f);
    f.ret();
  }
  return pb.finish();
}

/// Run `mod` on the decoded interpreter and on the JIT with the same
/// options; both machines must stop identically. Returns the JIT machine's
/// result for case-specific checks.
vm::RunResult expect_same_stop(const ir::Module& mod, vm::VmOptions opts,
                               const std::string& what) {
  const auto prog = vm::DecodedProgram::decode(mod);
  const auto jp = jit::JitProgram::compile(prog);
  EXPECT_NE(jp, nullptr) << what;
  if (!jp) return {};
  opts.jit = nullptr;
  vm::Vm iv(prog, opts);
  const auto ri = iv.run();
  opts.jit = jp.get();
  vm::Vm jv(prog, opts);
  const auto rj = jv.run();
  EXPECT_EQ(iv.status(), jv.status()) << what;
  EXPECT_EQ(ri.trap, rj.trap) << what;
  EXPECT_EQ(iv.next_pc(), jv.next_pc()) << what;
  EXPECT_EQ(iv.instructions_retired(), jv.instructions_retired()) << what;
  EXPECT_TRUE(ri.outputs == rj.outputs) << what;
  return rj;
}

/// A pointer to absolute address `addr`, built from the first global (laid
/// out at kGlobalBase) by a byte-stride Gep, which wraps like the machine.
Value ptr_to(FunctionBuilder& f, const hl::GlobalArray& g, std::uint64_t addr) {
  return f.gep(f.addr_of(g), f.c_i64(static_cast<std::int64_t>(
                                 addr - ir::kGlobalBase)),
               1);
}

/// A literal of type `t` (the stored value; its bits do not matter).
Value literal(FunctionBuilder& f, ir::Type t) {
  switch (t) {
    case ir::Type::I1: return f.c_bool(true);
    case ir::Type::I32: return f.c_i32(-7);
    case ir::Type::F32: return f.c_f32(1.5f);
    case ir::Type::F64: return f.c_f64(-2.25);
    default: return f.c_i64(0x0123456789abcdef);
  }
}

constexpr ir::Type kWidths[] = {ir::Type::I1, ir::Type::I32, ir::Type::F32,
                                ir::Type::I64, ir::Type::F64};

TEST(JitWriteTracking, PageEdgeStoresMarkTheInterpretersPages) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  // Store j writes at page 2j + 1 (offsets 0, 4088, 4092, 4095), so pages
  // 2j + 1 and 2j + 2 belong to store j alone and a missed second-page mark
  // leaves a hole no other store fills.
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kOffsets[] = {0, 4088, 4092, 4095};
  constexpr std::size_t kStores = std::size(kWidths) * std::size(kOffsets);
  std::vector<std::uint64_t> expected((2 * kStores + 2) / 64 + 1, 0);
  const auto mark = [&](std::uint64_t page) {
    expected[page / 64] |= std::uint64_t{1} << (page % 64);
  };
  const auto mod = kernel([&](ProgramBuilder& pb, FunctionBuilder& f) {
    const auto buf = pb.global_i64("buf", (2 * kStores + 3) * kPage / 8);
    std::uint64_t page = 1;
    for (const auto t : kWidths) {
      for (const auto off : kOffsets) {
        const std::uint64_t addr = page * kPage + off;
        f.st_raw(ptr_to(f, buf, addr), literal(f, t));
        mark(addr / kPage);
        mark((addr + ir::store_size(t) - 1) / kPage);
        page += 2;
      }
    }
  });
  const auto prog = vm::DecodedProgram::decode(mod);
  const auto jp = jit::JitProgram::compile(prog);
  ASSERT_NE(jp, nullptr);
  vm::VmOptions opts;
  opts.track_writes = true;
  vm::Vm iv(prog, opts);
  ASSERT_EQ(iv.run().trap, vm::TrapKind::None);
  opts.jit = jp.get();
  vm::Vm jv(prog, opts);
  ASSERT_EQ(jv.run().trap, vm::TrapKind::None);

  const auto di = iv.dirty_pages();
  const auto dj = jv.dirty_pages();
  ASSERT_EQ(di.size(), dj.size());
  ASSERT_GE(di.size(), expected.size());
  for (std::size_t w = 0; w < di.size(); ++w) {
    EXPECT_EQ(di[w], dj[w]) << "bitmap word " << w;
    EXPECT_EQ(dj[w], w < expected.size() ? expected[w] : 0)
        << "bitmap word " << w;
  }
  EXPECT_TRUE(iv.state_equals(jv.snapshot()));
}

/// Load (or store) a `t` at `addr`, after a few retired instructions.
ir::Module access_at(bool store, ir::Type t, std::uint64_t addr) {
  return kernel([&](ProgramBuilder& pb, FunctionBuilder& f) {
    const auto buf = pb.global_i64("buf", 64);
    f.emit(f.c_i64(1));
    const auto p = ptr_to(f, buf, addr);
    if (store) {
      f.st_raw(p, literal(f, t));
    } else {
      f.emit(f.ld_raw(p, t));
    }
  });
}

TEST(JitTrapExits, OutOfBoundsAccessesMatchTheInterpreter) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  const std::uint64_t mem = access_at(false, ir::Type::I64, 0).memory_size();
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const bool store : {false, true}) {
    for (const auto t : kWidths) {
      const std::uint64_t size = ir::store_size(t);
      const struct {
        const char* name;
        std::uint64_t addr;
        vm::TrapKind trap;
      } cases[] = {
          {"null", 0, vm::TrapKind::OutOfBounds},
          {"below kGlobalBase", ir::kGlobalBase - 1, vm::TrapKind::OutOfBounds},
          {"at kGlobalBase", ir::kGlobalBase, vm::TrapKind::None},
          {"last in bounds", mem - size, vm::TrapKind::None},
          {"one byte past memory_size", mem - size + 1,
           vm::TrapKind::OutOfBounds},
          {"addr + size wraps", kMax, vm::TrapKind::OutOfBounds},
          {"low 32 bits in range", (std::uint64_t{1} << 32) + ir::kGlobalBase,
           vm::TrapKind::OutOfBounds},
          {"bit 63 set, low bits in range",
           (std::uint64_t{1} << 63) + ir::kGlobalBase,
           vm::TrapKind::OutOfBounds},
      };
      for (const auto& c : cases) {
        const std::string what = std::string(store ? "store " : "load ") +
                                 std::string(ir::type_name(t)) + " " + c.name;
        const auto r = expect_same_stop(access_at(store, t, c.addr),
                                        vm::VmOptions{}, what);
        EXPECT_EQ(r.trap, c.trap) << what;
      }
    }
  }
}

TEST(JitTrapExits, ArithmeticTrapsMatchTheInterpreter) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const struct {
    const char* name;
    std::function<Value(FunctionBuilder&)> expr;
    vm::TrapKind trap;
  } cases[] = {
      {"sdiv by zero",
       [](FunctionBuilder& f) { return f.var_i64("x", 5).get() / f.c_i64(0); },
       vm::TrapKind::DivByZero},
      {"srem by zero",
       [](FunctionBuilder& f) { return f.var_i64("x", 5).get() % f.c_i64(0); },
       vm::TrapKind::DivByZero},
      {"i32 sdiv by zero",
       [](FunctionBuilder& f) { return f.var_i32("x", 5).get() / f.c_i32(0); },
       vm::TrapKind::DivByZero},
      {"INT64_MIN / -1",
       [](FunctionBuilder& f) {
         return f.var_i64("x", kMin).get() / f.var_i64("y", -1).get();
       },
       vm::TrapKind::IntOverflowDiv},
      {"INT64_MIN % -1",
       [](FunctionBuilder& f) {
         return f.var_i64("x", kMin).get() % f.var_i64("y", -1).get();
       },
       vm::TrapKind::IntOverflowDiv},
      {"7 / -1 (divisor -1, no overflow)",
       [](FunctionBuilder& f) {
         return f.var_i64("x", 7).get() / f.var_i64("y", -1).get();
       },
       vm::TrapKind::None},
      {"INT64_MIN / 1",
       [](FunctionBuilder& f) {
         return f.var_i64("x", kMin).get() / f.var_i64("y", 1).get();
       },
       vm::TrapKind::None},
      {"shl by 64",
       [](FunctionBuilder& f) { return f.var_i64("x", 3).get() << f.c_i64(64); },
       vm::TrapKind::BadShift},
      {"ashr by 200",
       [](FunctionBuilder& f) { return f.var_i64("x", 3).get() >> f.c_i64(200); },
       vm::TrapKind::BadShift},
      {"i32 lshr by 32",
       [](FunctionBuilder& f) {
         return f.lshr(f.var_i32("x", -3).get(), f.c_i32(32));
       },
       vm::TrapKind::BadShift},
      {"i32 shl by 31",
       [](FunctionBuilder& f) { return f.var_i32("x", 3).get() << f.c_i32(31); },
       vm::TrapKind::None},
  };
  for (const auto& c : cases) {
    const auto mod = kernel([&](ProgramBuilder&, FunctionBuilder& f) {
      f.emit(c.expr(f));
    });
    const auto r = expect_same_stop(mod, vm::VmOptions{}, c.name);
    EXPECT_EQ(r.trap, c.trap) << c.name;
  }
}

TEST(JitTrapExits, RuntimeTrapsMatchTheInterpreter) {
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  {  // Unbounded recursion: the Call past max_call_depth traps.
    ProgramBuilder pb("recurse");
    const auto rec = pb.declare_function("rec", ir::Type::I64,
                                         {ir::Param{ir::Type::I64, "n"}});
    const auto main = pb.declare_function("main");
    {
      auto f = pb.define(rec);
      f.ret(f.call(rec, {f.arg(0) + 1}));
    }
    {
      auto f = pb.define(main);
      f.emit(f.call(rec, {f.c_i64(0)}));
      f.ret();
    }
    const auto r = expect_same_stop(pb.finish(), {}, "call depth");
    EXPECT_EQ(r.trap, vm::TrapKind::CallDepth);
  }
  {  // Each frame allocas 64 KiB: the 1 MiB stack runs out first.
    ProgramBuilder pb("deep_frames");
    const auto rec = pb.declare_function("rec", ir::Type::Void,
                                         {ir::Param{ir::Type::I64, "n"}});
    const auto main = pb.declare_function("main");
    {
      auto f = pb.define(rec);
      const auto a = f.local_f64("a", 8192);
      f.st(a, f.arg(0), f.c_f64(1.0));
      f.call(rec, {f.arg(0) + 1});
      f.ret();
    }
    {
      auto f = pb.define(main);
      f.call(rec, {f.c_i64(0)});
      f.ret();
    }
    const auto r = expect_same_stop(pb.finish(), {}, "alloca overflow");
    EXPECT_EQ(r.trap, vm::TrapKind::StackOverflow);
  }
  for (const bool fire : {true, false}) {  // A hardening detector.
    auto mod = kernel([](ProgramBuilder&, FunctionBuilder& f) {
      f.emit(f.c_i64(1));
    });
    auto& instrs = mod.function(mod.entry()).blocks.back().instrs;
    ir::Instruction trap;
    trap.op = ir::Opcode::CheckTrap;
    trap.ops = {ir::Operand::imm(fire ? 1 : 0, ir::Type::I1)};
    instrs.insert(instrs.end() - 1, trap);
    const auto r = expect_same_stop(mod, {}, fire ? "CheckTrap fires"
                                                  : "CheckTrap holds");
    EXPECT_EQ(r.trap, fire ? vm::TrapKind::DetectedFault : vm::TrapKind::None);
  }
  {  // An endless loop stops at the hang budget.
    const auto mod = kernel([](ProgramBuilder&, FunctionBuilder& f) {
      const auto i = f.var_i64("i", 0);
      f.while_([&] { return f.c_bool(true); },
               [&] { i.set(i.get() + 1); });
    });
    vm::VmOptions opts;
    opts.max_instructions = 1001;
    const auto r = expect_same_stop(mod, opts, "hang");
    EXPECT_EQ(r.trap, vm::TrapKind::Hang);
    EXPECT_EQ(r.instructions, 1001u);
  }
}

}  // namespace
}  // namespace ft
