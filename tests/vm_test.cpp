// VM semantics: arithmetic vs host arithmetic, traps, determinism, fault
// arming, observer records, budgets.
#include <gtest/gtest.h>

#include <cmath>

#include "hl/builder.h"
#include "trace/collector.h"
#include "util/bits.h"
#include "vm/interp.h"

namespace ft {
namespace {

using hl::FunctionBuilder;
using hl::ProgramBuilder;
using hl::Value;

ir::Module one_func(const std::function<void(FunctionBuilder&)>& body) {
  ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    body(f);
    f.ret();
  }
  return pb.finish();
}

// --- parameterized arithmetic sweep vs host ------------------------------------

struct IntCase {
  std::int64_t a, b;
};

class IntArithmetic : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntArithmetic, MatchesHost) {
  const auto [a, b] = GetParam();
  auto mod = one_func([&](FunctionBuilder& f) {
    auto x = f.var_i64("x", a);
    auto y = f.var_i64("y", b);
    f.emit(x.get() + y.get());
    f.emit(x.get() - y.get());
    f.emit(x.get() * y.get());
    f.emit(x.get() & y.get());
    f.emit(x.get() | y.get());
    f.emit(x.get() ^ y.get());
  });
  const auto r = vm::Vm::run(mod);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.outputs[0].as_i64(),
            static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                      static_cast<std::uint64_t>(b)));
  EXPECT_EQ(r.outputs[1].as_i64(),
            static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                      static_cast<std::uint64_t>(b)));
  EXPECT_EQ(r.outputs[2].as_i64(),
            static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                      static_cast<std::uint64_t>(b)));
  EXPECT_EQ(r.outputs[3].as_i64(), a & b);
  EXPECT_EQ(r.outputs[4].as_i64(), a | b);
  EXPECT_EQ(r.outputs[5].as_i64(), a ^ b);
}

INSTANTIATE_TEST_SUITE_P(
    Values, IntArithmetic,
    ::testing::Values(IntCase{0, 0}, IntCase{1, 2}, IntCase{-5, 3},
                      IntCase{1ll << 62, 1ll << 62},
                      IntCase{-1, std::numeric_limits<std::int64_t>::max()},
                      IntCase{123456789, -987654321}));

struct FpCase {
  double a, b;
};

class FpArithmetic : public ::testing::TestWithParam<FpCase> {};

TEST_P(FpArithmetic, MatchesHost) {
  const auto [a, b] = GetParam();
  auto mod = one_func([&](FunctionBuilder& f) {
    auto x = f.var_f64("x", a);
    auto y = f.var_f64("y", b);
    f.emit(x.get() + y.get());
    f.emit(x.get() - y.get());
    f.emit(x.get() * y.get());
    f.emit(x.get() / y.get());
  });
  const auto r = vm::Vm::run(mod);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(util::f64_to_bits(r.outputs[0].as_f64()),
            util::f64_to_bits(a + b));
  EXPECT_EQ(util::f64_to_bits(r.outputs[1].as_f64()),
            util::f64_to_bits(a - b));
  EXPECT_EQ(util::f64_to_bits(r.outputs[2].as_f64()),
            util::f64_to_bits(a * b));
  EXPECT_EQ(util::f64_to_bits(r.outputs[3].as_f64()),
            util::f64_to_bits(a / b));
}

INSTANTIATE_TEST_SUITE_P(
    Values, FpArithmetic,
    ::testing::Values(FpCase{1.5, 2.25}, FpCase{-3.5, 0.125},
                      FpCase{1e300, 1e-300}, FpCase{0.1, 0.2},
                      FpCase{-0.0, 5.0}));

// --- traps ------------------------------------------------------------------------

TEST(VmTraps, DivByZero) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_i64("x", 1);
    auto y = f.var_i64("y", 0);
    f.emit(x.get() / y.get());
  });
  const auto r = vm::Vm::run(mod);
  EXPECT_EQ(r.trap, vm::TrapKind::DivByZero);
}

TEST(VmTraps, IntMinDivMinusOne) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_i64("x", std::numeric_limits<std::int64_t>::min());
    auto y = f.var_i64("y", -1);
    f.emit(x.get() / y.get());
  });
  EXPECT_EQ(vm::Vm::run(mod).trap, vm::TrapKind::IntOverflowDiv);
}

TEST(VmTraps, ShiftTooWide) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_i64("x", 1);
    auto amt = f.var_i64("amt", 64);
    f.emit(x.get() << amt.get());
  });
  EXPECT_EQ(vm::Vm::run(mod).trap, vm::TrapKind::BadShift);
}

TEST(VmTraps, OutOfBoundsLoad) {
  ProgramBuilder pb("t");
  auto arr = pb.global_f64("arr", 4);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.ld(arr, 1000000));
    f.ret();
  }
  auto mod = pb.finish();
  EXPECT_EQ(vm::Vm::run(mod).trap, vm::TrapKind::OutOfBounds);
}

TEST(VmTraps, NullPageIsUnmapped) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto p = f.gep(f.c_i64(0), f.c_i64(0), 8);  // address 0
    f.emit(f.ld_raw(p, ir::Type::F64));
  });
  // gep on an i64 "pointer" is type-sloppy but executes; address 0 traps.
  EXPECT_EQ(vm::Vm::run(mod).trap, vm::TrapKind::OutOfBounds);
}

TEST(VmTraps, FpToSiDomain) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_f64("x", 0.0);
    auto y = f.var_f64("y", 0.0);
    f.emit(f.fptosi(x.get() / y.get()));  // NaN
  });
  EXPECT_EQ(vm::Vm::run(mod).trap, vm::TrapKind::FpDomain);
}

TEST(VmTraps, HangBudget) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_i64("x", 0);
    f.while_([&] { return x.get().ge(0); }, [&] { x.set(x.get()); });
  });
  vm::VmOptions opts;
  opts.max_instructions = 10000;
  const auto r = vm::Vm::run(mod, opts);
  EXPECT_EQ(r.trap, vm::TrapKind::Hang);
  EXPECT_EQ(r.instructions, 10000u);
}

TEST(VmTraps, RunawayRecursion) {
  ProgramBuilder pb("t");
  const auto f_rec = pb.declare_function("rec", ir::Type::Void, {});
  const auto f_main = pb.declare_function("main");
  {
    auto f = pb.define(f_rec);
    f.call(f_rec, {});
    f.ret();
  }
  {
    auto f = pb.define(f_main);
    f.call(f_rec, {});
    f.ret();
  }
  auto mod = pb.finish();
  EXPECT_EQ(vm::Vm::run(mod).trap, vm::TrapKind::CallDepth);
}

// --- determinism --------------------------------------------------------------------

TEST(VmDeterminism, SameSeedSameOutputs) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto sum = f.var_f64("sum", 0.0);
    f.for_("i", 0, 100, [&](Value) { sum.set(sum.get() + f.rand_()); });
    f.emit(sum.get());
  });
  const auto a = vm::Vm::run(mod);
  const auto b = vm::Vm::run(mod);
  ASSERT_TRUE(a.completed());
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST(VmDeterminism, DifferentSeedDiffers) {
  auto mod = one_func([](FunctionBuilder& f) { f.emit(f.rand_()); });
  vm::VmOptions o1, o2;
  o2.rand_seed = 271828183.0;
  const auto a = vm::Vm::run(mod, o1);
  const auto b = vm::Vm::run(mod, o2);
  EXPECT_NE(a.outputs[0].bits, b.outputs[0].bits);
}

TEST(VmDeterminism, TraceIsIdenticalAcrossRuns) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 50, [&](Value i) {
      s.set(s.get() + f.sitofp(i) * 1.5);
    });
    f.emit(s.get());
  });
  trace::TraceCollector c1, c2;
  vm::VmOptions o1, o2;
  o1.observer = &c1;
  o2.observer = &c2;
  (void)vm::Vm::run(mod, o1);
  (void)vm::Vm::run(mod, o2);
  ASSERT_EQ(c1.trace().size(), c2.trace().size());
  for (std::size_t i = 0; i < c1.trace().size(); ++i) {
    const auto& a = c1.trace().records[i];
    const auto& b = c2.trace().records[i];
    EXPECT_EQ(a.result_bits, b.result_bits);
    EXPECT_EQ(a.result_loc, b.result_loc);
    EXPECT_EQ(a.op, b.op);
  }
}

// --- fault arming ----------------------------------------------------------------------

TEST(VmFault, ResultBitFlipChangesOneValue) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_f64("x", 1.0);
    f.emit(x.get() + 1.0);
  });
  // Find the dynamic index of the FAdd.
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  std::uint64_t fadd_index = 0;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::FAdd) fadd_index = r.index;
  }
  vm::VmOptions fopts;
  fopts.fault = vm::FaultPlan::result_bit(fadd_index, 52);  // mantissa top
  const auto r = vm::Vm::run(mod, fopts);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE(r.fault_fired);
  EXPECT_NE(r.outputs[0].as_f64(), 2.0);
  EXPECT_TRUE(util::differs_by_one_bit(util::f64_to_bits(r.outputs[0].as_f64()),
                                       util::f64_to_bits(2.0)));
}

TEST(VmFault, RegionInputFlipFires) {
  ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 2.0});
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.region(rid, [&] { f.emit(f.ld(arr, 0)); });
    f.ret();
  }
  auto mod = pb.finish();
  const auto addr = mod.global(*mod.find_global("arr")).addr;

  vm::VmOptions opts;
  opts.fault = vm::FaultPlan::region_input_bit(rid, 0, addr, 8, 52);
  const auto r = vm::Vm::run(mod, opts);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE(r.fault_fired);
  EXPECT_EQ(util::f64_to_bits(r.outputs[0].as_f64()),
            util::flip_bit(util::f64_to_bits(1.0), 52));
}

TEST(VmFault, WrongInstanceDoesNotFire) {
  ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0});
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.region(rid, [&] { f.emit(f.ld(arr, 0)); });
    f.ret();
  }
  auto mod = pb.finish();
  const auto addr = mod.global(0).addr;
  vm::VmOptions opts;
  opts.fault = vm::FaultPlan::region_input_bit(rid, 5 /*never reached*/, addr,
                                               8, 3);
  const auto r = vm::Vm::run(mod, opts);
  ASSERT_TRUE(r.completed());
  EXPECT_FALSE(r.fault_fired);
  EXPECT_DOUBLE_EQ(r.outputs[0].as_f64(), 1.0);
}

// --- observer records -------------------------------------------------------------------

TEST(VmObserver, RecordsCarryOperandsAndResults) {
  auto mod = one_func([](FunctionBuilder& f) {
    auto x = f.var_i64("x", 6);
    auto y = f.var_i64("y", 7);
    f.emit(x.get() * y.get());
  });
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  bool saw_mul = false;
  for (const auto& r : c.trace().records) {
    if (r.op != ir::Opcode::Mul) continue;
    saw_mul = true;
    EXPECT_EQ(static_cast<std::int64_t>(r.op_bits[0]), 6);
    EXPECT_EQ(static_cast<std::int64_t>(r.op_bits[1]), 7);
    EXPECT_EQ(static_cast<std::int64_t>(r.result_bits), 42);
    EXPECT_NE(r.result_loc, vm::kNoLoc);
    EXPECT_TRUE(vm::is_reg_loc(r.result_loc));
  }
  EXPECT_TRUE(saw_mul);
}

TEST(VmObserver, LoadStoreRecordMemoryLocations) {
  ProgramBuilder pb("t");
  auto arr = pb.global_f64("arr", 2);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.st(arr, 0, f.c_f64(3.5));
    f.emit(f.ld(arr, 0));
    f.ret();
  }
  auto mod = pb.finish();
  const auto addr = mod.global(0).addr;
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  bool saw_store = false, saw_load = false;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::Store && r.mem_addr == addr) {
      saw_store = true;
      EXPECT_EQ(r.result_loc, vm::mem_loc(addr));
      EXPECT_EQ(r.result_bits, util::f64_to_bits(3.5));
    }
    if (r.op == ir::Opcode::Load && r.mem_addr == addr) {
      saw_load = true;
      EXPECT_EQ(r.op_loc[0], vm::mem_loc(addr));
      EXPECT_EQ(r.result_bits, util::f64_to_bits(3.5));
    }
  }
  EXPECT_TRUE(saw_store);
  EXPECT_TRUE(saw_load);
}

TEST(VmObserver, EmitTruncRoundsValue) {
  auto mod = one_func([](FunctionBuilder& f) {
    f.emit_trunc(f.c_f64(1.23456789012345), 6);
  });
  const auto r = vm::Vm::run(mod);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.outputs[0].as_f64(), 1.234568);
}

TEST(VmObserver, RegionInstanceCounting) {
  ProgramBuilder pb("t");
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.for_("i", 0, 5, [&](Value) { f.region(rid, [&] {}); });
    f.ret();
  }
  auto mod = pb.finish();
  vm::Vm vm(mod);
  ASSERT_TRUE(vm.run().completed());
  EXPECT_EQ(vm.region_instances(rid), 5u);
}

TEST(VmMemoryAccess, HostReadWrite) {
  ProgramBuilder pb("t");
  (void)pb.global_init_f64("arr", {1.0, 2.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.ret();
  }
  auto mod = pb.finish();
  vm::Vm vm(mod);
  const auto addr = mod.global(0).addr;
  EXPECT_EQ(vm.read_word(addr, 8), util::f64_to_bits(1.0));
  vm.write_word(addr, 8, util::f64_to_bits(7.0));
  EXPECT_EQ(vm.read_word(addr, 8), util::f64_to_bits(7.0));
}

}  // namespace
}  // namespace ft
