// Trace layer: collection, binary file round-trips, region segmentation
// (nesting, crash truncation), location events, opcode statistics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "hl/builder.h"
#include "trace/collector.h"
#include "trace/events.h"
#include "trace/file.h"
#include "trace/segment.h"
#include "trace/stats.h"
#include "vm/interp.h"

namespace ft {
namespace {

ir::Module looped_regions(std::uint32_t* outer_id, std::uint32_t* inner_id) {
  hl::ProgramBuilder pb("t");
  const auto outer = pb.declare_region("outer", 0, 0);
  const auto inner = pb.declare_region("inner", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.for_("i", 0, 3, [&](hl::Value) {
      f.region(outer, [&] {
        f.for_("j", 0, 2, [&](hl::Value) {
          f.region(inner, [&] { f.emit(f.c_i64(1)); });
        });
      });
    });
    f.ret();
  }
  *outer_id = outer;
  *inner_id = inner;
  return pb.finish();
}

trace::Trace run_traced(const ir::Module& m) {
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  const auto r = vm::Vm::run(m, opts);
  EXPECT_TRUE(r.completed());
  return c.take();
}

TEST(Segmentation, CountsNestedInstances) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  const auto tr = run_traced(mod);
  const auto insts = trace::segment_regions(tr.span());

  const auto outer_insts = trace::instances_of(insts, outer);
  const auto inner_insts = trace::instances_of(insts, inner);
  ASSERT_EQ(outer_insts.size(), 3u);
  ASSERT_EQ(inner_insts.size(), 6u);
  for (const auto& i : outer_insts) EXPECT_TRUE(i.complete);
  for (const auto& i : inner_insts) EXPECT_TRUE(i.complete);

  // Instance numbering is dense and ordered.
  for (std::size_t k = 0; k < outer_insts.size(); ++k) {
    EXPECT_EQ(outer_insts[k].instance, k);
    EXPECT_LT(outer_insts[k].enter_index, outer_insts[k].exit_index);
  }
  // Inner instances nest strictly inside some outer instance.
  for (const auto& in : inner_insts) {
    bool nested = false;
    for (const auto& out : outer_insts) {
      if (in.enter_index > out.enter_index &&
          in.exit_index < out.exit_index) {
        nested = true;
      }
    }
    EXPECT_TRUE(nested);
  }
}

TEST(Segmentation, FindInstance) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  const auto tr = run_traced(mod);
  const auto insts = trace::segment_regions(tr.span());
  const auto second = trace::find_instance(insts, outer, 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->instance, 1u);
  EXPECT_FALSE(trace::find_instance(insts, outer, 99).has_value());
}

TEST(Segmentation, CrashTruncatedRegionIsIncomplete) {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_f64("arr", 2);
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.region(rid, [&] {
      f.emit(f.ld(arr, 1000000));  // traps inside the region
    });
    f.ret();
  }
  auto mod = pb.finish();
  trace::TraceCollector c;
  trace::RegionSegmenter seg;
  vm::ObserverChain chain;
  chain.then(&c).then(&seg);
  vm::VmOptions opts;
  opts.observer = &chain;
  const auto r = vm::Vm::run(mod, opts);
  EXPECT_EQ(r.trap, vm::TrapKind::OutOfBounds);
  seg.finish();
  const auto insts = seg.instances();
  ASSERT_EQ(insts.size(), 1u);
  EXPECT_FALSE(insts[0].complete);
}

TEST(TraceSlice, SelectsByDynamicIndex) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  const auto tr = run_traced(mod);
  const auto insts = trace::segment_regions(tr.span());
  const auto first = trace::find_instance(insts, outer, 0).value();
  const auto slice = tr.slice(first.body_begin(), first.body_end());
  EXPECT_EQ(slice.size(), first.body_length());
  for (const auto& r : slice) {
    EXPECT_GE(r.index, first.body_begin());
    EXPECT_LT(r.index, first.body_end());
  }
  EXPECT_TRUE(tr.slice(5, 5).empty());
}

TEST(TraceFile, RoundTrip) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  const auto tr = run_traced(mod);

  const auto path = std::filesystem::temp_directory_path() / "ft_trace_test.fttrace";
  ASSERT_TRUE(trace::write_trace_file(path.string(), tr));
  trace::Trace loaded;
  ASSERT_TRUE(trace::read_trace_file(path.string(), loaded));
  ASSERT_EQ(loaded.size(), tr.size());
  for (std::size_t i = 0; i < tr.size(); ++i) {
    EXPECT_EQ(loaded.records[i].index, tr.records[i].index);
    EXPECT_EQ(loaded.records[i].op, tr.records[i].op);
    EXPECT_EQ(loaded.records[i].result_bits, tr.records[i].result_bits);
    EXPECT_EQ(loaded.records[i].result_loc, tr.records[i].result_loc);
  }
  std::filesystem::remove(path);
}

TEST(TraceFile, RejectsGarbage) {
  const auto path = std::filesystem::temp_directory_path() / "ft_garbage.fttrace";
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    std::fputs("not a trace", f);
    std::fclose(f);
  }
  trace::Trace t;
  EXPECT_FALSE(trace::read_trace_file(path.string(), t));
  EXPECT_FALSE(trace::read_trace_file("/nonexistent/nope", t));
  std::filesystem::remove(path);
}

TEST(TraceCollector, CapTruncates) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  trace::TraceCollector c(10);
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  EXPECT_EQ(c.trace().size(), 10u);
  EXPECT_TRUE(c.truncated());
}

TEST(LocationEvents, QueriesFollowReadsAndWrites) {
  // Hand-built stream: loc written at 0, read at 2, written at 4.
  std::vector<vm::DynInstr> records(5);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].index = i;
    records[i].op = ir::Opcode::Store;
  }
  constexpr vm::Location loc = 128;
  records[0].result_loc = loc;
  records[2].op_loc[0] = loc;
  records[2].nops = 1;
  records[2].result_loc = 300;
  records[4].result_loc = loc;

  const auto ev = trace::LocationEvents::build(records);
  EXPECT_EQ(ev.next_read_after(loc, 0), 2u);
  EXPECT_EQ(ev.next_write_after(loc, 0), 4u);
  EXPECT_EQ(ev.next_read_after(loc, 2), trace::LocationEvents::kNoIndex);
  EXPECT_TRUE(ev.touched_after(loc, 3));
  EXPECT_FALSE(ev.touched_after(loc, 4));
  EXPECT_EQ(ev.read_before_overwrite_after(loc, 0), 2u);
  EXPECT_EQ(ev.read_before_overwrite_after(loc, 2),
            trace::LocationEvents::kNoIndex);  // next event is a write
  EXPECT_EQ(ev.next_read_after(999, 0), trace::LocationEvents::kNoIndex);
}

TEST(Stats, OpcodeMixCountsEverything) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  const auto tr = run_traced(mod);
  const auto mix = trace::opcode_mix(tr.span());
  EXPECT_EQ(mix.total, tr.size());
  EXPECT_GT(mix.of(ir::Opcode::RegionEnter), 0u);
  EXPECT_EQ(mix.of(ir::Opcode::RegionEnter), mix.of(ir::Opcode::RegionExit));
  EXPECT_GT(mix.of(ir::Opcode::CondBr), 0u);
}

TEST(Stats, InstructionsInRegion) {
  std::uint32_t outer, inner;
  auto mod = looped_regions(&outer, &inner);
  const auto tr = run_traced(mod);
  const auto insts = trace::segment_regions(tr.span());
  const auto first_inner = trace::find_instance(insts, inner, 0).value();
  EXPECT_EQ(trace::instructions_in(first_inner), first_inner.body_length());
  EXPECT_GT(first_inner.body_length(), 0u);
}

}  // namespace
}  // namespace ft
