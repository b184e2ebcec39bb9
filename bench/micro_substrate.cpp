// google-benchmark microbenchmarks of the substrate: VM dispatch rate,
// tracing cost, region segmentation, location-event indexing, ACL sweep and
// DDDG construction throughput. These back the feasibility claims behind
// Fig. 4 (tracing is cheap enough to use at small/medium scale).
#include <benchmark/benchmark.h>

#include "acl/diff.h"
#include "acl/table.h"
#include "apps/app.h"
#include "dddg/graph.h"
#include "hl/builder.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/events.h"
#include "jit/jit_program.h"
#include "trace/segment.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace {

using namespace ft;

/// A ~50k-instruction compute loop.
ir::Module make_kernel() {
  hl::ProgramBuilder pb("kernel");
  auto a = pb.global_f64("a", 256);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.for_("i", 0, 256, [&](hl::Value i) {
      f.st(a, i, f.sitofp(i) * 0.5);
    });
    auto s = f.var_f64("s", 0.0);
    f.for_("r", 0, 20, [&](hl::Value) {
      f.for_("i", 0, 256, [&](hl::Value i) {
        s.set(s.get() + f.ld(a, i) * 1.0001);
      });
    });
    f.emit(s.get());
    f.ret();
  }
  return pb.finish();
}

void BM_VmDispatch(benchmark::State& state) {
  const auto mod = make_kernel();
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const auto r = vm::Vm::run(mod);
    instructions = r.instructions;
    benchmark::DoNotOptimize(r.outputs);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmDispatch);

// The decoded engine on the same kernel: flat pre-resolved stream,
// contiguous register stack, computed-goto hot loop. Compare against
// BM_VmDispatch for the raw dispatch speedup.
void BM_VmDispatchDecoded(benchmark::State& state) {
  const auto mod = make_kernel();
  const auto prog = vm::DecodedProgram::decode(mod);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const auto r = vm::Vm::run(prog);
    instructions = r.instructions;
    benchmark::DoNotOptimize(r.outputs);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmDispatchDecoded);

// The template JIT on the same kernel: untraced native execution (the
// engine campaign trials run on when a backend is available). Compare
// against BM_VmDispatchDecoded for the native-over-interpreter speedup.
void BM_VmUntracedJit(benchmark::State& state) {
  const auto mod = make_kernel();
  const auto prog = vm::DecodedProgram::decode(mod);
  const auto jit = jit::JitProgram::supported() ? jit::JitProgram::compile(prog)
                                                : nullptr;
  if (!jit) {
    state.SkipWithError("jit backend unavailable");
    return;
  }
  vm::VmOptions opts;
  opts.jit = jit.get();
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const auto r = vm::Vm::run(prog, opts);
    instructions = r.instructions;
    benchmark::DoNotOptimize(r.outputs);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmUntracedJit);

// JIT compile cost — paid once per AnalysisSession (like decode), amortized
// over every untraced run the session performs.
void BM_JitCompile(benchmark::State& state) {
  const auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  if (!jit::JitProgram::supported()) {
    state.SkipWithError("jit backend unavailable");
    return;
  }
  std::size_t code_bytes = 0;
  for (auto _ : state) {
    auto jit = jit::JitProgram::compile(prog);
    code_bytes = jit ? jit->stats().code_bytes : 0;
    benchmark::DoNotOptimize(jit);
  }
  state.counters["code_bytes"] = static_cast<double>(code_bytes);
}
BENCHMARK(BM_JitCompile);

// Decode cost itself — paid once per AnalysisSession, amortized over
// thousands of trials.
void BM_DecodeModule(benchmark::State& state) {
  const auto app = apps::build_cg();
  for (auto _ : state) {
    auto prog = vm::DecodedProgram::decode(app.module);
    benchmark::DoNotOptimize(prog.code_size());
  }
}
BENCHMARK(BM_DecodeModule);

void BM_VmTraced(benchmark::State& state) {
  const auto mod = make_kernel();
  for (auto _ : state) {
    trace::TraceCollector c;
    vm::VmOptions opts;
    opts.observer = &c;
    const auto r = vm::Vm::run(mod, opts);
    benchmark::DoNotOptimize(c.trace().records.data());
    state.counters["records"] = static_cast<double>(r.instructions);
  }
}
BENCHMARK(BM_VmTraced);

// Direct-emit columnar tracing on the decoded engine: the traced
// counterpart of BM_VmDispatchDecoded, and the substrate every session
// analysis reads. Compare against BM_VmTraced for the traced-path speedup
// and against bytes/record for the resident-size win.
void BM_VmTracedColumnar(benchmark::State& state) {
  const auto mod = make_kernel();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  for (auto _ : state) {
    trace::ColumnTrace c(prog);
    vm::VmOptions opts;
    opts.column_sink = &c;
    const auto r = vm::Vm::run(*prog, opts);
    benchmark::DoNotOptimize(r.instructions);
    state.counters["records"] = static_cast<double>(c.size());
    state.counters["bytes/record"] = c.bytes_per_record();
  }
}
BENCHMARK(BM_VmTracedColumnar);

void BM_RegionSegmentation(benchmark::State& state) {
  auto app = apps::build_lulesh();
  trace::TraceCollector c;
  vm::VmOptions opts = app.base;
  opts.observer = &c;
  (void)vm::Vm::run(app.module, opts);
  for (auto _ : state) {
    auto instances = trace::segment_regions(c.trace().span());
    benchmark::DoNotOptimize(instances.data());
  }
}
BENCHMARK(BM_RegionSegmentation);

void BM_LocationEvents(benchmark::State& state) {
  auto app = apps::build_lulesh();
  trace::TraceCollector c;
  vm::VmOptions opts = app.base;
  opts.observer = &c;
  (void)vm::Vm::run(app.module, opts);
  for (auto _ : state) {
    auto ev = trace::LocationEvents::build(c.trace().span());
    benchmark::DoNotOptimize(ev.num_locations());
  }
}
BENCHMARK(BM_LocationEvents);

// The legacy map-of-vectors builder on the same trace — the A/B baseline
// for the CSR index above.
void BM_LocationEventsLegacyMap(benchmark::State& state) {
  auto app = apps::build_lulesh();
  trace::TraceCollector c;
  vm::VmOptions opts = app.base;
  opts.observer = &c;
  (void)vm::Vm::run(app.module, opts);
  for (auto _ : state) {
    auto ev = trace::LegacyLocationEvents::build(c.trace().span());
    benchmark::DoNotOptimize(ev.num_locations());
  }
}
BENCHMARK(BM_LocationEventsLegacyMap);

// Liveness queries over the CSR index (binary search in per-location
// spans) — the per-write cost pattern_rates and the ACL sweep pay.
void BM_LocationEventsQueries(benchmark::State& state) {
  auto app = apps::build_lulesh();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));
  trace::ColumnTrace c(prog);
  vm::VmOptions opts = app.base;
  opts.column_sink = &c;
  (void)vm::Vm::run(*prog, opts);
  const auto ev = trace::LocationEvents::build(c.view());
  std::vector<std::pair<vm::Location, std::uint64_t>> probes;
  for (const vm::DynInstr& r : c.view()) {
    if (r.result_loc != vm::kNoLoc) probes.emplace_back(r.result_loc, r.index);
    if (probes.size() >= 100000) break;
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto& [loc, at] : probes) {
      acc ^= ev.read_before_overwrite_after(loc, at);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["queries"] = static_cast<double>(probes.size());
}
BENCHMARK(BM_LocationEventsQueries);

void BM_DiffRunColumnar(benchmark::State& state) {
  const auto mod = make_kernel();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  acl::DiffOptions opts;
  opts.fault = vm::FaultPlan::result_bit(5000, 33);
  // Reserve from the record count, as AnalysisSession does, so the BM
  // times appending rather than reallocation churn.
  opts.reserve_records = acl::diff_run_columnar(prog, opts).usable_records();
  for (auto _ : state) {
    auto diff = acl::diff_run_columnar(prog, opts);
    benchmark::DoNotOptimize(diff.differs.size());
  }
}
BENCHMARK(BM_DiffRunColumnar);

void BM_AclSweep(benchmark::State& state) {
  const auto mod = make_kernel();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  acl::DiffOptions opts;
  opts.fault = vm::FaultPlan::result_bit(5000, 33);
  const auto diff = acl::diff_run_columnar(prog, opts);
  const auto events = trace::LocationEvents::build(diff.records());
  for (auto _ : state) {
    auto acl_series = acl::build_acl(diff, events);
    benchmark::DoNotOptimize(acl_series.count.data());
  }
}
BENCHMARK(BM_AclSweep);

void BM_DddgBuild(benchmark::State& state) {
  auto app = apps::build_cg();
  trace::TraceCollector c;
  vm::VmOptions opts = app.base;
  opts.observer = &c;
  (void)vm::Vm::run(app.module, opts);
  const auto instances = trace::segment_regions(c.trace().span());
  const auto* cg_c = app.find_region("cg_c");
  const auto inst = trace::find_instance(instances, cg_c->id, 0).value();
  const auto slice = c.trace().slice(inst.body_begin(), inst.body_end());
  for (auto _ : state) {
    auto g = dddg::Graph::build(slice);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.counters["nodes"] = static_cast<double>(
      dddg::Graph::build(slice).num_nodes());
}
BENCHMARK(BM_DddgBuild);

// Observer-pipeline gating: a fully gated ObserverChain must keep the VM
// near the no-observer dispatch rate (the fast path an always-true
// enabled() on a fan-out observer would defeat).
void BM_ObserverChainGated(benchmark::State& state) {
  const auto mod = make_kernel();
  for (auto _ : state) {
    trace::TraceCollector c;
    vm::RegionWindowGate gate(&c, /*region_id=*/9999);  // never opens
    vm::ObserverChain chain;
    chain.then(&gate);
    vm::VmOptions opts;
    opts.observer = &chain;
    const auto r = vm::Vm::run(mod, opts);
    benchmark::DoNotOptimize(r.instructions);
    state.counters["records"] = static_cast<double>(c.trace().size());
  }
}
BENCHMARK(BM_ObserverChainGated);

void BM_FaultyRun(benchmark::State& state) {
  auto app = apps::build_cg();
  for (auto _ : state) {
    vm::VmOptions opts = app.base;
    opts.fault = vm::FaultPlan::result_bit(100000, 21);
    const auto r = vm::Vm::run(app.module, opts);
    benchmark::DoNotOptimize(r.outputs);
  }
}
BENCHMARK(BM_FaultyRun);

// One campaign trial on the decoded engine — the shape every injection
// takes since the pre-decoded execution refactor (decode amortized away).
void BM_FaultyRunDecoded(benchmark::State& state) {
  auto app = apps::build_cg();
  const auto prog = vm::DecodedProgram::decode(app.module);
  for (auto _ : state) {
    vm::VmOptions opts = app.base;
    opts.fault = vm::FaultPlan::result_bit(100000, 21);
    const auto r = vm::Vm::run(prog, opts);
    benchmark::DoNotOptimize(r.outputs);
  }
}
BENCHMARK(BM_FaultyRunDecoded);

}  // namespace

BENCHMARK_MAIN();
