// Trace-substrate A/B: columnar direct-emit traced execution (ColumnTrace
// sink fed by the decoded hot loop) against the DynInstr-observer baseline
// (TraceCollector behind the virtual ExecObserver hook), on repeated full
// traced runs of the CG golden workload.
//
// Reports instructions/sec for both substrates and the resident
// bytes/record of each, then checks the lockstep differential run against
// plain runs: for one injection, the columnar diff's faulty rows must equal
// the observer-collected faulted run and its clean columns the observer
// golden run. scripts/bench_smoke.sh gates on the columnar path staying
// >= 2x the observer baseline and >= 3x smaller per record; the binary
// exits nonzero if the diff check fails.
//
//   trace_substrate_ab [--reps=N] [--app=NAME]
#include "acl/diff.h"
#include "bench_common.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "vm/decode.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto reps = static_cast<int>(cli.get_int("reps", 5));
  const auto name = cli.get("app", "CG");
  bench::print_header("trace substrate A/B - columnar vs DynInstr observer",
                      cfg);

  const auto app = apps::build_app(name);
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  struct Measured {
    double seconds = 1e30;
    std::uint64_t instructions = 0;
    std::size_t records = 0;
    double bytes_per_record = 0.0;
  };

  const auto run_observer = [&](Measured& best) {
    trace::TraceCollector sink;
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.observer = &sink;
    const util::Stopwatch sw;
    const auto r = vm::Vm::run(app.module, opts);
    const double s = sw.seconds();
    if (s < best.seconds) {
      best.seconds = s;
      best.instructions = r.instructions;
      best.records = sink.trace().size();
      best.bytes_per_record = static_cast<double>(sizeof(vm::DynInstr));
    }
  };
  const auto run_columnar = [&](Measured& best) {
    trace::ColumnTrace sink(prog);
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.column_sink = &sink;
    const util::Stopwatch sw;
    const auto r = vm::Vm::run(app.module, opts);
    const double s = sw.seconds();
    if (s < best.seconds) {
      best.seconds = s;
      best.instructions = r.instructions;
      best.records = sink.size();
      best.bytes_per_record = sink.bytes_per_record();
    }
  };

  // Interleave rep by rep so a host load spike penalizes both substrates.
  Measured observer, columnar;
  for (int rep = 0; rep < reps; ++rep) {
    run_observer(observer);
    run_columnar(columnar);
  }

  const auto mips = [](const Measured& m) {
    return static_cast<double>(m.instructions) / m.seconds / 1e6;
  };
  std::printf("workload: %s, %zu records per traced run, %d reps (best-of)\n",
              name.c_str(), columnar.records, reps);
  std::printf("observer : %8.1f ms  %8.1f M instr/s  %6.1f bytes/record\n",
              observer.seconds * 1e3, mips(observer),
              observer.bytes_per_record);
  std::printf("columnar : %8.1f ms  %8.1f M instr/s  %6.1f bytes/record\n",
              columnar.seconds * 1e3, mips(columnar),
              columnar.bytes_per_record);
  std::printf("trace speedup: %.2fx\n", mips(columnar) / mips(observer));
  std::printf("bytes/record ratio: %.2fx smaller\n",
              observer.bytes_per_record / columnar.bytes_per_record);

  // --- the lockstep diff against two plain observer runs -------------------
  acl::DiffOptions dopts;
  dopts.base = app.base;
  dopts.fault = vm::FaultPlan::result_bit(20000, 33);
  // Reserve from the golden record count, as AnalysisSession does.
  dopts.reserve_records = columnar.records;
  const util::Stopwatch diff_sw;
  const auto diff = acl::diff_run_columnar(prog, dopts);
  std::printf("diff wall (reserved %zu records): %.1f ms\n",
              dopts.reserve_records, diff_sw.millis());

  const auto observed = [&](const vm::FaultPlan& plan) {
    trace::TraceCollector sink;
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.observer = &sink;
    opts.fault = plan;
    (void)vm::Vm::run(app.module, opts);
    return sink.take();
  };
  const auto golden = observed(vm::FaultPlan::none());
  const auto faulted = observed(dopts.fault);

  // The diff covers exactly the rows where both runs are at the same site.
  std::size_t lockstep = 0;
  while (lockstep < golden.size() && lockstep < faulted.size()) {
    const auto& g = golden.records[lockstep];
    const auto& f = faulted.records[lockstep];
    if (g.func != f.func || g.block != f.block || g.instr != f.instr) break;
    ++lockstep;
  }
  std::size_t row = 0;
  if (diff.usable_records() == lockstep) {
    for (const vm::DynInstr& r : diff.records()) {
      const auto& f = faulted.records[row];
      const auto& g = golden.records[row];
      const bool comparable = f.result_loc != vm::kNoLoc ||
                              f.op == ir::Opcode::Emit ||
                              f.op == ir::Opcode::EmitTrunc;
      if (r != f || diff.clean_bits[row] != g.result_bits ||
          diff.clean_op_bits[row] != g.op_bits ||
          diff.differs[row] != (comparable && f.result_bits != g.result_bits)) {
        break;
      }
      ++row;
    }
  }
  const bool identical = lockstep > 0 && row == lockstep;
  if (identical) {
    std::printf("diff oracle: identical (%zu lockstep rows vs observer "
                "faulted and golden runs)\n",
                lockstep);
  } else {
    std::printf("diff oracle: MISMATCH at row %zu (%zu diff rows, %zu "
                "lockstep rows)\n",
                row, diff.usable_records(), lockstep);
  }
  return identical ? 0 : 1;
}
