// Engine A/B/C: the template JIT (jit/jit_program.h, the native backend
// untraced runs execute on since the JIT PR) against the decoded
// interpreter and the legacy tree-walker, on the CG whole-program campaign
// with the snapshot-forked scheduler disabled — every trial runs from
// scratch, so the measurement isolates raw engine throughput. Reports
// instructions/sec for all three engines; scripts/bench_smoke.sh gates on
// the JIT staying >= 5x over the decoded interpreter.
//
// A fourth leg runs the JIT on the same plans with write tracking on
// (VmOptions::track_writes, as every forked campaign trial runs), so each
// store also marks the dirty-page bitmap. It prints `jit tracked/untracked:
// R`, the tracked leg's time over the untracked leg's for equal
// instruction counts; bench_smoke gates R <= 1.3.
//
// All engines execute the SAME prepared plans against the SAME golden
// outputs, so the outcome counts must agree exactly — the bench enforces
// that with a nonzero exit (an end-to-end equivalence canary at campaign
// scale, on top of the differential fuzzer's per-program pinning).
//
//   jit_engine_ab [--trials=N] [--seed=N] [--reps=N]
#include "bench_common.h"
#include "jit/jit_program.h"
#include "vm/decode.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto reps = static_cast<int>(cli.get_int("reps", 3));
  bench::print_header("engine A/B/C - jit vs decoded vs legacy (CG)", cfg);

  if (!jit::JitProgram::runtime_enabled()) {
    // Non-x86-64 target or FT_VM_NO_JIT: nothing to measure, but the bench
    // must not fail the smoke harness on platforms without a backend.
    std::printf("jit backend unavailable; skipping\n");
    std::printf("jit speedup: skipped\n");
    return 0;
  }

  core::AnalysisSession session(apps::build_cg());
  const auto& spec = session.app();
  const auto sites = session.whole_program_sites();
  const auto golden = session.golden();
  auto campaign_cfg = cfg.campaign(40);
  campaign_cfg.fork.enabled = false;  // from-scratch trials on every engine

  // One prepared campaign per engine, differing ONLY in the jit pointer
  // (the session wires it into spec.base; the interpreter sides strip it).
  auto interp_base = spec.base;
  interp_base.jit = nullptr;
  const auto interp_prep = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, interp_base, campaign_cfg);
  const auto jit_prep = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, spec.base, campaign_cfg);
  auto tracked_prep = jit_prep;  // the same plans, stores marking pages
  tracked_prep.run_opts.track_writes = true;

  auto& pool = util::global_scheduler();
  std::printf("campaign: %zu trials over %llu population bits, %zu workers\n",
              interp_prep.plans.size(),
              static_cast<unsigned long long>(interp_prep.population_bits),
              pool.size());
  const auto& st = session.jit()->stats();
  std::printf("jit: %u/%u instructions compiled, %zu code bytes\n",
              st.compiled, st.compiled + st.deopt, st.code_bytes);

  struct Measured {
    double seconds = 1e30;
    fault::CampaignResult result;
  };
  const auto measure_once = [&](auto&& run_once, Measured& best) {
    const util::Stopwatch sw;
    auto result = run_once();
    const double s = sw.seconds();
    if (s < best.seconds) best = {s, std::move(result)};
  };

  // Interleave the engines rep by rep so a transient load spike on the host
  // penalizes all sides instead of biasing one best-of.
  Measured legacy, decoded, jitted, tracked;
  for (int r = 0; r < reps; ++r) {
    measure_once(
        [&] {
          return fault::run_prepared_campaign(spec.module, interp_prep,
                                              golden->outputs, spec.verifier,
                                              pool);
        },
        legacy);
    measure_once(
        [&] {
          return fault::run_prepared_campaign(*session.program(), interp_prep,
                                              golden->outputs, spec.verifier,
                                              pool);
        },
        decoded);
    measure_once(
        [&] {
          return fault::run_prepared_campaign(*session.program(), jit_prep,
                                              golden->outputs, spec.verifier,
                                              pool);
        },
        jitted);
    measure_once(
        [&] {
          return fault::run_prepared_campaign(*session.program(), tracked_prep,
                                              golden->outputs, spec.verifier,
                                              pool);
        },
        tracked);
  }

  const auto mips = [](const Measured& m) {
    return static_cast<double>(m.result.instructions_retired) / m.seconds / 1e6;
  };
  const auto row = [&](const char* name, const Measured& m) {
    std::printf("%-7s: %8.1f ms  %12llu instr  %8.1f M instr/s\n", name,
                m.seconds * 1e3,
                static_cast<unsigned long long>(m.result.instructions_retired),
                mips(m));
  };
  row("legacy", legacy);
  row("decoded", decoded);
  row("jit", jitted);
  row("tracked", tracked);
  std::printf("jit vs legacy: %.2fx\n", mips(jitted) / mips(legacy));
  std::printf("jit speedup: %.2fx\n", mips(jitted) / mips(decoded));
  std::printf("jit tracked/untracked: %.2f\n", mips(jitted) / mips(tracked));

  const auto same = [](const fault::CampaignResult& a,
                       const fault::CampaignResult& b) {
    return a.success == b.success && a.failed == b.failed &&
           a.crashed == b.crashed &&
           a.instructions_retired == b.instructions_retired;
  };
  const bool counts_match = same(legacy.result, decoded.result) &&
                            same(decoded.result, jitted.result) &&
                            same(jitted.result, tracked.result);
  std::printf("outcome counts: %s (success %zu, failed %zu, crashed %zu)\n",
              counts_match ? "identical" : "MISMATCH", jitted.result.success,
              jitted.result.failed, jitted.result.crashed);
  return counts_match ? 0 : 1;
}
