// Engine A/B: the decoded execution engine (vm/decode.h, the engine every
// campaign trial runs on since the pre-decoded-execution refactor) against
// the legacy tree-walking interpreter it replaced, on the CG whole-program
// campaign. Reports instructions/sec for both engines and the speedup;
// scripts/bench_smoke.sh gates on the decoded engine staying >= 2x.
//
// Both engines execute the SAME prepared plans against the SAME golden
// outputs, so the outcome counts must agree exactly — the bench checks
// that too (a free end-to-end equivalence canary at campaign scale).
//
//   vm_engine_ab [--trials=N] [--seed=N] [--reps=N]
#include "bench_common.h"
#include "vm/decode.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto reps = static_cast<int>(cli.get_int("reps", 3));
  bench::print_header("engine A/B - decoded vs legacy interpreter (CG)", cfg);

  core::AnalysisSession session(apps::build_cg());
  const auto& spec = session.app();
  const auto sites = session.whole_program_sites();
  const auto golden = session.golden();
  // From-scratch trials on BOTH sides: this bench isolates the interpreter
  // engines, so the snapshot-forked scheduler (its own A/B lives in
  // campaign_fork_ab) must not shorten the decoded side's trials.
  auto campaign_cfg = cfg.campaign(40);
  campaign_cfg.fork.enabled = false;
  // The session auto-wires the native JIT into its base options; this bench
  // isolates the two INTERPRETERS, so strip it (the JIT's own A/B lives in
  // jit_engine_ab).
  auto base = spec.base;
  base.jit = nullptr;
  const auto prepared = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, base, campaign_cfg);
  auto& pool = util::global_scheduler();
  std::printf("campaign: %zu trials over %llu population bits, %zu workers\n",
              prepared.plans.size(),
              static_cast<unsigned long long>(prepared.population_bits),
              pool.size());

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
  // penalizes both sides instead of biasing one best-of.
  Measured legacy, decoded;
  for (int r = 0; r < reps; ++r) {
    measure_once(
        [&] {
          return fault::run_prepared_campaign(spec.module, prepared,
                                              golden->outputs, spec.verifier,
                                              pool);
        },
        legacy);
    measure_once(
        [&] {
          return fault::run_prepared_campaign(*session.program(), prepared,
                                              golden->outputs, spec.verifier,
                                              pool);
        },
        decoded);
  }

  const auto mips = [](const Measured& m) {
    return static_cast<double>(m.result.instructions_retired) / m.seconds / 1e6;
  };
  std::printf("legacy : %8.1f ms  %12llu instr  %8.1f M instr/s\n",
              legacy.seconds * 1e3,
              static_cast<unsigned long long>(
                  legacy.result.instructions_retired),
              mips(legacy));
  std::printf("decoded: %8.1f ms  %12llu instr  %8.1f M instr/s\n",
              decoded.seconds * 1e3,
              static_cast<unsigned long long>(
                  decoded.result.instructions_retired),
              mips(decoded));
  std::printf("engine speedup: %.2fx\n", mips(decoded) / mips(legacy));

  const bool counts_match =
      legacy.result.success == decoded.result.success &&
      legacy.result.failed == decoded.result.failed &&
      legacy.result.crashed == decoded.result.crashed &&
      legacy.result.instructions_retired ==
          decoded.result.instructions_retired;
  std::printf("outcome counts: %s (success %zu, failed %zu, crashed %zu)\n",
              counts_match ? "identical" : "MISMATCH",
              decoded.result.success, decoded.result.failed,
              decoded.result.crashed);
  return counts_match ? 0 : 1;
}
