// Campaign-scheduler A/B: snapshot-forked trial execution (prefix reuse +
// convergence early exit, fault/campaign.h) against the from-scratch trial
// loop it replaced, on the CG whole-program campaign. Both sides run the
// SAME prepared plans on the SAME decoded engine, so the outcome counts
// must agree exactly — the binary exits nonzero on a mismatch.
//
// The A/B runs on ONE pool worker by default: the forked scheduler's win is
// per-worker trial efficiency (prefix skipped, tails cut), and a fixed
// single worker keeps the measurement stable across hosts — on N workers
// both sides scale with the pool, while the forked side's one serial golden
// pass per campaign amortizes with campaign size (pass --workers to see
// any configuration).
//
// Reports trials/sec for both schedulers and the prefix-reuse counters
// (snapshots taken, instructions saved, early exits, resume depth);
// scripts/bench_smoke.sh section 4 gates on the forked scheduler staying
// >= 2x in trial throughput.
//
//   campaign_fork_ab [--trials=N] [--seed=N] [--reps=N] [--app=NAME]
//                    [--workers=N]
#include "bench_common.h"
#include "vm/decode.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto reps = static_cast<int>(cli.get_int("reps", 3));
  const auto name = cli.get("app", "CG");
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 1));
  bench::print_header("campaign A/B - snapshot-forked vs from-scratch trials",
                      cfg);

  core::AnalysisSession session(apps::build_app(name));
  const auto& spec = session.app();
  const auto sites = session.whole_program_sites();
  const auto golden = session.golden();

  auto scratch_cfg = cfg.campaign(80);
  scratch_cfg.fork.enabled = false;
  auto forked_cfg = scratch_cfg;
  forked_cfg.fork.enabled = true;
  // Strip the session's auto-wired JIT: this bench isolates the snapshot-
  // forked scheduler against from-scratch trials on the SAME (interpreter)
  // engine, so native execution must not shorten either side.
  auto base = spec.base;
  base.jit = nullptr;
  const auto scratch_prep = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, base, scratch_cfg);
  const auto forked_prep = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, base, forked_cfg);

  util::Scheduler pool(workers);
  std::printf("campaign: %s, %zu trials over %llu population bits, "
              "%llu golden instructions, %zu workers\n",
              name.c_str(), forked_prep.plans.size(),
              static_cast<unsigned long long>(forked_prep.population_bits),
              static_cast<unsigned long long>(
                  forked_prep.fault_free_instructions),
              pool.size());

  struct Measured {
    double seconds = 1e30;
    fault::CampaignResult result;
  };
  const auto measure_once = [&](const fault::PreparedCampaign& prep,
                                Measured& best) {
    const util::Stopwatch sw;
    auto result = fault::run_prepared_campaign(
        *session.program(), prep, golden->outputs, spec.verifier, pool);
    const double s = sw.seconds();
    if (s < best.seconds) best = {s, std::move(result)};
  };

  // Interleave the schedulers rep by rep so a transient load spike on the
  // host penalizes both sides instead of biasing one best-of.
  Measured scratch, forked;
  for (int r = 0; r < reps; ++r) {
    measure_once(scratch_prep, scratch);
    measure_once(forked_prep, forked);
  }

  const auto tps = [](const Measured& m) {
    return static_cast<double>(m.result.trials) / m.seconds;
  };
  std::printf("scratch: %8.1f ms  %8.0f trials/s  %12llu instr executed\n",
              scratch.seconds * 1e3, tps(scratch),
              static_cast<unsigned long long>(
                  scratch.result.instructions_retired));
  std::printf("forked : %8.1f ms  %8.0f trials/s  %12llu instr executed\n",
              forked.seconds * 1e3, tps(forked),
              static_cast<unsigned long long>(
                  forked.result.instructions_retired));
  std::printf(
      "prefix reuse: %llu snapshots, resume depth %llu, "
      "%llu prefix instr saved, %llu convergence instr saved, "
      "%llu early exits\n",
      static_cast<unsigned long long>(forked.result.snapshots_taken),
      static_cast<unsigned long long>(forked.result.resume_depth),
      static_cast<unsigned long long>(
          forked.result.prefix_instructions_saved),
      static_cast<unsigned long long>(
          forked.result.convergence_instructions_saved),
      static_cast<unsigned long long>(forked.result.early_exits));
  std::printf("fork speedup: %.2fx\n", tps(forked) / tps(scratch));

  const bool counts_match = scratch.result.success == forked.result.success &&
                            scratch.result.failed == forked.result.failed &&
                            scratch.result.crashed == forked.result.crashed;
  std::printf("outcome counts: %s (success %zu, failed %zu, crashed %zu)\n",
              counts_match ? "identical" : "MISMATCH", forked.result.success,
              forked.result.failed, forked.result.crashed);
  return counts_match ? 0 : 1;
}
