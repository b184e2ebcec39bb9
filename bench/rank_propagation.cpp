// Cross-rank error propagation: the multi-rank question the paper's
// single-process campaigns cannot ask. For each rank-decomposed workload
// (CG/MG/LULESH-RANKED), runs one cross-rank campaign at --nranks (default
// 4) — one world per trial, one VM per rank, one injected rank — and
// reports the cross-rank outcome taxonomy, the per-injected-rank success
// rates, and the propagation-depth histogram (how many peer ranks each
// surviving error contaminated). A second campaign over the SAME program at
// world size 1 gives the serial baseline (the decomposition degenerates to
// the full problem), reproducing the serial-vs-parallel resilience
// comparison of Wu et al. end to end.
//
// Determinism gate (scripts/bench_smoke.sh section 5): the multi-rank
// campaign runs twice — snapshot forking on and off — and the binary exits
// nonzero if any outcome count differs.
//
//   rank_propagation [--trials=N] [--seed=N] [--nranks=N] [--apps=A,B]
#include <memory>

#include "bench_common.h"
#include "fault/rank_campaign.h"
#include "vm/decode.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto nranks = static_cast<std::int64_t>(cli.get_int("nranks", 4));
  const auto apps_arg = cli.get("apps", "CG-RANKED,MG-RANKED,LULESH-RANKED");
  bench::print_header("cross-rank error propagation", cfg);

  std::vector<std::string> names;
  for (std::size_t pos = 0; pos < apps_arg.size();) {
    const auto comma = apps_arg.find(',', pos);
    names.push_back(apps_arg.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  const std::size_t trials = cfg.trials != 0 ? cfg.trials : 48;
  bool counts_agree = true;

  util::Table table({"app", "world", "SR", "masked", "absorbed",
                     "propagated", "corrupted", "trapped", "mean-depth"});

  for (const auto& name : names) {
    core::AnalysisSession session(apps::build_app(name));
    const auto& spec = session.app();

    fault::RankCampaignConfig rc;
    rc.nranks = nranks;
    rc.trials = trials;
    rc.seed = cfg.seed;

    const util::Stopwatch sw;
    const auto parallel = session.rank_campaign(rc);
    const double par_ms = sw.millis();

    // ForkPolicy A/B: same prepared campaign, forking off — counts must be
    // bit-identical (the determinism gate).
    auto prepared = fault::prepare_rank_campaign(
        *session.rank_enumeration(nranks), spec.base, rc);
    prepared.fork.enabled = false;
    util::Scheduler pool;
    const auto nofork = fault::run_rank_campaign(
        *session.program(), prepared, spec.verifier, pool);
    const bool same = parallel.masked_locally == nofork.masked_locally &&
                      parallel.absorbed_by_collective ==
                          nofork.absorbed_by_collective &&
                      parallel.propagated == nofork.propagated &&
                      parallel.corrupted_output == nofork.corrupted_output &&
                      parallel.trapped == nofork.trapped &&
                      parallel.propagation_depth == nofork.propagation_depth;
    counts_agree = counts_agree && same;

    rc.nranks = 1;  // the serial baseline of the same program
    const auto serial = session.rank_campaign(rc);

    const auto row = [&](const std::string& world,
                         const fault::RankCampaignResult& r) {
      table.add_row({name, world, util::Table::num(r.success_rate()),
                     std::to_string(r.masked_locally),
                     std::to_string(r.absorbed_by_collective),
                     std::to_string(r.propagated),
                     std::to_string(r.corrupted_output),
                     std::to_string(r.trapped),
                     util::Table::num(r.mean_propagation_depth(), 2)});
    };
    row("1", serial);
    row(std::to_string(nranks), parallel);

    std::printf("%s: %zu trials x %lld ranks in %.1f ms, fork reuse %llu "
                "snapshots / %llu instructions, per-rank SR [",
                name.c_str(), parallel.trials,
                static_cast<long long>(nranks), par_ms,
                static_cast<unsigned long long>(parallel.snapshots_taken),
                static_cast<unsigned long long>(
                    parallel.prefix_instructions_saved));
    for (std::int64_t r = 0; r < nranks; ++r) {
      std::printf("%s%.2f", r ? " " : "", parallel.rank_success_rate(r));
    }
    std::printf("]\n");
    std::printf("propagation depth histogram:");
    for (std::size_t k = 0; k < parallel.propagation_depth.size(); ++k) {
      std::printf(" %zu:%zu", k, parallel.propagation_depth[k]);
    }
    std::printf("\n%s\n", same ? "fork A/B counts: identical"
                               : "fork A/B counts: MISMATCH");
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf("rank determinism: %s\n", counts_agree ? "OK" : "MISMATCH");
  return counts_agree ? 0 : 1;
}
