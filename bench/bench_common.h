// Shared helpers for the bench harness (one binary per paper table/figure).
//
// Every bench accepts:
//   --full           paper-scale campaigns (Leveugle-derived trial counts at
//                    95%/3%, or 99%/1% where the paper says so); default is
//                    a reduced trial count so `for b in build/bench/*` runs
//                    in minutes on two cores;
//   --trials=N       override the per-target trial count explicitly;
//   --seed=N         campaign RNG seed.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "util/cli.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace ft::bench {

struct BenchConfig {
  bool full = false;
  std::size_t trials = 0;  // 0 = pick: full ? Leveugle : quick_default
  std::uint64_t seed = 0xF11Dull;

  static BenchConfig parse(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    BenchConfig c;
    c.full = cli.get_bool("full", false);
    c.trials = static_cast<std::size_t>(cli.get_int("trials", 0));
    c.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0xF11D));
    return c;
  }

  /// Campaign config for one target. With --full, trials=0 lets the
  /// campaign derive the Leveugle sample size from the site population.
  [[nodiscard]] fault::CampaignConfig campaign(
      std::size_t quick_default, double confidence = 0.95,
      double margin = 0.03) const {
    fault::CampaignConfig cfg;
    cfg.trials = trials != 0 ? trials : (full ? 0 : quick_default);
    cfg.confidence = confidence;
    cfg.margin = margin;
    cfg.seed = seed;
    return cfg;
  }
};

inline void print_header(const char* what, const BenchConfig& cfg) {
  std::printf("== FlipTracker reproduction: %s ==\n", what);
  std::printf("mode: %s (pass --full for paper-scale campaigns)\n\n",
              cfg.full ? "FULL" : "quick");
}

/// Uniform serialization of an AnalysisReport's scheduling metadata — the
/// per-figure tables come from the entries, this is the throughput footer.
inline void print_report_meta(const core::AnalysisReport& report) {
  std::printf(
      "\nschedule: %zu campaign unit%s, %zu trials, %zu pool batch%s on "
      "%zu workers\n",
      report.campaign_units, report.campaign_units == 1 ? "" : "s",
      report.total_trials, report.pool_batches,
      report.pool_batches == 1 ? "" : "es", report.pool_workers);
  std::printf("campaign wall: %.1f ms (%.0f trials/s); total wall: %.1f ms\n",
              report.campaign_ms, report.trials_per_second(), report.wall_ms);
  std::printf("campaign instructions: %llu (%.1f M instr/s, decoded engine)\n",
              static_cast<unsigned long long>(report.total_instructions),
              report.instructions_per_second() / 1e6);
  if (report.snapshots_taken > 0) {
    std::printf(
        "prefix reuse: %llu snapshots, %llu instr saved, %llu early exits "
        "(%llu bit-equal, %llu dead-delta), max resume depth %llu\n",
        static_cast<unsigned long long>(report.snapshots_taken),
        static_cast<unsigned long long>(report.instructions_saved),
        static_cast<unsigned long long>(report.early_exits),
        static_cast<unsigned long long>(report.early_exits -
                                        report.dead_delta_exits),
        static_cast<unsigned long long>(report.dead_delta_exits),
        static_cast<unsigned long long>(report.max_resume_depth));
  }
}

}  // namespace ft::bench
