// Table III: Use Case 1 — resilience-aware application design. CG is
// hardened with the paper's patterns (Fig. 12: DCL + data overwriting via
// sprnvc temporaries and copy-back; Fig. 13: truncation window in the p.q
// dot product) and the whole-application success rate plus runtime are
// compared against the baseline.
//
// Paper shape: DCL+overwrite gives a large gain (0.59 -> 0.78), truncation
// a small one (0.59 -> 0.614), combined ~0.782, all at <0.1% runtime cost.
// The paper sizes this campaign at 99% confidence / 1% margin.
//
// All four variants go into ONE request: their whole-app and makea-phase
// campaigns interleave on the shared pool instead of running one variant
// at a time.
#include "bench_common.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  bench::print_header("Table III - hardening CG with resilience patterns",
                      cfg);

  struct Variant {
    const char* label;
    apps::CgHardening hardening;
  };
  const Variant variants[] = {
      {"None", {false, false}},
      {"DCL and overwrt.", {true, false}},
      {"Truncation", {false, true}},
      {"All together", {true, true}},
  };

  // One session per variant, renamed so report rows key by variant label.
  core::AnalysisRequest request;
  std::vector<std::shared_ptr<core::AnalysisSession>> sessions;
  for (const auto& v : variants) {
    auto app = (v.hardening.dcl_overwrite || v.hardening.truncation)
                   ? apps::build_cg_hardened(v.hardening)
                   : apps::build_cg();
    app.name = v.label;
    sessions.push_back(std::make_shared<core::AnalysisSession>(std::move(app)));
    request.session(sessions.back());
  }

  // The paper uses 99% confidence / 1% margin for the use cases. The
  // focused makea/sprnvc-phase campaign is where the Fig. 12 hardening
  // acts (see EXPERIMENTS.md for why the whole-app effect is diluted at
  // this scale).
  const auto report = core::run_analysis(
      request.region("cg_makea")
          .target(fault::TargetClass::Internal)
          .success_rates(cfg.campaign(250, 0.99, 0.01))
          .app_campaign(cfg.campaign(250, 0.99, 0.01)));

  util::Table table({"resi. pattern applied", "app. resi. (SR)",
                     "makea-phase SR", "exe time (ms) min-max / avg",
                     "instructions"});
  for (std::size_t vi = 0; vi < sessions.size(); ++vi) {
    const auto& label = variants[vi].label;
    const auto* app_report = report.find_app(label);
    const auto* makea = report.find(label, "cg_makea",
                                    fault::TargetClass::Internal);

    // Execution time over 20 runs (paper reports min-max / average).
    const auto& spec = sessions[vi]->app();
    std::vector<double> times;
    std::uint64_t instructions = 0;
    for (int rep = 0; rep < 20; ++rep) {
      util::Stopwatch sw;
      const auto run = vm::Vm::run(spec.module, spec.base);
      times.push_back(sw.millis());
      instructions = run.instructions;
    }
    table.add_row(
        {label,
         util::Table::num(
             app_report && app_report->whole_app
                 ? app_report->whole_app->success_rate()
                 : 0.0,
             3),
         util::Table::num(makea ? makea->campaign.success_rate() : 0.0, 3),
         util::Table::num(util::min_of(times), 2) + "-" +
             util::Table::num(util::max_of(times), 2) + " / " +
             util::Table::num(util::mean(times), 2),
         std::to_string(instructions)});
  }
  table.print(std::cout);
  bench::print_report_meta(report);
  std::printf(
      "\nPaper shape: DCL+overwrite improves resilience (paper: +32%% whole-\n"
      "app; here the effect concentrates in the makea-phase column because\n"
      "makea is ~3%% of this mini-CG's instructions - see EXPERIMENTS.md),\n"
      "truncation is a wash, and runtime cost is negligible.\n");
  return 0;
}
