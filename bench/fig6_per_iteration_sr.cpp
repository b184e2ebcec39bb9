// Figure 6: success rate per iteration of the main loop — the whole main
// loop treated as one code region, each iteration one instance.
//
// Paper shape: iteration-to-iteration success rates are similar for MG
// (internal) and CG; IS and LULESH can vary with control flow differences.
//
// Expressed as one main_loop_iterations() request: every (app, iteration,
// target) campaign lands on the same batched work queue.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  bench::print_header("Fig. 6 - per-iteration success rates of the main loop",
                      cfg);

  const auto report =
      core::run_analysis(core::AnalysisRequest()
                             .app("CG")
                             .app("MG")
                             .app("KMEANS")
                             .app("IS")
                             .app("LULESH")
                             .main_loop_iterations()
                             .target(fault::TargetClass::Internal)
                             .target(fault::TargetClass::Input)
                             .success_rates(cfg.campaign(60)));

  util::Table table({"app", "iteration", "SR internal", "SR input"});
  for (const auto& e : report.entries) {
    if (e.target != fault::TargetClass::Internal || !e.region_found) continue;
    const auto* input = report.find(e.app, e.region_name,
                                    fault::TargetClass::Input, e.instance);
    table.add_row({e.app, std::to_string(e.instance + 1),
                   util::Table::num(e.campaign.success_rate(), 3),
                   util::Table::num(
                       input ? input->campaign.success_rate() : 0.0, 3)});
  }
  table.print(std::cout);
  bench::print_report_meta(report);
  return 0;
}
