// Figure 5: fault-injection success rate per code-region instance at
// iteration 0, for faults on internal vs input locations, over CG, MG,
// KMEANS, IS and LULESH.
//
// Paper shape to check: cg_b/cg_c stand out within CG; MG regions are
// uniformly high; is_b is boosted by the shift pattern; KMEANS input faults
// on k_a/k_b are crash-prone while k_c/k_d tolerate; LULESH is the lowest,
// crash-dominated.
//
// One declarative request covers the whole figure: every region campaign of
// every app is scheduled as a single batched work queue, so regions and
// apps execute concurrently on the shared scheduler.
// Extra flags: --apps=CG,MG,...   restrict the app set (smoke runs use CG).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  bench::print_header("Fig. 5 - per-code-region success rates (iteration 0)",
                      cfg);

  std::vector<std::string> names = {"CG", "MG", "KMEANS", "IS", "LULESH"};
  if (const auto filter = cli.get("apps", ""); !filter.empty()) {
    names.clear();
    std::size_t begin = 0;
    while (begin <= filter.size()) {
      const auto comma = filter.find(',', begin);
      const auto end = comma == std::string::npos ? filter.size() : comma;
      if (end > begin) names.push_back(filter.substr(begin, end - begin));
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }

  core::AnalysisRequest request;
  for (const auto& name : names) request.app(name);
  const auto report =
      core::run_analysis(request.analysis_regions()
                             .target(fault::TargetClass::Internal)
                             .target(fault::TargetClass::Input)
                             .success_rates(cfg.campaign(100)));

  util::Table table({"app", "region", "SR internal", "SR input",
                     "crash internal", "crash input", "pop (bits)"});
  for (const auto& e : report.entries) {
    if (e.target != fault::TargetClass::Internal || !e.region_found) continue;
    const auto* input = report.find(e.app, e.region_name,
                                    fault::TargetClass::Input, e.instance);
    const auto& internal = e.campaign;
    const auto crash_rate = [](const fault::CampaignResult& r) {
      return r.trials ? static_cast<double>(r.crashed) /
                            static_cast<double>(r.trials)
                      : 0.0;
    };
    table.add_row(
        {e.app, e.region_name, util::Table::num(internal.success_rate(), 3),
         util::Table::num(input ? input->campaign.success_rate() : 0.0, 3),
         util::Table::num(crash_rate(internal), 3),
         util::Table::num(input ? crash_rate(input->campaign) : 0.0, 3),
         std::to_string(internal.population_bits)});
  }
  table.print(std::cout);
  bench::print_report_meta(report);
  return 0;
}
