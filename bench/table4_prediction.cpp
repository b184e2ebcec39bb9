// Table IV: Use Case 2 — predicting application resilience from pattern
// rates with Bayesian multivariate linear regression (Eq. 3).
//
// Pipeline, exactly as §VII-B:
//  1. for each of the ten benchmarks, measure the six pattern rates from a
//     fault-free trace and the success rate from a fault-injection
//     campaign;
//  2. experiment 1: fit on all ten, report R^2 (paper: 96.4%);
//  3. experiment 2: leave-one-out — train on nine, predict the tenth,
//     report the prediction error rate (paper: ~14.3% average excluding
//     the DC outlier at 64.6%);
//  4. feature analysis: standardized regression coefficients.
#include "bench_common.h"
#include "model/regression.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  bench::print_header("Table IV - pattern rates and resilience prediction",
                      cfg);

  const auto& names = apps::all_app_names();
  model::Matrix x(names.size(), patterns::kNumPatterns);
  std::vector<double> sr(names.size());

  // One request measures all ten benchmarks: pattern rates from the golden
  // traces (dropped after prep to bound memory) plus whole-app campaigns,
  // batched across apps on the shared pool. The paper uses 99%/1% for the
  // use cases.
  core::AnalysisRequest request;
  for (const auto& name : names) request.app(name);
  const auto report = core::run_analysis(
      request.pattern_rates()
          .app_campaign(cfg.campaign(250, 0.99, 0.01)));

  util::Table features({"benchmark", "cond rate", "shift rate", "trunc rate",
                        "dead loc rate", "rep add rate", "overwrite rate",
                        "measured SR"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& app_report = report.apps[i];
    sr[i] = app_report.whole_app->success_rate();

    using PK = patterns::PatternKind;
    const PK order[] = {PK::ConditionalStatement, PK::Shifting,
                        PK::Truncation, PK::DeadCorruptedLocations,
                        PK::RepeatedAdditions, PK::DataOverwriting};
    std::vector<std::string> row = {names[i]};
    for (std::size_t j = 0; j < patterns::kNumPatterns; ++j) {
      x.at(i, j) = app_report.rates->of(order[j]);
      row.push_back(util::Table::num(x.at(i, j), 6));
    }
    row.push_back(util::Table::num(sr[i], 3));
    features.add_row(std::move(row));
  }
  features.print(std::cout);
  bench::print_report_meta(report);

  // Experiment 1: fit on all ten benchmarks.
  model::BayesianLinearRegression reg;
  model::RegressionOptions opts;
  opts.prior_precision = 1e-6;
  reg.fit(x, sr, opts);
  std::printf("\nExperiment 1 - R-square on all ten benchmarks: %s "
              "(paper: 96.4%%)\n",
              util::Table::pct(reg.r_squared(x, sr), 1).c_str());

  // Experiment 2: leave-one-out prediction.
  const auto loo = model::leave_one_out(x, sr, opts);
  util::Table pred({"benchmark", "measured SR", "predicted SR",
                    "prediction err. rate"});
  double err_excl_worst = 0.0;
  double worst = 0.0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (loo.error_rate[i] > worst) {
      worst = loo.error_rate[i];
      worst_i = i;
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    pred.add_row({names[i], util::Table::num(sr[i], 3),
                  util::Table::num(loo.predicted[i], 3),
                  util::Table::pct(loo.error_rate[i], 1)});
    if (i != worst_i) err_excl_worst += loo.error_rate[i];
  }
  std::printf("\nExperiment 2 - leave-one-out prediction:\n");
  pred.print(std::cout);
  std::printf("average prediction error: %s; excluding the worst (%s): %s\n"
              "(paper: 14.3%% average excluding the DC outlier at 64.6%%)\n",
              util::Table::pct(loo.mean_error_rate, 1).c_str(),
              names[worst_i].c_str(),
              util::Table::pct(err_excl_worst / (names.size() - 1), 1)
                  .c_str());

  // Feature analysis: standardized regression coefficients.
  const auto std_coef = reg.standardized_coefficients(x, sr);
  util::Table coef({"pattern", "standardized coefficient"});
  const char* labels[] = {"Conditional Statement", "Shifting", "Truncation",
                          "Dead Location", "Repeated Addition",
                          "Overwriting"};
  for (std::size_t j = 0; j < patterns::kNumPatterns; ++j) {
    coef.add_row({labels[j], util::Table::num(std_coef[j], 3)});
  }
  std::printf("\nFeature analysis (paper: Truncation 1.73, CS 1.69, "
              "Shifting 1.48 dominate):\n");
  coef.print(std::cout);
  return 0;
}
