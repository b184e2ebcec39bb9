// Scheduler/service count identity on an imbalanced multi-request mix:
// three concurrent clients — a CG whole-app campaign (light), a
// LULESH-RANKED cross-rank campaign (heavy), and an MG compositional
// campaign (medium) — run on a one-worker util::Scheduler, on an N-worker
// util::Scheduler, and through core::CampaignService on an N-worker
// scheduler. The mix is the bursty, imbalanced shape the service produces;
// the scheduler must change only WHERE trials run, never what they count.
//
// Outcome counts must be IDENTICAL across all three legs and across
// repetitions — plans are drawn per unit from the seeds, never from the
// schedule — and the bench exits nonzero on any mismatch. Wall clock and
// the N-worker scheduler's steal/queue-depth telemetry are printed for the
// record; no speed is gated. The service leg covers the async front end
// end to end (admission, shared sessions and single-flight store semantics
// are exercised by tests/service_test.cpp; here the service must simply
// reproduce the same counts while multiplexing the mix).
//
//   sched_service_ab [--trials=N] [--seed=N] [--workers=N]
#include <cstdlib>
#include <thread>

#include "bench_common.h"
#include "core/service.h"
#include "util/scheduler.h"

namespace {

using namespace ft;

struct MixReports {
  core::AnalysisReport cg;
  core::AnalysisReport lulesh;
  core::AnalysisReport mg;
  double wall_ms = 0.0;
};

struct MixConfigs {
  fault::CampaignConfig cg;
  fault::RankCampaignConfig rank;
  fault::CampaignConfig mg;
};

core::AnalysisRequest cg_request(const MixConfigs& mix) {
  return core::AnalysisRequest().app("CG").app_campaign(mix.cg);
}
core::AnalysisRequest lulesh_request(const MixConfigs& mix) {
  return core::AnalysisRequest().app("LULESH-RANKED").rank_campaign(mix.rank);
}
core::AnalysisRequest mg_request(const MixConfigs& mix) {
  return core::AnalysisRequest().app("MG").compositional(mix.mg);
}

/// The three clients as three concurrent threads sharing one scheduler —
/// the service front end's admission pattern, minus the service.
MixReports run_mix(util::Scheduler& sched, const MixConfigs& mix) {
  MixReports out;
  util::Stopwatch sw;
  std::thread t_cg(
      [&] { out.cg = core::run_analysis(cg_request(mix).pool(&sched)); });
  std::thread t_lu([&] {
    out.lulesh = core::run_analysis(lulesh_request(mix).pool(&sched));
  });
  std::thread t_mg(
      [&] { out.mg = core::run_analysis(mg_request(mix).pool(&sched)); });
  t_cg.join();
  t_lu.join();
  t_mg.join();
  out.wall_ms = sw.millis();
  return out;
}

bool same_counts(const fault::CampaignResult& a,
                 const fault::CampaignResult& b) {
  return a.trials == b.trials && a.success == b.success &&
         a.failed == b.failed && a.crashed == b.crashed &&
         a.detected_recovered == b.detected_recovered &&
         a.detected_unrecoverable == b.detected_unrecoverable &&
         a.population_bits == b.population_bits;
}

bool same_rank_counts(const fault::RankCampaignResult& a,
                      const fault::RankCampaignResult& b) {
  return a.trials == b.trials && a.masked_locally == b.masked_locally &&
         a.absorbed_by_collective == b.absorbed_by_collective &&
         a.propagated == b.propagated &&
         a.corrupted_output == b.corrupted_output && a.trapped == b.trapped &&
         a.population_bits == b.population_bits;
}

bool same_mix(const MixReports& a, const MixReports& b, const char* what) {
  const bool ok =
      same_counts(*a.cg.find_app("CG")->whole_app,
                  *b.cg.find_app("CG")->whole_app) &&
      same_rank_counts(*a.lulesh.find_app("LULESH-RANKED")->rank_campaign,
                       *b.lulesh.find_app("LULESH-RANKED")->rank_campaign) &&
      same_counts(a.mg.find_app("MG")->compositional->counts,
                  b.mg.find_app("MG")->compositional->counts);
  if (!ok) std::printf("COUNT MISMATCH: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  bench::print_header("scheduler/service count identity - mixed load", cfg);

  const unsigned cores = std::thread::hardware_concurrency();
  const auto workers = static_cast<std::size_t>(
      cli.get_int("workers", static_cast<long>(std::max(4u, cores))));

  MixConfigs mix;
  mix.cg = cfg.campaign(48);
  mix.cg.seed = cfg.seed;
  mix.rank.nranks = 4;
  mix.rank.trials = cfg.trials != 0 ? cfg.trials : (cfg.full ? 0 : 12);
  mix.rank.seed = cfg.seed;
  mix.mg = cfg.campaign(32);
  mix.mg.seed = cfg.seed;

  std::printf("mix: CG app campaign + LULESH-RANKED rank campaign (4 ranks) "
              "+ MG compositional, 3 concurrent clients, 1 vs %zu workers\n\n",
              workers);

  // Alternate legs to keep cache/frequency effects symmetric; best-of.
  double serial_ms = 1e30;
  double sched_ms = 1e30;
  MixReports serial_mix;
  MixReports sched_mix;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      util::Scheduler one(1);
      auto r = run_mix(one, mix);
      if (rep > 0 && !same_mix(r, serial_mix, "1 worker across reps")) {
        return 1;
      }
      if (r.wall_ms < serial_ms) serial_ms = r.wall_ms;
      serial_mix = std::move(r);
    }
    {
      util::Scheduler sched(workers);
      auto r = run_mix(sched, mix);
      if (rep > 0 && !same_mix(r, sched_mix, "N workers across reps")) {
        return 1;
      }
      if (r.wall_ms < sched_ms) sched_ms = r.wall_ms;
      sched_mix = std::move(r);
      std::printf("rep %d: 1 worker %.1f ms, %zu workers %.1f ms "
                  "(%llu steals, max queue depth %llu)\n",
                  rep, serial_mix.wall_ms, workers, r.wall_ms,
                  static_cast<unsigned long long>(sched.steals()),
                  static_cast<unsigned long long>(sched.queue_depth_max()));
    }
  }
  if (!same_mix(sched_mix, serial_mix, "N workers vs 1 worker")) return 1;

  // Third leg: the same mix through the async service front end. Counts
  // must again be identical; the stats line shows the multiplexing.
  {
    util::Scheduler sched(workers);
    core::ServiceOptions opts;
    opts.scheduler = &sched;
    core::CampaignService service(opts);
    MixReports r;
    util::Stopwatch sw;
    auto f_cg = service.submit(cg_request(mix));
    auto f_lu = service.submit(lulesh_request(mix));
    auto f_mg = service.submit(mg_request(mix));
    r.cg = f_cg.get();
    r.lulesh = f_lu.get();
    r.mg = f_mg.get();
    r.wall_ms = sw.millis();
    if (!same_mix(r, serial_mix, "service vs 1 worker")) return 1;
    const auto st = service.stats();
    std::printf("\nservice leg: %.1f ms, %llu requests admitted, "
                "%llu sessions built\n",
                r.wall_ms, static_cast<unsigned long long>(st.requests_admitted),
                static_cast<unsigned long long>(st.sessions_created));
  }

  std::printf(
      "\nmix wall (best of %d): 1 worker %.1f ms, %zu workers %.1f ms\n",
      kReps, serial_ms, workers, sched_ms);
  std::printf("counts: identical across 1 worker, %zu workers and service\n",
              workers);
  return 0;
}
