// `sweep`: one request is one app's Fig. 5 sweep — every analysis region x
// {Internal, Input} at a fixed trial count with a fresh campaign seed —
// submitted to a storeless CampaignService on the benchmark's scheduler.
// Apps rotate over all ten. After warm-up nearly all time is untraced trial
// execution (jit/vm), fork/snapshot/probe logic (fault) and chunk
// scheduling (util).
#include <atomic>
#include <map>
#include <stdexcept>

#include "core/service.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace ft;

/// Trials per (region, target) unit: enough that trial execution dominates
/// a request, small enough that a run holds well over 100 requests.
constexpr std::size_t kTrials = 24;

struct Unit {
  std::uint32_t region_id = 0;
  fault::TargetClass target = fault::TargetClass::Internal;
  fault::CampaignResult counts;
};

struct Record {
  std::string app;
  fault::CampaignConfig cfg;
  std::vector<Unit> units;
  /// Traced requests: the direct fault-layer rerun matched the service.
  bool traced_match = true;
};

class Sweep final : public Workload {
 public:
  explicit Sweep(Context& ctx) : ctx_(ctx) {}

  void setup() override {
    core::ServiceOptions opts;
    opts.scheduler = &ctx_.sched;
    service_ = std::make_unique<core::CampaignService>(opts);
    for (const auto& name : apps::all_app_names()) {
      auto session = build_session(name, ctx_);
      golden_artifacts(*session, ctx_);
      auto s = ctx_.tracer.span("fault.region_sites");
      for (const auto& r : session->app().analysis_regions) {
        (void)session->region_sites(r.id, 0);
      }
      ctx_.layers.sample("fault.sites_ms", s.end());
      // Campaigns need only the sites and the golden outputs.
      session->invalidate_trace();
      sessions_.emplace(name, std::move(session));
    }
  }

  std::size_t run(std::size_t index) override {
    Record rec = make(index);
    const auto report = service_->run(request(rec));
    return store(index, std::move(rec), report);
  }

  std::size_t run_traced(std::size_t index, bool count) override {
    Record rec = make(index);
    auto top = ctx_.tracer.span("sweep.request");
    const auto& sched = ctx_.sched;
    const auto tasks0 = sched.tasks_submitted();
    const auto steals0 = sched.steals();

    // Client view of the service: submit, first progress, report.
    std::atomic<double> first_ms{-1.0};
    const auto t0 = Clock::now();
    auto svc = ctx_.tracer.span("core.CampaignService.run");
    auto fut = service_->submit(
        request(rec), [&first_ms, t0](const core::ServiceSnapshot&) {
          double expected = -1.0;
          first_ms.compare_exchange_strong(expected,
                                           ms_between(t0, Clock::now()));
        });
    const auto report = fut.get();
    const double latency = svc.end();
    ctx_.layers.sample("core.prep_ms", report.wall_ms - report.campaign_ms);
    ctx_.layers.sample("core.service_overhead_ms", latency - report.wall_ms);
    if (first_ms.load() >= 0) {
      ctx_.layers.sample("core.first_progress_ms", first_ms.load());
    }
    if (count) {
      ctx_.layers.add("util.sched.tasks",
                      static_cast<double>(sched.tasks_submitted() - tasks0));
      ctx_.layers.add("util.sched.steals",
                      static_cast<double>(sched.steals() - steals0));
    }

    // The same units through the fault layer directly, one call at a time.
    auto& session = *sessions_.at(rec.app);
    const auto& golden = session.golden()->outputs;
    for (const auto& e : report.entries) {
      const auto sites = session.region_sites(e.region_id, e.instance);
      auto p = ctx_.tracer.span("fault.prepare_campaign");
      const auto prepared =
          fault::prepare_campaign(*sites, e.target, session.app().base, rec.cfg);
      ctx_.layers.sample("fault.prepare_ms", p.end());
      auto sn = ctx_.tracer.span("fault.prepare_snapshots");
      const auto snaps = fault::prepare_snapshots(*session.program(), prepared);
      ctx_.layers.sample("fault.snapshots_ms", sn.end());
      auto c = ctx_.tracer.span("fault.run_prepared_campaign");
      const auto res = fault::run_prepared_campaign(
          *session.program(), prepared, golden, session.app().verifier,
          ctx_.sched);
      const double campaign_ms = c.end();
      ctx_.layers.sample("fault.campaign_ms", campaign_ms);
      ctx_.layers.add("vm.trial_instructions",
                      static_cast<double>(res.instructions_retired));
      ctx_.layers.add("vm.trial_seconds", campaign_ms * 1e-3);
      if (count) {
        ctx_.layers.add("fault.trials", static_cast<double>(res.trials));
        ctx_.layers.add("fault.instructions",
                        static_cast<double>(res.instructions_retired));
        ctx_.layers.add("fault.prefix_saved",
                        static_cast<double>(res.prefix_instructions_saved));
        ctx_.layers.add("fault.early_exits",
                        static_cast<double>(res.early_exits));
        ctx_.layers.add("fault.snapshots_taken",
                        static_cast<double>(res.snapshots_taken));
      }
      rec.traced_match = rec.traced_match && same_counts(res, e.campaign);
    }
    return store(index, std::move(rec), report);
  }

  bool check(std::size_t index) override {
    const auto it = records_.find(index);
    if (it == records_.end() || !it->second.traced_match) return false;
    const Record& rec = it->second;
    auto& session = *sessions_.at(rec.app);
    if (rec.units.size() != 2 * session.app().analysis_regions.size()) {
      return false;
    }
    // Oracle: the from-scratch trial loop on the same prepared campaign.
    fault::CampaignConfig cfg = rec.cfg;
    cfg.fork.enabled = false;
    for (const auto& u : rec.units) {
      const auto prepared = fault::prepare_campaign(
          *session.region_sites(u.region_id, 0), u.target, session.app().base,
          cfg);
      const auto res = fault::run_prepared_campaign(
          *session.program(), prepared, session.golden()->outputs,
          session.app().verifier, ctx_.sched);
      if (!same_counts(res, u.counts)) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] Record make(std::size_t index) const {
    Record rec;
    rec.app = pick_app(ctx_.seed, index).app;
    rec.cfg.trials = kTrials;
    rec.cfg.seed = mix_seed(ctx_.seed, index);
    rec.cfg.pool = &ctx_.sched;
    return rec;
  }

  [[nodiscard]] core::AnalysisRequest request(const Record& rec) const {
    core::AnalysisRequest req;
    req.session(sessions_.at(rec.app))
        .analysis_regions()
        .target(fault::TargetClass::Internal)
        .target(fault::TargetClass::Input)
        .success_rates(rec.cfg)
        .pool(&ctx_.sched);
    return req;
  }

  std::size_t store(std::size_t index, Record rec,
                    const core::AnalysisReport& report) {
    for (const auto& e : report.entries) {
      if (!e.region_found) throw std::runtime_error("sweep: region not found");
      rec.units.push_back(Unit{e.region_id, e.target, e.campaign});
    }
    records_[index] = std::move(rec);
    return report.total_trials;
  }

  Context& ctx_;
  std::map<std::string, std::shared_ptr<core::AnalysisSession>> sessions_;
  std::map<std::size_t, Record> records_;
  // Last: destroyed first, after which no request can touch the sessions.
  std::unique_ptr<core::CampaignService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(Context& ctx) {
  return std::make_unique<Sweep>(ctx);
}

}  // namespace perfbench
