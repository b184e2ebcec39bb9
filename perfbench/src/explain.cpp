// `explain`: one request explains one sampled Internal-site fault of one app
// through AnalysisSession::patterns_for — a lockstep columnar diff run, then
// LocationEvents indexing, then pattern detection. Apps rotate. Nearly all
// time is the traced interpreter plus trace/acl/patterns; no JIT, scheduler
// or store runs, and the request is single-threaded and memory-bound.
#include <array>
#include <map>
#include <stdexcept>

#include "harness.h"

namespace perfbench {
namespace {

using namespace ft;

/// Faults sampled per app in set-up; requests take them in turn, so a run
/// covers each app's sample about evenly.
constexpr std::size_t kPlansPerApp = 48;

struct AppState {
  std::shared_ptr<core::AnalysisSession> session;
  /// Carries the campaign's hang budget and the sampled plans.
  fault::PreparedCampaign prepared;
  /// Indices into prepared.plans whose budgeted trial does not hang.
  std::vector<std::size_t> usable;
};

struct Record {
  std::string app;
  std::size_t plan = 0;
  std::array<std::size_t, patterns::kNumPatterns> counts{};
  std::uint32_t acl_max = 0;
  /// Traced requests: the decomposed report, checked against patterns_for.
  bool traced = false;
};

[[nodiscard]] bool same_report(const patterns::PatternReport& a,
                               const Record& r) {
  return a.counts == r.counts && a.acl.max_count == r.acl_max;
}

class Explain final : public Workload {
 public:
  explicit Explain(Context& ctx) : ctx_(ctx) {}

  void setup() override {
    for (const auto& name : apps::all_app_names()) {
      AppState st;
      st.session = build_session(name, ctx_);
      golden_artifacts(*st.session, ctx_);
      auto s = ctx_.tracer.span("fault.whole_program_sites");
      const auto sites = st.session->whole_program_sites();
      ctx_.layers.sample("fault.sites_ms", s.end());
      fault::CampaignConfig cfg;
      cfg.trials = kPlansPerApp;
      cfg.seed = mix_seed(ctx_.seed, 0xE0 + apps_.size());
      cfg.pool = &ctx_.sched;
      auto p = ctx_.tracer.span("fault.prepare_campaign");
      st.prepared = fault::prepare_campaign(*sites, fault::TargetClass::Internal,
                                            st.session->app().base, cfg);
      ctx_.layers.sample("fault.prepare_ms", p.end());
      // patterns_for runs the faulty side without the campaign's hang
      // budget, so a fault that hangs the program would run to the VM's
      // default instruction ceiling. Keep only faults whose budgeted run
      // ends (all but about 1 in 4000 sampled faults).
      for (std::size_t i = 0; i < st.prepared.plans.size(); ++i) {
        vm::VmOptions opts = st.prepared.run_opts;
        opts.fault = st.prepared.plans[i];
        if (vm::Vm::run(*st.session->program(), opts).trap !=
            vm::TrapKind::Hang) {
          st.usable.push_back(i);
        }
      }
      if (st.usable.empty()) throw std::runtime_error("explain: no plans");
      // The diff runs both sides itself; the golden trace is not needed.
      st.session->invalidate_trace();
      apps_.emplace(name, std::move(st));
    }
  }

  std::size_t run(std::size_t index) override {
    Record rec = make(index);
    const auto& st = apps_.at(rec.app);
    const auto report = st.session->patterns_for(st.prepared.plans[rec.plan]);
    rec.counts = report.counts;
    rec.acl_max = report.acl.max_count;
    records_[index] = rec;
    return 1;
  }

  std::size_t run_traced(std::size_t index, bool count) override {
    Record rec = make(index);
    rec.traced = true;
    const auto& st = apps_.at(rec.app);
    auto top = ctx_.tracer.span("explain.request");
    // patterns_for, one layer call at a time (Internal-site faults need no
    // seed options).
    const long flt0 = thread_minor_faults();
    auto d = ctx_.tracer.span("acl.diff_run_columnar");
    const auto diff = st.session->column_diff_with(st.prepared.plans[rec.plan]);
    const double diff_ms = d.end();
    const long flt = thread_minor_faults() - flt0;
    ctx_.layers.sample("acl.diff_ms", diff_ms);
    ctx_.layers.add("vm.traced_records", static_cast<double>(diff.usable_records()));
    ctx_.layers.add("vm.traced_seconds", diff_ms * 1e-3);
    auto e = ctx_.tracer.span("trace.LocationEvents.build");
    const auto events = trace::LocationEvents::build(diff.records());
    ctx_.layers.sample("trace.events_ms", e.end());
    auto p = ctx_.tracer.span("patterns.detect_patterns");
    const auto report = patterns::detect_patterns(diff, events);
    ctx_.layers.sample("patterns.detect_ms", p.end());
    if (count) {
      ctx_.layers.add("acl.diffs", 1);
      ctx_.layers.add("acl.diff_records",
                      static_cast<double>(diff.usable_records()));
      ctx_.layers.add("acl.minflt", static_cast<double>(flt));
      ctx_.layers.add("trace.faulty_bytes",
                      static_cast<double>(diff.faulty.resident_bytes()));
      ctx_.layers.add("trace.faulty_records",
                      static_cast<double>(diff.faulty.size()));
    }
    rec.counts = report.counts;
    rec.acl_max = report.acl.max_count;
    records_[index] = rec;
    return 1;
  }

  bool check(std::size_t index) override {
    const auto it = records_.find(index);
    if (it == records_.end()) return false;
    const Record& rec = it->second;
    const auto& st = apps_.at(rec.app);
    const auto& session = *st.session;
    const auto& plan = st.prepared.plans[rec.plan];
    // Oracle: the verifier's class of the diff's faulty outputs equals the
    // untraced trial outcome for the same plan.
    const auto diff = session.column_diff_with(plan);
    const auto& golden = st.session->golden()->outputs;
    const auto explained = fault::classify_outcome(diff.faulty_result, golden,
                                                   session.app().verifier);
    const auto trial = fault::run_trial(*session.program(), st.prepared, plan,
                                        golden, session.app().verifier);
    if (explained != trial) return false;
    // A traced request must report what the untraced entry point reports.
    return !rec.traced || same_report(session.patterns_for(plan), rec);
  }

 private:
  [[nodiscard]] Record make(std::size_t index) const {
    const auto pick = pick_app(ctx_.seed, index);
    Record rec;
    rec.app = pick.app;
    const auto& usable = apps_.at(rec.app).usable;
    rec.plan = usable[pick.nth % usable.size()];
    return rec;
  }

  Context& ctx_;
  std::map<std::string, AppState> apps_;
  std::map<std::size_t, Record> records_;
};

}  // namespace

std::unique_ptr<Workload> make_explain(Context& ctx) {
  return std::make_unique<Explain>(ctx);
}

}  // namespace perfbench
