// `edit-loop`: one request is a developer's edit–rerun cycle. It makes a
// one-instruction f64 constant edit to one app (every edited module in a
// run is distinct; the edits are validated in set-up), builds a new session
// on the edited module attached to a store shared across the run, and runs
// the whole-app compositional campaign. Session build, the edited module's
// golden trace (a store write), summary lookups for unchanged sections
// (store reads) and composition dominate; trial execution is small.
#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "compose/compose.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace ft;

constexpr std::size_t kTrials = 32;
/// Validated edits per app: bounds the requests one run can make.
constexpr std::size_t kEditsPerApp = 96;
/// Edits cycle over this many of the latest-executing f64 constants.
constexpr std::size_t kEditSites = 4;

struct Edit {
  std::uint32_t func = 0;
  std::uint32_t block = 0;
  std::uint32_t instr = 0;
  std::uint32_t variant = 0;
};

void apply(const Edit& e, apps::AppSpec& spec) {
  const double k = 0.0009765625 * (e.variant + 1);
  for (auto& op : spec.module.function(e.func).blocks[e.block].instrs[e.instr].ops) {
    if (op.kind == ir::OperandKind::ImmF) op.imm_f = op.imm_f * (1.0 + k) + k;
  }
}

struct AppState {
  apps::AppSpec pristine;
  fault::CampaignConfig cfg;
  std::vector<Edit> edits;
};

struct Record {
  std::string app;
  std::size_t edit = 0;
  fault::CampaignResult counts;
};

/// The latest-first-executing f64 constants of the pristine module (the
/// selection bench/compose_ab.cpp makes), then distinct edits of them that
/// keep the golden run completing with an unchanged instruction count.
std::vector<Edit> make_edits(const apps::AppSpec& spec,
                             const vm::DecodedProgram& prog,
                             const compose::SectionPlan& plan,
                             std::uint64_t golden_instrs) {
  const auto* code = prog.code();
  std::vector<std::pair<std::size_t, std::uint32_t>> cands;  // (section, pc)
  for (std::uint32_t pc = 0; pc < prog.code_size(); ++pc) {
    const auto& d = code[pc];
    const auto& ins = spec.module.function(d.func).blocks[d.block].instrs[d.instr];
    const bool has_immf =
        std::any_of(ins.ops.begin(), ins.ops.end(),
                    [](const auto& op) { return op.kind == ir::OperandKind::ImmF; });
    if (!has_immf) continue;
    for (std::size_t s = 0; s < plan.sections.size(); ++s) {
      if (std::binary_search(plan.sections[s].pcs.begin(),
                             plan.sections[s].pcs.end(), pc)) {
        cands.emplace_back(s, pc);
        break;
      }
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  if (cands.size() > kEditSites) cands.resize(kEditSites);

  std::vector<Edit> edits;
  for (std::uint32_t variant = 0;
       edits.size() < kEditsPerApp && variant < 4 * kEditsPerApp; ++variant) {
    for (const auto& [sec, pc] : cands) {
      if (edits.size() == kEditsPerApp) break;
      const Edit e{code[pc].func, code[pc].block, code[pc].instr, variant};
      auto candidate = spec;
      apply(e, candidate);
      try {
        // golden() throws when the edited program traps.
        core::AnalysisSession edited(std::move(candidate));
        if (edited.golden()->instructions == golden_instrs) edits.push_back(e);
      } catch (const std::runtime_error&) {
      }
    }
  }
  return edits;
}

class EditLoop final : public Workload {
 public:
  explicit EditLoop(Context& ctx) : ctx_(ctx) {}

  void setup() override {
    std::filesystem::create_directories(ctx_.work_dir);
    std::string templ = (ctx_.work_dir / "edit-store-XXXXXX").string();
    if (::mkdtemp(templ.data()) == nullptr) {
      throw std::runtime_error("edit-loop: mkdtemp failed");
    }
    dir_ = std::make_unique<ScopedDir>(templ);
    store_ = std::make_shared<TimingStore>(templ + "/store");

    // Cold compositional runs of every pristine app populate the store.
    const auto& names = apps::all_app_names();
    for (std::size_t a = 0; a < names.size(); ++a) {
      AppState st;
      auto session = build_session(names[a], ctx_, &st.pristine);
      session->attach_store(store_);
      golden_artifacts(*session, ctx_);
      auto s = ctx_.tracer.span("fault.whole_program_sites");
      const auto sites = session->whole_program_sites();
      ctx_.layers.sample("fault.sites_ms", s.end());
      st.cfg.trials = kTrials;
      st.cfg.seed = mix_seed(ctx_.seed, 0xED0 + a);
      st.cfg.pool = &ctx_.sched;
      auto c = ctx_.tracer.span("compose.cold_run");
      (void)session->run_compositional(st.cfg);
      c.end();
      auto e = ctx_.tracer.span("edit.validate");
      const auto prepared = fault::prepare_campaign(
          *sites, fault::TargetClass::Internal, session->app().base, st.cfg);
      const auto plan = compose::plan_sections(
          *session->program(), *session->golden_trace(),
          *session->region_instances(), prepared);
      st.edits = make_edits(st.pristine, *session->program(), plan,
                            session->golden()->instructions);
      if (st.edits.empty()) throw std::runtime_error("edit-loop: no edits");
      apps_.emplace(names[a], std::move(st));
    }
  }

  [[nodiscard]] std::size_t capacity() const override {
    std::size_t rounds = SIZE_MAX;
    for (const auto& [name, st] : apps_) {
      rounds = std::min(rounds, st.edits.size() / picks_per_round(name));
    }
    return rounds * kRound;
  }

  std::size_t run(std::size_t index) override {
    Record rec = make(index);
    const auto& st = apps_.at(rec.app);
    auto spec = st.pristine;
    apply(st.edits[rec.edit], spec);
    auto session = std::make_shared<core::AnalysisSession>(std::move(spec));
    session->attach_store(store_);
    rec.counts = session->run_compositional(st.cfg).counts;
    records_[index] = rec;
    return rec.counts.trials;
  }

  std::size_t run_traced(std::size_t index, bool count) override {
    Record rec = make(index);
    const auto& st = apps_.at(rec.app);
    auto top = ctx_.tracer.span("edit.request");
    auto spec = st.pristine;
    apply(st.edits[rec.edit], spec);
    auto s = ctx_.tracer.span("core.AnalysisSession");
    auto session = std::make_shared<core::AnalysisSession>(std::move(spec));
    ctx_.layers.sample("core.session_ms", s.end());
    session->attach_store(store_);
    const double load0 = store_->load_ms();
    const double publish0 = store_->publish_ms();
    const auto before = store_->counters();

    // run_compositional, one layer call at a time.
    golden_artifacts(*session, ctx_);
    auto si = ctx_.tracer.span("fault.whole_program_sites");
    const auto sites = session->whole_program_sites();
    ctx_.layers.sample("fault.sites_ms", si.end());
    auto ri = ctx_.tracer.span("trace.region_instances");
    const auto instances = session->region_instances();
    ri.end();
    auto p = ctx_.tracer.span("fault.prepare_campaign");
    const auto prepared = fault::prepare_campaign(
        *sites, fault::TargetClass::Internal, session->app().base, st.cfg);
    ctx_.layers.sample("fault.prepare_ms", p.end());
    auto pl = ctx_.tracer.span("compose.plan_sections");
    const auto plan = compose::plan_sections(
        *session->program(), *session->golden_trace(), *instances, prepared);
    ctx_.layers.sample("compose.plan_ms", pl.end());
    compose::ComposeOptions opts;
    opts.store = store_;
    opts.options_hash = session->options_hash();
    opts.config = st.cfg;
    auto c = ctx_.tracer.span("compose.run_composed_campaign");
    const auto res = compose::run_composed_campaign(
        *session->program(), prepared, plan, session->golden()->outputs,
        session->app().verifier, ctx_.sched, opts);
    ctx_.layers.sample("compose.campaign_ms", c.end());
    ctx_.layers.sample("compose.summarize_ms", res.summarize_seconds * 1e3);
    ctx_.layers.sample("compose.close_ms", res.close_seconds * 1e3);
    ctx_.layers.sample("store.load_ms", store_->load_ms() - load0);
    ctx_.layers.sample("store.publish_ms", store_->publish_ms() - publish0);
    if (count) {
      const auto after = store_->counters();
      ctx_.layers.add("store.hits", static_cast<double>(after.hits - before.hits));
      ctx_.layers.add("store.misses",
                      static_cast<double>(after.misses - before.misses));
      ctx_.layers.add("store.corrupt",
                      static_cast<double>(after.corrupt - before.corrupt));
      ctx_.layers.add("store.bytes_read",
                      static_cast<double>(after.bytes_read - before.bytes_read));
      ctx_.layers.add(
          "store.bytes_written",
          static_cast<double>(after.bytes_written - before.bytes_written));
      ctx_.layers.add("compose.sections_reexecuted",
                      static_cast<double>(res.sections_reexecuted));
      ctx_.layers.add("compose.summaries_computed",
                      static_cast<double>(res.summaries_computed));
      ctx_.layers.add("compose.summary_store_hits",
                      static_cast<double>(res.summary_store_hits));
      ctx_.layers.add("compose.trials_avoided",
                      static_cast<double>(res.trials_avoided));
    }
    rec.counts = res.counts;
    records_[index] = rec;
    return rec.counts.trials;
  }

  bool check(std::size_t index) override {
    const auto it = records_.find(index);
    if (it == records_.end()) return false;
    const Record& rec = it->second;
    const auto& st = apps_.at(rec.app);
    // Oracle: an exhaustive campaign on the edited module, without a store.
    auto spec = st.pristine;
    apply(st.edits[rec.edit], spec);
    core::AnalysisSession session(std::move(spec));
    const auto prepared =
        fault::prepare_campaign(*session.whole_program_sites(),
                                fault::TargetClass::Internal, session.app().base,
                                st.cfg);
    const auto res = fault::run_prepared_campaign(
        *session.program(), prepared, session.golden()->outputs,
        session.app().verifier, ctx_.sched);
    return same_counts(res, rec.counts);
  }

  [[nodiscard]] std::string summary() const override {
    const auto disk = store_->disk_stats();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "edit-loop store: %llu entries, %.1f MB on disk (removed at exit)",
                  static_cast<unsigned long long>(disk.entries),
                  static_cast<double>(disk.bytes) / 1e6);
    return buf;
  }

 private:
  [[nodiscard]] Record make(std::size_t index) const {
    const auto pick = pick_app(ctx_.seed, index);
    Record rec;
    rec.app = pick.app;
    rec.edit = pick.nth;  // distinct per request within a run
    return rec;
  }

  Context& ctx_;
  std::unique_ptr<ScopedDir> dir_;  // declared first: removed last
  std::shared_ptr<TimingStore> store_;
  std::map<std::string, AppState> apps_;
  std::map<std::size_t, Record> records_;
};

}  // namespace

std::unique_ptr<Workload> make_edit_loop(Context& ctx) {
  return std::make_unique<EditLoop>(ctx);
}

}  // namespace perfbench
