#include "core/analysis.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>

#include "jit/jit_program.h"
#include "store/artifact_store.h"
#include "util/stopwatch.h"
#include "vm/interp.h"

namespace ft::core {

// ---------------------------------------------------------------------------
// AnalysisSession
// ---------------------------------------------------------------------------

AnalysisSession::AnalysisSession(apps::AppSpec app)
    : app_(std::move(app)),
      program_(std::make_shared<const vm::DecodedProgram>(
          vm::DecodedProgram::decode(app_.module))) {
  // Compile the native backend once per session and wire it into the base
  // options: every untraced run downstream of these options — the golden
  // run, campaign golden cursors, trial tails, convergence probes —
  // executes natively, while traced/observed/counted runs keep the
  // interpreter (Vm's engine dispatch arbitrates per run). A null compile
  // (unsupported target, FT_VM_NO_JIT, mapping failure) degrades to the
  // decoded interpreter with no behavior change — the engines are
  // bit-identical by construction.
  if (jit::JitProgram::runtime_enabled()) {
    jit_ = jit::JitProgram::compile(*program_);
    app_.base.jit = jit_.get();
  }
}

const std::shared_ptr<const vm::RunResult>& AnalysisSession::golden_locked() {
  if (!golden_) {
    if (store_) {
      if (auto cached = store_->load_golden(
              store::golden_key(module_hash(), options_hash()))) {
        golden_ = std::make_shared<const vm::RunResult>(std::move(*cached));
        return golden_;
      }
    }
    auto run = vm::Vm::run(*program_, app_.base);
    if (!run.completed()) {
      throw std::runtime_error("fault-free run of '" + app_.name +
                               "' trapped: " +
                               std::string(vm::trap_name(run.trap)));
    }
    golden_ = std::make_shared<const vm::RunResult>(std::move(run));
    if (store_) {
      store_->publish_golden(store::golden_key(module_hash(), options_hash()),
                             *golden_);
    }
  }
  return golden_;
}

bool AnalysisSession::fill_trace_locked(std::uint64_t& trapped_at) {
  if (trace_) return true;
  if (store_) {
    // Store-first: mmap the persisted golden trace segments and adopt
    // them zero-copy (store/trace_io.h) — every TraceView reader runs
    // over the mapped columns; no traced execution happens at all.
    if (auto loaded = store_->load_trace(
            store::trace_key(module_hash(), options_hash()), program_,
            module_hash())) {
      trace_ = std::move(loaded);
      return true;
    }
  }
  // Direct-emit traced run: the decoded hot loop appends columnar
  // records itself — no observer, no DynInstr materialization.
  trace::ColumnTrace sink(program_);
  if (golden_) sink.reserve(golden_->instructions);
  vm::VmOptions opts = app_.base;
  opts.observer = nullptr;  // an observer would win over the sink
  opts.column_sink = &sink;
  auto run = vm::Vm::run(*program_, opts);
  traced_executed_.fetch_add(run.instructions, std::memory_order_relaxed);
  if (!run.completed()) {
    trapped_at = run.instructions;
    return false;
  }
  if (!golden_) {
    golden_ = std::make_shared<const vm::RunResult>(std::move(run));
  }
  trace_ = std::make_shared<const trace::ColumnTrace>(std::move(sink));
  if (store_) {
    store_->publish_trace(store::trace_key(module_hash(), options_hash()),
                          *trace_, module_hash());
    store_->publish_golden(store::golden_key(module_hash(), options_hash()),
                           *golden_);
  }
  return true;
}

const std::shared_ptr<const trace::ColumnTrace>&
AnalysisSession::trace_locked() {
  std::uint64_t trapped_at = 0;
  if (!fill_trace_locked(trapped_at)) {
    throw std::runtime_error("traced fault-free run of '" + app_.name +
                             "' trapped");
  }
  return trace_;
}

const std::shared_ptr<const std::vector<trace::RegionInstance>>&
AnalysisSession::instances_locked() {
  if (!instances_) {
    // Columnar fast path: marker opcodes resolve through the pc column, so
    // segmentation touches no record at all.
    instances_ = std::make_shared<const std::vector<trace::RegionInstance>>(
        trace::segment_regions(*trace_locked()));
  }
  return instances_;
}

const std::shared_ptr<const trace::LocationEvents>&
AnalysisSession::events_locked() {
  if (!events_) {
    events_ = std::make_shared<const trace::LocationEvents>(
        trace::LocationEvents::build(trace_locked()->view()));
  }
  return events_;
}

void AnalysisSession::ensure_ladder_locked() {
  if (ladder_ || !trace_) return;
  ladder_ = std::make_shared<const fault::SectionLadder>(fault::build_ladder(
      *program_, *trace_, *instances_locked(), app_.base,
      fault::ladder_cap(*program_, fault::ForkPolicy{}.max_snapshot_bytes)));
}

std::shared_ptr<const fault::SiteEnumerationResult>
AnalysisSession::sites_locked(std::uint32_t region_id,
                              std::uint32_t instance) {
  const auto k = key(region_id, instance);
  if (const auto it = sites_.find(k); it != sites_.end()) return it->second;
  const std::uint64_t sk =
      store_ ? store::sites_key(module_hash(), options_hash(), region_id,
                                instance)
             : 0;
  fault::SiteEnumerationResult sites;
  std::optional<fault::SiteEnumerationResult> cached;
  if (store_) cached = store_->load_sites(sk);
  if (cached) {
    sites = std::move(*cached);
  } else {
    sites = fault::enumerate_sites_from_trace(trace_locked()->view(),
                                              *instances_locked(),
                                              *events_locked(), region_id,
                                              instance);
    if (store_) store_->publish_sites(sk, sites);
  }
  // A store-served population gets the ladder only when the trace is
  // already at hand.
  ensure_ladder_locked();
  sites.ladder = ladder_;
  auto shared =
      std::make_shared<const fault::SiteEnumerationResult>(std::move(sites));
  sites_.emplace(k, shared);
  return shared;
}

std::shared_ptr<const vm::RunResult> AnalysisSession::golden() {
  std::lock_guard lock(mu_);
  return golden_locked();
}

std::shared_ptr<const trace::ColumnTrace> AnalysisSession::golden_trace() {
  std::lock_guard lock(mu_);
  return trace_locked();
}

std::shared_ptr<const std::vector<trace::RegionInstance>>
AnalysisSession::region_instances() {
  std::lock_guard lock(mu_);
  return instances_locked();
}

std::shared_ptr<const trace::LocationEvents> AnalysisSession::golden_events() {
  std::lock_guard lock(mu_);
  return events_locked();
}

std::shared_ptr<const patterns::PatternRates>
AnalysisSession::pattern_rates() {
  std::lock_guard lock(mu_);
  if (!rates_) {
    rates_ = std::make_shared<const patterns::PatternRates>(
        patterns::measure_rates(trace_locked()->view(), *events_locked()));
  }
  return rates_;
}

std::shared_ptr<const fault::SiteEnumerationResult>
AnalysisSession::region_sites(std::uint32_t region_id,
                              std::uint32_t instance) {
  std::lock_guard lock(mu_);
  return sites_locked(region_id, instance);
}

std::shared_ptr<const fault::SiteEnumerationResult>
AnalysisSession::whole_program_sites() {
  std::lock_guard lock(mu_);
  if (!whole_sites_) {
    // One columnar pass over the golden trace the session already holds
    // (store-served or traced once for every golden artifact). A trapping
    // fault-free run has no population: not found, never an exception.
    std::uint64_t trapped_at = 0;
    fault::SiteEnumerationResult ws;
    if (fill_trace_locked(trapped_at)) {
      ws = fault::enumerate_whole_program_sites_from_trace(*trace_);
      ensure_ladder_locked();
      ws.ladder = ladder_;
    } else {
      ws.fault_free_instructions = trapped_at;
    }
    whole_sites_ =
        std::make_shared<const fault::SiteEnumerationResult>(std::move(ws));
  }
  return whole_sites_;
}

std::shared_ptr<const fault::RankEnumeration>
AnalysisSession::rank_enumeration(std::int64_t nranks) {
  std::lock_guard lock(mu_);
  if (const auto it = rank_enums_.find(nranks); it != rank_enums_.end()) {
    return it->second;
  }
  auto en = std::make_shared<const fault::RankEnumeration>(
      fault::enumerate_rank_sites(program_, nranks, app_.base,
                                  /*keep_traces=*/false));
  rank_enums_.emplace(nranks, en);
  return en;
}

std::shared_ptr<const dddg::Graph> AnalysisSession::region_dddg(
    std::uint32_t region_id, std::uint32_t instance) {
  std::lock_guard lock(mu_);
  const auto k = key(region_id, instance);
  if (const auto it = dddgs_.find(k); it != dddgs_.end()) return it->second;
  const auto inst =
      trace::find_instance(*instances_locked(), region_id, instance);
  auto graph = std::make_shared<const dddg::Graph>(
      inst ? dddg::Graph::build(
                 trace_locked()->slice(inst->body_begin(), inst->body_end()))
           : dddg::Graph{});
  dddgs_.emplace(k, graph);
  return graph;
}

std::optional<regions::RegionIo> AnalysisSession::region_io(
    std::uint32_t region_id, std::uint32_t instance) {
  std::lock_guard lock(mu_);
  const auto inst =
      trace::find_instance(*instances_locked(), region_id, instance);
  if (!inst) return std::nullopt;
  return regions::classify_io(
      trace_locked()->slice(inst->body_begin(), inst->body_end()),
      *events_locked(), *inst);
}

void AnalysisSession::attach_store(std::shared_ptr<store::ArtifactStore> s) {
  std::lock_guard lock(mu_);
  if (store_ || !s) return;  // first attach wins
  // Derive the stable content hashes once: every store key of this session
  // mixes them, so equal hashes across processes address the same bytes.
  module_hash_.store(store::hash_module(app_.module),
                     std::memory_order_relaxed);
  options_hash_.store(store::hash_options(app_.base),
                      std::memory_order_relaxed);
  store_ = std::move(s);
}

std::shared_ptr<store::ArtifactStore> AnalysisSession::store() const {
  std::lock_guard lock(mu_);
  return store_;
}

std::shared_ptr<const fault::SectionLadder> AnalysisSession::ladder() const {
  std::lock_guard lock(mu_);
  return ladder_;
}

void AnalysisSession::invalidate_trace() {
  std::lock_guard lock(mu_);
  trace_.reset();
  instances_.reset();
  events_.reset();
  rates_.reset();
}

void AnalysisSession::invalidate_all() {
  std::lock_guard lock(mu_);
  golden_.reset();
  trace_.reset();
  instances_.reset();
  events_.reset();
  rates_.reset();
  whole_sites_.reset();
  ladder_.reset();
  rank_enums_.clear();
  sites_.clear();
  dddgs_.clear();
}

fault::CampaignResult AnalysisSession::region_campaign(
    std::uint32_t region_id, std::uint32_t instance, fault::TargetClass target,
    const fault::CampaignConfig& config) {
  const auto sites = region_sites(region_id, instance);
  const auto golden_run = golden();
  auto* pool = config.pool ? config.pool : &util::global_scheduler();
  return fault::run_prepared_campaign(
      *program_, fault::prepare_campaign(*sites, target, app_.base, config),
      golden_run->outputs, app_.verifier, *pool);
}

fault::CampaignResult AnalysisSession::app_campaign(
    const fault::CampaignConfig& config) {
  const auto sites = whole_program_sites();
  const auto golden_run = golden();
  auto* pool = config.pool ? config.pool : &util::global_scheduler();
  return fault::run_prepared_campaign(
      *program_,
      fault::prepare_campaign(*sites, fault::TargetClass::Internal, app_.base,
                              config),
      golden_run->outputs, app_.verifier, *pool);
}

compose::ComposedResult AnalysisSession::run_compositional(
    const fault::CampaignConfig& config) {
  // Same population and golden artifacts as app_campaign. The section
  // decomposition is the session's ladder, which rides with the population;
  // a fork policy whose snapshot budget cuts another ladder builds its own
  // from the golden trace.
  const auto sites = whole_program_sites();
  const auto golden_run = golden();
  auto* pool = config.pool ? config.pool : &util::global_scheduler();
  auto prepared = fault::prepare_campaign(
      *sites, fault::TargetClass::Internal, app_.base, config);
  const std::size_t cap =
      fault::ladder_cap(*program_, config.fork.max_snapshot_bytes);
  const auto plan =
      prepared.ladder && prepared.ladder->max_sections == cap
          ? compose::assign_sections(prepared.ladder, prepared)
          : compose::plan_sections(*program_, *golden_trace(),
                                   *region_instances(), prepared);
  compose::ComposeOptions opts;
  {
    std::lock_guard lock(mu_);
    opts.store = store_;
  }
  opts.options_hash = options_hash();
  opts.config = config;
  return compose::run_composed_campaign(*program_, prepared, plan,
                                        golden_run->outputs, app_.verifier,
                                        *pool, opts);
}

fault::RankCampaignResult AnalysisSession::rank_campaign(
    const fault::RankCampaignConfig& config) {
  const auto en = rank_enumeration(config.nranks);
  const auto prepared = fault::prepare_rank_campaign(*en, app_.base, config);
  auto* pool = config.pool ? config.pool : &util::global_scheduler();
  return fault::run_rank_campaign(*program_, prepared, app_.verifier, *pool);
}

acl::DiffOptions AnalysisSession::diff_options(const vm::FaultPlan& plan,
                                              std::size_t max_records) const {
  std::uint64_t golden_instructions = 0;
  {
    std::lock_guard lock(mu_);
    if (golden_) golden_instructions = golden_->instructions;
  }
  if (golden_instructions == 0) {
    // Not cached yet: measure without caching (this method is const).
    golden_instructions = vm::Vm::run(*program_, app_.base).instructions;
  }
  acl::DiffOptions opts;
  opts.base = app_.base;
  // The campaign hang budget: a fault that never terminates classifies as
  // a hang after budget_factor x the golden run, as its trial would.
  opts.base.max_instructions = fault::hang_budget(
      fault::CampaignConfig{}.budget_factor, golden_instructions);
  opts.fault = plan;
  opts.max_records = max_records;
  // A clean-vs-faulty lockstep stream has exactly one record per golden
  // instruction until divergence.
  opts.reserve_records = static_cast<std::size_t>(golden_instructions);
  return opts;
}

acl::DiffResult AnalysisSession::diff_with(const vm::FaultPlan& plan,
                                           std::size_t max_records) const {
  return acl::diff_run(*program_, diff_options(plan, max_records));
}

acl::ColumnDiff AnalysisSession::column_diff_with(
    const vm::FaultPlan& plan, std::size_t max_records) const {
  return acl::diff_run_columnar(program_, diff_options(plan, max_records));
}

patterns::PatternReport AnalysisSession::patterns_for(
    const vm::FaultPlan& plan, std::size_t max_records) const {
  const auto diff = column_diff_with(plan, max_records);
  const auto events = trace::LocationEvents::build(diff.records());
  patterns::DetectOptions opts;
  if (plan.kind == vm::FaultPlan::Kind::RegionInputMemoryBit) {
    opts.seed_loc = vm::mem_loc(plan.address);
    // Seed at the matching RegionEnter record (where the VM flipped the
    // word); fall back to 0 if the marker is past the usable prefix. The
    // scan is columnar: opcode and aux resolve through the pc column.
    std::uint32_t count = 0;
    for (std::size_t row = 0; row < diff.usable_records(); ++row) {
      if (diff.faulty.opcode_at(row) != ir::Opcode::RegionEnter ||
          static_cast<std::uint32_t>(diff.faulty.aux_at(row)) !=
              plan.region_id) {
        continue;
      }
      if (count == plan.region_instance) {
        opts.seed_index = row;
        break;
      }
      count++;
    }
  }
  return patterns::detect_patterns(diff, events, opts);
}

// ---------------------------------------------------------------------------
// AnalysisRequest builder
// ---------------------------------------------------------------------------

AnalysisRequest& AnalysisRequest::app(std::string name) {
  apps_.push_back(AppRef{std::move(name), std::nullopt, nullptr});
  return *this;
}

AnalysisRequest& AnalysisRequest::app(apps::AppSpec spec) {
  apps_.push_back(AppRef{spec.name, std::move(spec), nullptr});
  return *this;
}

AnalysisRequest& AnalysisRequest::session(
    std::shared_ptr<AnalysisSession> s) {
  apps_.push_back(AppRef{s->app().name, std::nullopt, std::move(s)});
  return *this;
}

AnalysisRequest& AnalysisRequest::analysis_regions(std::uint32_t instance) {
  scope_ = RegionScope::AnalysisRegions;
  scope_instance_ = instance;
  return *this;
}

AnalysisRequest& AnalysisRequest::region(std::string name,
                                         std::uint32_t instance) {
  scope_ = RegionScope::NamedRegions;
  named_regions_.emplace_back(std::move(name), instance);
  return *this;
}

AnalysisRequest& AnalysisRequest::main_loop_iterations() {
  scope_ = RegionScope::MainLoopIterations;
  return *this;
}

AnalysisRequest& AnalysisRequest::target(fault::TargetClass t) {
  if (std::find(targets_.begin(), targets_.end(), t) == targets_.end()) {
    targets_.push_back(t);
  }
  return *this;
}

AnalysisRequest& AnalysisRequest::success_rates(
    const fault::CampaignConfig& cfg) {
  region_campaign_ = cfg;
  return *this;
}

AnalysisRequest& AnalysisRequest::app_campaign(
    const fault::CampaignConfig& cfg) {
  app_campaign_ = cfg;
  return *this;
}

AnalysisRequest& AnalysisRequest::compositional(
    const fault::CampaignConfig& cfg) {
  compositional_ = cfg;
  return *this;
}

AnalysisRequest& AnalysisRequest::rank_campaign(
    const fault::RankCampaignConfig& cfg) {
  rank_campaign_ = cfg;
  return *this;
}

AnalysisRequest& AnalysisRequest::opcode_profile() {
  want_opcode_profile_ = true;
  return *this;
}

std::vector<std::pair<ir::Opcode, std::uint64_t>> OpcodeProfile::ranked()
    const {
  std::vector<std::pair<ir::Opcode, std::uint64_t>> v;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      v.emplace_back(static_cast<ir::Opcode>(i), counts[i]);
    }
  }
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return v;
}

AnalysisRequest& AnalysisRequest::pattern_rates() {
  want_pattern_rates_ = true;
  return *this;
}

AnalysisRequest& AnalysisRequest::region_io() {
  want_region_io_ = true;
  return *this;
}

AnalysisRequest& AnalysisRequest::store_dir(std::string dir) {
  store_dir_ = std::move(dir);
  return *this;
}

AnalysisRequest& AnalysisRequest::store(
    std::shared_ptr<store::ArtifactStore> s) {
  store_ = std::move(s);
  return *this;
}

AnalysisRequest& AnalysisRequest::pool(util::Scheduler* p) {
  pool_ = p;
  return *this;
}

AnalysisRequest& AnalysisRequest::on_progress(
    std::function<void(const UnitProgress&)> fn) {
  progress_ = std::move(fn);
  return *this;
}

AnalysisRequest& AnalysisRequest::keep_traces(bool keep) {
  keep_traces_ = keep;
  return *this;
}

// ---------------------------------------------------------------------------
// AnalysisReport lookup
// ---------------------------------------------------------------------------

const AnalysisEntry* AnalysisReport::find(std::string_view app,
                                          std::string_view region_name,
                                          fault::TargetClass target,
                                          std::uint32_t instance) const {
  for (const auto& e : entries) {
    if (e.app == app && e.region_name == region_name && e.target == target &&
        e.instance == instance) {
      return &e;
    }
  }
  return nullptr;
}

const AppReport* AnalysisReport::find_app(std::string_view app) const {
  for (const auto& a : apps) {
    if (a.app == app) return &a;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// run_analysis: the batched executor
// ---------------------------------------------------------------------------

namespace {

/// One campaign scheduled into the shared work queue: either a region
/// entry's campaign or an app-level campaign. The unit pins the session's
/// decoded program and golden snapshot, so workers touch only immutable
/// shared state — no decode, no session lock — per trial.
struct CampaignUnit {
  std::shared_ptr<AnalysisSession> session;
  std::shared_ptr<const vm::DecodedProgram> program;
  std::shared_ptr<const vm::RunResult> golden;
  fault::PreparedCampaign prepared;
  std::size_t entry_index = ~std::size_t{0};  // into report.entries, or
  std::size_t app_index = ~std::size_t{0};    // into report.apps
  /// Content-addressed key the unit's outcome counts publish under after
  /// execution (0 when the request runs without a store). Units whose key
  /// HIT the store are never built — their entries are filled verbatim.
  std::uint64_t store_key = 0;
};

struct UnitCounts {
  std::atomic<std::size_t> success{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> crashed{0};
  std::atomic<std::size_t> detected_recovered{0};
  std::atomic<std::size_t> detected_unrecoverable{0};
  std::atomic<std::size_t> early_exits{0};
  std::atomic<std::size_t> dead_delta_exits{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> prefix_saved{0};
  std::atomic<std::uint64_t> convergence_saved{0};
};

/// Per-unit mutable state of the batched executor: lazily-built waypoint
/// snapshots (first touching chunk builds, last finishing chunk frees) and
/// the counters that outlive the freed snapshots.
struct UnitRuntime {
  std::once_flag once;
  fault::CampaignSnapshots snapshots;
  std::vector<std::uint32_t> order;       // fork_schedule over the snapshots
  std::atomic<std::size_t> remaining{0};  // trials not yet finished
  std::uint64_t snapshots_taken = 0;
  std::uint64_t resume_depth = 0;
  /// Highest trials_done already streamed to the progress hook (guarded by
  /// the executor's progress mutex) — keeps snapshots monotone per unit
  /// when chunks race to report.
  std::size_t progress_done = 0;
};

/// One cross-rank campaign scheduled into the shared work queue. Trials
/// (whole worlds, one Vm per rank) interleave with scalar campaign trials
/// on the same pool; rank-local waypoint snapshots are built lazily by the
/// first chunk that touches the unit and freed by the last.
struct RankUnit {
  std::shared_ptr<AnalysisSession> session;
  std::shared_ptr<const vm::DecodedProgram> program;
  fault::PreparedRankCampaign prepared;
  std::size_t app_index = ~std::size_t{0};  // into report.apps
};

/// Per-rank-unit state of the batched executor: the shared taxonomy
/// accumulator (fault::RankCampaignAccumulator owns ALL per-trial
/// bookkeeping, so batched results cannot drift from run_rank_campaign)
/// plus the lazily-built rank-local snapshots.
struct RankUnitCounts {
  explicit RankUnitCounts(std::size_t nranks) : acc(nranks) {}

  fault::RankCampaignAccumulator acc;
  std::once_flag once;
  fault::RankSnapshots snapshots;
  std::atomic<std::size_t> remaining{0};
  std::uint64_t snapshots_taken = 0;
  std::size_t progress_done = 0;  // see UnitRuntime::progress_done
};

fault::CampaignResult unit_result(const CampaignUnit& unit,
                                  const UnitCounts& counts,
                                  const UnitRuntime& runtime) {
  fault::CampaignResult r;
  r.trials = unit.prepared.plans.size();
  r.population_bits = unit.prepared.population_bits;
  r.success = counts.success.load();
  r.failed = counts.failed.load();
  r.crashed = counts.crashed.load();
  r.detected_recovered = counts.detected_recovered.load();
  r.detected_unrecoverable = counts.detected_unrecoverable.load();
  r.instructions_retired = counts.instructions.load();
  r.snapshots_taken = runtime.snapshots_taken;
  r.resume_depth = runtime.resume_depth;
  r.prefix_instructions_saved = counts.prefix_saved.load();
  r.convergence_instructions_saved = counts.convergence_saved.load();
  r.early_exits = counts.early_exits.load();
  r.dead_delta_exits = counts.dead_delta_exits.load();
  return r;
}

/// Fold one unit's campaign result into the report's rollup counters.
void fold_prefix_reuse(AnalysisReport& report,
                       const fault::CampaignResult& result) {
  report.total_instructions += result.instructions_retired;
  report.instructions_saved += result.prefix_instructions_saved +
                               result.convergence_instructions_saved;
  report.snapshots_taken += result.snapshots_taken;
  report.early_exits += result.early_exits;
  report.dead_delta_exits += result.dead_delta_exits;
  report.max_resume_depth =
      std::max(report.max_resume_depth, result.resume_depth);
}

/// The concrete (region_id, name, instance) rows one request selects for
/// one application.
struct RegionRow {
  std::uint32_t region_id = 0;
  std::string name;
  std::uint32_t instance = 0;
};

}  // namespace

AnalysisReport run_analysis(const AnalysisRequest& request) {
  const util::Stopwatch total;
  AnalysisReport report;
  // Pool resolution: the request's pool wins; otherwise a pool carried in
  // a campaign config is honored (matching run_campaign's contract), and
  // two configs naming different pools is a contradiction we reject
  // rather than silently picking one.
  auto* pool = request.pool_;
  if (!pool) {
    util::Scheduler* config_pools[] = {
        request.region_campaign_ ? request.region_campaign_->pool : nullptr,
        request.app_campaign_ ? request.app_campaign_->pool : nullptr,
        request.compositional_ ? request.compositional_->pool : nullptr,
        request.rank_campaign_ ? request.rank_campaign_->pool : nullptr,
    };
    for (auto* p : config_pools) {
      if (!p) continue;
      if (pool && pool != p) {
        throw std::invalid_argument(
            "run_analysis: campaign configs name different pools; set "
            "AnalysisRequest::pool instead");
      }
      pool = p;
    }
  }
  if (!pool) pool = &util::global_scheduler();
  report.pool_workers = pool->size();

  // Optional persistent artifact store: an explicit store wins; a store_dir
  // opens (or creates) one for this request. Counters are reported as
  // deltas so a store shared across requests still reads per-request.
  std::shared_ptr<store::ArtifactStore> store = request.store_;
  if (!store && !request.store_dir_.empty()) {
    store = std::make_shared<store::ArtifactStore>(request.store_dir_);
  }
  const auto store_base =
      store ? store->counters() : store::ArtifactStore::Counters{};
  std::size_t cached_trials = 0;  // trials of campaigns served from store
  std::size_t composed_trials = 0;  // trials closed by the compositional path

  auto targets = request.targets_;
  if (targets.empty()) targets.push_back(fault::TargetClass::Internal);

  std::vector<CampaignUnit> units;
  std::vector<RankUnit> rank_units;

  for (const auto& ref : request.apps_) {
    // 1. Materialize the session (reusing caller-owned ones).
    std::shared_ptr<AnalysisSession> session = ref.session;
    const bool internal_session = session == nullptr;
    if (!session) {
      session = std::make_shared<AnalysisSession>(
          ref.spec ? *ref.spec : apps::build_app(ref.name));
    }
    if (store) session->attach_store(store);
    const std::uint64_t traced_before =
        session->traced_instructions_executed();
    const std::uint64_t mh = session->module_hash();
    const std::uint64_t oh = session->options_hash();
    const auto& spec = session->app();
    // The AppRef name is the report key in every case: the registry name
    // for name refs ("CG", matching what the caller will look up), and the
    // spec name for explicit specs and caller sessions (set when the ref
    // was built). Keying off the ref keeps labels stable when the service
    // front end swaps a name ref for a shared session.
    const std::string& label = ref.name;

    AppReport app_report;
    app_report.app = label;
    const auto golden_run = session->golden();
    app_report.golden_instructions = golden_run->instructions;
    if (request.want_pattern_rates_) {
      app_report.rates = *session->pattern_rates();
    }
    if (request.want_opcode_profile_) {
      // One counted interpreter run: count_opcodes forces the decoded hot
      // loop (native code does not count dispatches), and on a clean run
      // the counts sum to the retired-instruction total.
      vm::VmOptions opts = spec.base;
      opts.count_opcodes = true;
      vm::Vm counted(*session->program(), opts);
      counted.run();
      OpcodeProfile prof;
      const auto counts = counted.opcode_counts();
      prof.counts.assign(counts.begin(), counts.end());
      for (std::size_t op = 0; op < prof.counts.size(); ++op) {
        if (jit::JitProgram::opcode_compiled(static_cast<ir::Opcode>(op))) {
          prof.jit_compiled_dispatches += prof.counts[op];
        } else {
          prof.jit_deopt_dispatches += prof.counts[op];
        }
      }
      const auto* code = session->program()->code();
      for (std::size_t pc = 0; pc < session->program()->code_size(); ++pc) {
        if (jit::JitProgram::opcode_compiled(code[pc].op)) {
          ++prof.jit_static_compiled;
        } else {
          ++prof.jit_static_deopt;
        }
      }
      app_report.opcode_profile = std::move(prof);
    }

    // 2. Resolve the region sweep for this application.
    std::vector<RegionRow> rows;
    switch (request.scope_) {
      case RegionScope::AnalysisRegions:
        for (const auto& rd : spec.analysis_regions) {
          rows.push_back(RegionRow{rd.id, rd.name, request.scope_instance_});
        }
        break;
      case RegionScope::NamedRegions:
        for (const auto& [name, instance] : request.named_regions_) {
          const auto* rd = spec.find_region(name);
          if (!rd) {
            throw std::invalid_argument("run_analysis: app '" + spec.name +
                                        "' has no region '" + name + "'");
          }
          rows.push_back(RegionRow{rd->id, rd->name, instance});
        }
        break;
      case RegionScope::MainLoopIterations: {
        const auto& name = spec.module.region(spec.main_region).name;
        for (int it = 0; it < spec.main_iters; ++it) {
          rows.push_back(RegionRow{spec.main_region, name,
                                   static_cast<std::uint32_t>(it)});
        }
        break;
      }
      case RegionScope::None:
        break;
    }

    // 3. Build entries and prepare their campaigns (plans drawn up-front,
    //    per unit, from the request seed — schedule-invariant).
    for (const auto& row : rows) {
      const auto sites = session->region_sites(row.region_id, row.instance);
      std::optional<regions::RegionIo> io;
      if (request.want_region_io_ && sites->region_found) {
        io = session->region_io(row.region_id, row.instance);
      }
      for (const auto target : targets) {
        AnalysisEntry entry;
        entry.app = label;
        entry.region_id = row.region_id;
        entry.region_name = row.name;
        entry.instance = row.instance;
        entry.target = target;
        entry.region_found = sites->region_found;
        entry.io = io;
        const auto entry_index = report.entries.size();
        report.entries.push_back(std::move(entry));

        if (request.region_campaign_ && sites->region_found) {
          const std::uint64_t ck =
              store ? store::campaign_key(mh, oh, row.region_id, row.instance,
                                          target, *request.region_campaign_)
                    : 0;
          if (store) {
            if (auto cached = store->load_campaign(ck)) {
              // Cache hit: the unit is never built and no trial runs; the
              // stored outcome counts are served verbatim.
              report.entries[entry_index].campaign = *cached;
              ++report.campaigns_from_store;
              cached_trials += cached->trials;
              continue;
            }
          }
          CampaignUnit unit;
          unit.session = session;
          unit.program = session->program();
          unit.golden = golden_run;
          unit.prepared = fault::prepare_campaign(
              *sites, target, spec.base, *request.region_campaign_);
          unit.entry_index = entry_index;
          unit.store_key = ck;
          report.entries[entry_index].campaign.population_bits =
              unit.prepared.population_bits;
          report.entries[entry_index].campaign.trials =
              unit.prepared.plans.size();
          units.push_back(std::move(unit));
        }
      }
    }

    if (request.app_campaign_) {
      const std::uint64_t ck =
          store ? store::campaign_key(mh, oh, store::kWholeProgram,
                                      store::kWholeProgram,
                                      fault::TargetClass::Internal,
                                      *request.app_campaign_)
                : 0;
      bool served = false;
      if (store) {
        if (auto cached = store->load_campaign(ck)) {
          // Served verbatim — the whole-program site enumeration (its own
          // traced run on a cold cache) is skipped entirely.
          app_report.whole_app = *cached;
          ++report.campaigns_from_store;
          cached_trials += cached->trials;
          served = true;
        }
      }
      if (!served) {
        CampaignUnit unit;
        unit.session = session;
        unit.program = session->program();
        unit.golden = golden_run;
        unit.prepared =
            fault::prepare_campaign(*session->whole_program_sites(),
                                    fault::TargetClass::Internal, spec.base,
                                    *request.app_campaign_);
        unit.app_index = report.apps.size();
        unit.store_key = ck;
        units.push_back(std::move(unit));
      }
    }

    if (request.compositional_) {
      // Runs inline (not in the batched queue): the per-section summary and
      // per-plan resolution phases are themselves parallel_fors on the
      // shared pool, and the section planner needs the golden trace before
      // step 4 drops it.
      auto cfg = *request.compositional_;
      if (!cfg.pool) cfg.pool = pool;
      auto composed = session->run_compositional(cfg);
      composed_trials += composed.counts.trials;
      report.sections_composed += composed.sections_composed;
      report.sections_reexecuted += composed.sections_reexecuted;
      report.summary_store_hits += composed.summary_store_hits;
      report.trials_avoided += composed.trials_avoided;
      app_report.compositional = std::move(composed);
    }

    if (request.rank_campaign_) {
      RankUnit unit;
      unit.session = session;
      unit.program = session->program();
      unit.prepared = fault::prepare_rank_campaign(
          *session->rank_enumeration(request.rank_campaign_->nranks),
          spec.base, *request.rank_campaign_);
      unit.app_index = report.apps.size();
      rank_units.push_back(std::move(unit));
    }

    report.apps.push_back(std::move(app_report));

    // 4. Bound memory: internally built sessions drop their bulk trace once
    //    campaign prep is done (the old reset_trace() discipline).
    if (internal_session && !request.keep_traces_) {
      session->invalidate_trace();
    }

    // Traced golden work this app actually executed during artifact prep
    // (0 when trace + enumerations were all served from the store).
    report.golden_traced_instructions +=
        session->traced_instructions_executed() - traced_before;
  }

  // 5. Execute every campaign trial of every unit as one batched queue —
  //    scalar trials and whole-world rank trials interleaved.
  report.campaign_units = units.size() + rank_units.size();
  std::vector<std::size_t> offsets(units.size() + 1, 0);
  for (std::size_t u = 0; u < units.size(); ++u) {
    offsets[u + 1] = offsets[u] + units[u].prepared.plans.size();
  }
  report.total_trials = offsets.back();
  for (const auto& unit : rank_units) {
    report.total_trials += unit.prepared.plans.size();
  }
  // Scheduled trials execute; store-served campaigns contribute their
  // (identical) trial counts to total_trials only — so total_trials reads
  // the same cold or warm while trials_executed proves what actually ran.
  report.trials_executed = report.total_trials;
  report.total_trials += cached_trials;
  // Compositionally closed trials count toward the request's total; the
  // per-app ComposedResult proof counters break down how many of them
  // resolved with zero execution.
  report.total_trials += composed_trials;

  const util::Stopwatch campaign_sw;
  std::vector<UnitCounts> counts(units.size());
  std::deque<RankUnitCounts> rank_counts;
  for (const auto& unit : rank_units) {
    rank_counts.emplace_back(static_cast<std::size_t>(unit.prepared.nranks))
        .remaining.store(unit.prepared.plans.size());
  }
  // The global queue is chunked per unit: each scalar chunk task owns one
  // TrialRunner (machine reuse across its trials); each rank chunk runs
  // whole worlds (one per trial, nranks VM threads each). A unit's
  // waypoint snapshots are placed lazily by the first chunk that touches
  // it (workers on other units keep draining the queue meanwhile) and
  // freed by the last chunk to finish, so peak snapshot memory tracks
  // the units in flight, not the whole request.
  struct TrialChunk {
    bool rank = false;      // scalar unit or rank-campaign unit
    std::size_t unit = 0;
    std::size_t begin = 0;  // plan indices within the unit
    std::size_t end = 0;
  };
  std::vector<TrialChunk> chunks;
  std::vector<UnitRuntime> runtimes(units.size());
  // Progress streaming: one snapshot at a time under this mutex, counts
  // loaded inside the critical section so every field is monotone per
  // unit; stale boundary reports (a chunk that finished earlier but lost
  // the race to report) are dropped via progress_done. The hook never
  // feeds back into results.
  std::mutex progress_mu;
  const auto& progress = request.progress_;
  auto emit_scalar = [&](std::size_t u, std::size_t left) {
    const auto& unit = units[u];
    UnitProgress p;
    p.trials_total = unit.prepared.plans.size();
    p.trials_done = p.trials_total - left;
    p.done = left == 0;
    if (unit.entry_index != ~std::size_t{0}) {
      const auto& e = report.entries[unit.entry_index];
      p.app = e.app;
      p.region_id = e.region_id;
      p.region_name = e.region_name;
      p.instance = e.instance;
      p.target = e.target;
    } else {
      p.app = report.apps[unit.app_index].app;
      p.whole_app = true;
    }
    std::lock_guard lock(progress_mu);
    auto& rt = runtimes[u];
    if (p.trials_done <= rt.progress_done && !p.done) return;
    rt.progress_done = p.trials_done;
    p.success = counts[u].success.load();
    p.failed = counts[u].failed.load();
    p.crashed = counts[u].crashed.load();
    p.detected_recovered = counts[u].detected_recovered.load();
    p.detected_unrecoverable = counts[u].detected_unrecoverable.load();
    progress(p);
  };
  auto emit_rank = [&](std::size_t u, std::size_t left) {
    const auto& unit = rank_units[u];
    UnitProgress p;
    p.app = report.apps[unit.app_index].app;
    p.rank = true;
    p.trials_total = unit.prepared.plans.size();
    p.trials_done = p.trials_total - left;
    p.done = left == 0;
    std::lock_guard lock(progress_mu);
    auto& rc = rank_counts[u];
    if (p.trials_done <= rc.progress_done && !p.done) return;
    rc.progress_done = p.trials_done;
    progress(p);
  };
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::size_t n = units[u].prepared.plans.size();
    runtimes[u].remaining.store(n);
    if (n == 0) continue;
    const std::size_t chunk =
        std::clamp<std::size_t>(n / (pool->size() * 8), 1, 32);
    for (std::size_t b = 0; b < n; b += chunk) {
      chunks.push_back(TrialChunk{false, u, b, std::min(n, b + chunk)});
    }
  }
  for (std::size_t u = 0; u < rank_units.size(); ++u) {
    const std::size_t n = rank_units[u].prepared.plans.size();
    if (n == 0) continue;
    // Rank trials are whole multi-rank executions: smaller chunks keep
    // the shared queue balanced against the cheaper scalar trials.
    const std::size_t chunk = fault::rank_campaign_chunk(n, pool->size());
    for (std::size_t b = 0; b < n; b += chunk) {
      chunks.push_back(TrialChunk{true, u, b, std::min(n, b + chunk)});
    }
  }
  if (!chunks.empty()) {
    pool->parallel_for(chunks.size(), [&](std::size_t c) {
      const auto& [is_rank, u, begin, end] = chunks[c];
      if (is_rank) {
        const auto& unit = rank_units[u];
        auto& rc = rank_counts[u];
        std::call_once(rc.once, [&] {
          rc.snapshots =
              fault::prepare_rank_snapshots(*unit.program, unit.prepared);
          rc.snapshots_taken = rc.snapshots.snapshots_taken;
        });
        for (std::size_t pos = begin; pos < end; ++pos) {
          std::uint64_t instr = 0, prefix = 0;
          const auto trial = fault::run_rank_trial(
              *unit.program, unit.prepared, rc.snapshots, pos,
              unit.session->app().verifier, &instr, &prefix);
          rc.acc.add(trial,
                     static_cast<std::size_t>(unit.prepared.plan_rank[pos]),
                     instr, prefix);
        }
        const std::size_t left =
            rc.remaining.fetch_sub(end - begin) - (end - begin);
        if (left == 0) rc.snapshots = fault::RankSnapshots{};
        if (progress) emit_rank(u, left);
        return;
      }
      const auto& unit = units[u];
      auto& rt = runtimes[u];
      std::call_once(rt.once, [&] {
        rt.snapshots =
            fault::prepare_snapshots(*unit.program, unit.prepared);
        rt.order = fault::fork_schedule(unit.prepared);
        rt.snapshots_taken = rt.snapshots.waypoints.size();
        rt.resume_depth = rt.snapshots.resume_depth;
      });
      fault::TrialRunner runner(*unit.program, unit.prepared, rt.snapshots,
                                unit.golden->outputs,
                                unit.session->app().verifier);
      for (std::size_t pos = begin; pos < end; ++pos) {
        const std::size_t i = rt.order.empty() ? pos : rt.order[pos];
        fault::TrialAccounting acct;
        switch (runner.run(i, &acct)) {
          case fault::Outcome::VerificationSuccess:
            counts[u].success.fetch_add(1);
            break;
          case fault::Outcome::VerificationFailed:
            counts[u].failed.fetch_add(1);
            break;
          case fault::Outcome::Crashed:
            counts[u].crashed.fetch_add(1);
            break;
          case fault::Outcome::DetectedRecovered:
            counts[u].detected_recovered.fetch_add(1);
            break;
          case fault::Outcome::DetectedUnrecoverable:
            counts[u].detected_unrecoverable.fetch_add(1);
            break;
        }
        counts[u].instructions.fetch_add(acct.instructions);
        counts[u].prefix_saved.fetch_add(acct.prefix_saved);
        counts[u].convergence_saved.fetch_add(acct.convergence_saved);
        if (acct.early_exit) counts[u].early_exits.fetch_add(1);
        if (acct.dead_delta) counts[u].dead_delta_exits.fetch_add(1);
      }
      // Last finisher of the unit releases its waypoint memory. The
      // seq_cst decrement also orders every finished chunk's count
      // updates before the left == 0 observation, so the final progress
      // snapshot carries the unit's exact outcome counts.
      const std::size_t left =
          rt.remaining.fetch_sub(end - begin) - (end - begin);
      if (left == 0) rt.snapshots = fault::CampaignSnapshots{};
      if (progress) emit_scalar(u, left);
    });
    report.pool_batches = 1;
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto result = unit_result(units[u], counts[u], runtimes[u]);
    fold_prefix_reuse(report, result);
    if (store && units[u].store_key != 0) {
      store->publish_campaign(units[u].store_key, result);
    }
    if (units[u].entry_index != ~std::size_t{0}) {
      report.entries[units[u].entry_index].campaign = result;
    } else {
      report.apps[units[u].app_index].whole_app = result;
    }
  }
  for (std::size_t u = 0; u < rank_units.size(); ++u) {
    const auto result = rank_counts[u].acc.result(
        rank_units[u].prepared, rank_counts[u].snapshots_taken);
    report.total_instructions += result.instructions_retired;
    report.instructions_saved += result.prefix_instructions_saved;
    report.snapshots_taken += result.snapshots_taken;
    report.apps[rank_units[u].app_index].rank_campaign = result;
  }
  if (store) {
    const auto c = store->counters();
    report.store_hits = c.hits - store_base.hits;
    report.store_misses = c.misses - store_base.misses;
    report.store_bytes_read = c.bytes_read - store_base.bytes_read;
    report.store_bytes_written = c.bytes_written - store_base.bytes_written;
  }
  report.campaign_ms = campaign_sw.millis();
  report.wall_ms = total.millis();
  return report;
}

// ---------------------------------------------------------------------------
// Campaign-guided hardening: campaign -> transform -> re-campaign.
// ---------------------------------------------------------------------------

HardenReport AnalysisRequest::harden(const harden::HardenConfig& config) const {
  return run_hardening(*this, config);
}

HardenReport run_hardening(const AnalysisRequest& request,
                           const harden::HardenConfig& config) {
  if (!request.region_campaign_) {
    throw std::invalid_argument(
        "run_hardening: the request must ask for success_rates — the "
        "baseline region campaign is what guides the pass");
  }
  HardenReport out;
  out.baseline = run_analysis(request);

  // Transform each application using its own baseline rows as the guide,
  // then re-run the same request against the hardened variants. The copy
  // keeps the pool, store, configs and region sweep; only the apps change.
  AnalysisRequest hardened_request = request;
  hardened_request.apps_.clear();
  for (const auto& ref : request.apps_) {
    apps::AppSpec spec = ref.session ? ref.session->app()
                         : ref.spec  ? *ref.spec
                                     : apps::build_app(ref.name);
    const std::string& app_name = ref.name;

    // Comm protection switches on when the rank taxonomy saw any fault
    // leave the injected rank (or the caller forced it via the config).
    bool escaping = false;
    if (const AppReport* ar = out.baseline.find_app(app_name)) {
      if (ar->rank_campaign) {
        escaping = ar->rank_campaign->absorbed_by_collective +
                       ar->rank_campaign->propagated +
                       ar->rank_campaign->corrupted_output >
                   0;
      }
    }

    std::vector<harden::RegionGuide> guides;
    for (const auto& e : out.baseline.entries) {
      if (e.app != app_name || !e.region_found) continue;
      if (e.target != fault::TargetClass::Internal) continue;
      guides.push_back(harden::RegionGuide{e.region_id,
                                           e.campaign.success_rate(),
                                           escaping});
    }

    harden::HardenResult hr =
        harden::harden_module(spec.module, config, guides);
    if (!hr.verify_errors.empty()) {
      std::string msg = "run_hardening: hardened module for '" + app_name +
                        "' failed ir::verify:";
      for (const auto& err : hr.verify_errors) msg += "\n  " + err;
      throw std::runtime_error(msg);
    }

    HardenedApp happ;
    happ.app = app_name;
    happ.spec = std::move(spec);  // regions/verifier/base carry over
    happ.spec.module = std::move(hr.module);
    // Registry specs may carry a display name that differs from the
    // registry key the baseline report is keyed by ("CG" vs "cg"); pin the
    // hardened spec to the baseline name so the joined reports line up.
    happ.spec.name = app_name;
    happ.pass_stats = std::move(hr.regions);
    happ.comm_sites = hr.comm_sites;
    happ.comm_guided = !config.protect_comm && escaping && hr.comm_sites > 0;
    out.apps.push_back(std::move(happ));
    // Same spec.name, so the joined reports line up row-for-row.
    hardened_request.apps_.push_back(
        AnalysisRequest::AppRef{app_name, out.apps.back().spec, nullptr});
  }

  out.hardened = run_analysis(hardened_request);

  // Join: one row per (protected region, baseline instance) pairing the
  // guiding success rate with the hardened re-campaign's coverage.
  for (auto& happ : out.apps) {
    for (const auto& e : out.baseline.entries) {
      if (e.app != happ.app || !e.region_found) continue;
      if (e.target != fault::TargetClass::Internal) continue;
      const harden::RegionStats* st = nullptr;
      for (const auto& s : happ.pass_stats) {
        if (s.region_id == e.region_id) { st = &s; break; }
      }
      if (!st) continue;  // region was above the threshold — not protected
      HardenRegionRow row;
      row.region_id = e.region_id;
      row.region_name = e.region_name;
      row.instance = e.instance;
      row.baseline_success_rate = e.campaign.success_rate();
      if (const AnalysisEntry* h = out.hardened.find(
              happ.app, e.region_name, fault::TargetClass::Internal,
              e.instance)) {
        row.hardened_success_rate = h->campaign.effective_success_rate();
        row.detection_rate = h->campaign.detection_rate();
      }
      row.dwc_sites = st->dwc_sites;
      row.abft_cells = st->abft_cells;
      row.original_instructions = st->original_instructions;
      row.added_instructions = st->added_instructions;
      happ.regions.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace ft::core
