/// @file
/// The composable analysis API (Fig. 1 of the paper, as a library).
///
/// Three layers replace the old FlipTracker facade:
///
///  * AnalysisSession — owns one application's executable form and golden
///    artifacts (pre-decoded program, fault-free run, trace, region
///    instances, location events, per-region site enumerations and DDDGs)
///    behind thread-safe, explicitly invalidatable caches. The module is
///    decoded once (vm/decode.h) at construction and every run the session
///    performs — golden, traced, diffed, or campaign trial — executes the
///    decoded engine; campaigns share the immutable decoded program across
///    all pool workers. Sessions are cheap to construct from an
///    apps::AppSpec and safe to share across executor workers and across
///    concurrent requests (core/service.h); every accessor returns a
///    shared_ptr snapshot so invalidation never pulls data out from under a
///    concurrent reader.
///
///  * AnalysisRequest / AnalysisReport — a declarative request ("these apps,
///    these regions, these target classes, these analyses") executed by
///    run_analysis(), which schedules every region campaign of every
///    requested application as ONE batched work queue on a shared pool.
///    The old facade parallelized only within one region_campaign call, so
///    multi-region sweeps serialized between regions; here all trials of
///    all (app, region, target) units interleave and the report carries
///    timing/throughput metadata the bench harness serializes.
///
///  * vm::ObserverChain (src/vm/observer.h) — the observer-pipeline layer
///    the session builds its traced runs on.
///
/// The deprecated FlipTracker shim was removed after its one promised
/// release; see README.md ("Migrating from FlipTracker") for the mapping.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acl/diff.h"
#include "apps/app.h"
#include "compose/compose.h"
#include "dddg/graph.h"
#include "fault/campaign.h"
#include "fault/rank_campaign.h"
#include "fault/sites.h"
#include "harden/harden.h"
#include "ir/opcode.h"
#include "patterns/detect.h"
#include "patterns/rates.h"
#include "regions/io.h"
#include "store/lineage.h"
#include "trace/collector.h"
#include "trace/events.h"
#include "trace/segment.h"
#include "util/scheduler.h"

namespace ft::store {
class ArtifactStore;
}  // namespace ft::store

namespace ft::jit {
class JitProgram;
}  // namespace ft::jit

namespace ft::core {

// ---------------------------------------------------------------------------
// Layer 1: the per-application artifact cache.
// ---------------------------------------------------------------------------

class AnalysisSession {
 public:
  explicit AnalysisSession(apps::AppSpec app);

  [[nodiscard]] const apps::AppSpec& app() const noexcept { return app_; }

  /// The application's pre-decoded executable form (vm/decode.h), built
  /// once at session construction and shared immutably by every run the
  /// session performs — golden/traced runs, lockstep diffs, and all
  /// campaign trials on all pool workers. Campaign executors hold this
  /// alongside the golden snapshot so no per-trial decode happens anywhere.
  ///
  /// Lifetime: the decoded program refers into the session-owned module,
  /// so the snapshot is valid only while the session lives. Anything that
  /// keeps the program past a call must pin the session too, as
  /// run_analysis's campaign units do.
  [[nodiscard]] const std::shared_ptr<const vm::DecodedProgram>& program()
      const noexcept {
    return program_;
  }

  /// The native x64 program (jit/jit_program.h) compiled once at session
  /// construction, or null when the JIT is unsupported on this target or
  /// disabled via FT_VM_NO_JIT. When present it is already wired into the
  /// session's base VmOptions, so every untraced run the session performs
  /// — golden runs, campaign golden cursors, trial tails, convergence
  /// probes — executes natively, while traced/observed/counted runs keep
  /// the interpreter (the engine dispatch in Vm::run() arbitrates).
  [[nodiscard]] const jit::JitProgram* jit() const noexcept {
    return jit_.get();
  }

  // --- golden artifacts (lazy, cached, thread-safe) -------------------------
  /// Fault-free run (no tracing). Throws if the fault-free run traps.
  std::shared_ptr<const vm::RunResult> golden();
  /// Fault-free traced run on the columnar substrate (trace/column.h): the
  /// decoded engine emits records straight into the ColumnTrace, and every
  /// downstream golden artifact (region instances, location events, site
  /// enumerations, DDDGs, IO classification, pattern rates) reads it
  /// through TraceView spans. Costs ~20 bytes + 8 per recorded operand per
  /// dynamic instruction (vs 128 for a DynInstr vector); dropped with
  /// invalidate_trace().
  std::shared_ptr<const trace::ColumnTrace> golden_trace();
  std::shared_ptr<const std::vector<trace::RegionInstance>> region_instances();
  std::shared_ptr<const trace::LocationEvents> golden_events();
  /// Fault-free pattern rates of the whole program (Table IV features).
  std::shared_ptr<const patterns::PatternRates> pattern_rates();

  // --- derived per-region artifacts (lazy, cached, thread-safe) -------------
  /// Site enumeration of one region instance, computed from the cached
  /// golden trace (one traced run serves every region of the app).
  std::shared_ptr<const fault::SiteEnumerationResult> region_sites(
      std::uint32_t region_id, std::uint32_t instance);
  /// Internal sites over the whole run (Tables III/IV campaigns), read from
  /// the golden trace in one columnar pass. When the fault-free run traps
  /// the population is empty and region_found is false.
  std::shared_ptr<const fault::SiteEnumerationResult> whole_program_sites();
  /// DDDG of one region instance of the golden trace.
  std::shared_ptr<const dddg::Graph> region_dddg(std::uint32_t region_id,
                                                 std::uint32_t instance);
  /// Input/output/internal classification of one region instance.
  [[nodiscard]] std::optional<regions::RegionIo> region_io(
      std::uint32_t region_id, std::uint32_t instance);

  // --- persistent artifact store (optional) ---------------------------------
  /// Attach a content-addressed artifact store (store/artifact_store.h):
  /// golden runs, golden traces, site enumerations and campaign outcome
  /// counts are looked up in the store before computing and published after
  /// computing. A golden trace missing from the store is built
  /// edit-proportionally when the store holds a lineage root for the
  /// module's shape (store/lineage.h): the root's prefix is copied and
  /// only the rows from the first changed instruction on are traced.
  /// First attach wins (set-if-unset), and the session's stable
  /// content hashes are derived once on attach. A store hit is
  /// bit-identical to a compute by construction — pinned by
  /// tests/store_test.cpp — so attaching a store changes cost, never
  /// results.
  void attach_store(std::shared_ptr<store::ArtifactStore> s);
  [[nodiscard]] std::shared_ptr<store::ArtifactStore> store() const;
  /// Stable content hash of the laid-out module / of the base execution
  /// options (store/artifact_store.h key inputs); 0 until a store is
  /// attached.
  [[nodiscard]] std::uint64_t module_hash() const noexcept {
    return module_hash_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t options_hash() const noexcept {
    return options_hash_.load(std::memory_order_relaxed);
  }
  /// Dynamic instructions this session actually executed on traced golden
  /// runs (trace production). Serving those artifacts from the store does
  /// not grow it — the warm-path proof counter behind
  /// AnalysisReport::golden_traced_instructions. A trace spliced onto a
  /// lineage root's prefix (store/lineage.h) counts only its traced
  /// suffix: N - R for a run of N instructions whose first R rows were
  /// copied from the root.
  [[nodiscard]] std::uint64_t traced_instructions_executed() const noexcept {
    return traced_executed_.load(std::memory_order_relaxed);
  }

  /// The golden section ladder (fault/ladder.h): built once from the
  /// golden trace, when the session first derives a site population from
  /// it, and attached to every population the session hands out
  /// (SiteEnumerationResult::ladder), so campaigns probe on it. Null until
  /// then, and when the fault-free run traps.
  [[nodiscard]] std::shared_ptr<const fault::SectionLadder> ladder() const;

  // --- invalidation ---------------------------------------------------------
  /// Drop the bulk trace artifacts (trace, region instances, location
  /// events, pattern rates). Compact derived summaries (site enumerations,
  /// DDDGs, the section ladder) are kept: they are what campaigns consume
  /// after the trace is no longer needed. Concurrent readers holding
  /// snapshots are unaffected.
  void invalidate_trace();
  /// Drop every cached artifact, including the golden run and the compact
  /// derived summaries.
  void invalidate_all();

  // --- multi-rank golden artifacts (lazy, cached per world size) ------------
  /// Site population, per-rank golden outputs/communication logs and fork
  /// limits of one `nranks`-rank execution (fault/rank_campaign.h). Compact
  /// — the per-rank traces are dropped after enumeration — so it survives
  /// invalidate_trace() like the other campaign-feeding summaries; use
  /// fault::enumerate_rank_sites directly when the traces themselves are
  /// needed. A serial app is a valid target too: every rank then runs the
  /// full problem and the campaign measures replicated-execution resilience.
  std::shared_ptr<const fault::RankEnumeration> rank_enumeration(
      std::int64_t nranks);

  // --- campaigns ------------------------------------------------------------
  [[nodiscard]] fault::CampaignResult region_campaign(
      std::uint32_t region_id, std::uint32_t instance,
      fault::TargetClass target, const fault::CampaignConfig& config);
  /// Whole-application campaign (internal sites over the full run).
  [[nodiscard]] fault::CampaignResult app_campaign(
      const fault::CampaignConfig& config);
  /// Cross-rank campaign at config.nranks: inject into one rank per trial
  /// while all ranks run, classified with the cross-rank outcome taxonomy.
  [[nodiscard]] fault::RankCampaignResult rank_campaign(
      const fault::RankCampaignConfig& config);
  /// Whole-application campaign executed compositionally (src/compose/):
  /// the same site population and plans as app_campaign, but closed
  /// per-section — summaries loaded from the attached store when warm,
  /// outcomes composed symbolically where the delta allows. Counts are
  /// bit-identical to app_campaign(config) by construction; the
  /// ComposedResult proof counters show how much execution was avoided.
  [[nodiscard]] compose::ComposedResult run_compositional(
      const fault::CampaignConfig& config);

  // --- per-plan analyses (stateless; safe from any thread) ------------------
  // The faulty side runs under the campaign hang budget (see diff_options),
  // so a fault that loops forever classifies as a hang within
  // budget_factor x the golden run, exactly as its campaign trial does.
  /// Differential run under one fault plan: the lockstep faulty stream
  /// (columnar; read it through ColumnDiff::records()) with the matching
  /// clean values and both runs' outcomes. At most `max_records` rows are
  /// recorded (0 = no cap); the outcomes always cover the full runs.
  [[nodiscard]] acl::ColumnDiff column_diff_with(
      const vm::FaultPlan& plan, std::size_t max_records = 0) const;
  /// ACL series + pattern detection for one fault plan, over
  /// column_diff_with(plan, max_records).
  [[nodiscard]] patterns::PatternReport patterns_for(
      const vm::FaultPlan& plan, std::size_t max_records = 0) const;
  /// The same over a diff the caller already ran for `plan` (callers that
  /// also read the runs' outcomes run the lockstep diff once).
  [[nodiscard]] patterns::PatternReport patterns_for(
      const vm::FaultPlan& plan, const acl::ColumnDiff& diff) const;

 private:
  // All *_locked helpers assume mu_ is held and may compute + fill caches.
  const std::shared_ptr<const vm::RunResult>& golden_locked();
  /// Fill trace_ from the store or by one traced fault-free run. Returns
  /// false (trace_ stays null, `trapped_at` = the retired count) when that
  /// run traps.
  bool fill_trace_locked(std::uint64_t& trapped_at);
  /// The edit-proportional path of fill_trace_locked (store/lineage.h):
  /// copy `root`'s rows up to the first execution of a pc this module
  /// changed into `sink`, run the program untraced to that point and trace
  /// only the rest. Returns the run (`prefix_rows` = rows copied), or
  /// nullopt when the root cannot serve (counted store miss) or the
  /// machine does not stand where the root's row says — the caller then
  /// runs a full trace.
  std::optional<vm::RunResult> splice_locked(const store::LineageRoot& root,
                                             trace::ColumnTrace& sink,
                                             std::uint64_t& prefix_rows);
  /// trace_ after fill_trace_locked; throws when the fault-free run traps.
  const std::shared_ptr<const trace::ColumnTrace>& trace_locked();
  /// Options of a differential run under `plan`: the base options with the
  /// campaign hang budget (fault::hang_budget at the default
  /// CampaignConfig::budget_factor over the golden instruction count), and
  /// that count as the record reserve.
  [[nodiscard]] acl::DiffOptions diff_options(const vm::FaultPlan& plan,
                                              std::size_t max_records) const;
  const std::shared_ptr<const std::vector<trace::RegionInstance>>&
  instances_locked();
  const std::shared_ptr<const trace::LocationEvents>& events_locked();
  std::shared_ptr<const fault::SiteEnumerationResult> sites_locked(
      std::uint32_t region_id, std::uint32_t instance);
  /// Build ladder_ from the held trace if it is not built yet. Never runs a
  /// traced golden run of its own: without a held trace it leaves ladder_
  /// as it is. A full trace publishes its ladder facts to the store; a
  /// spliced one reuses its lineage root's (root_facts_locked).
  void ensure_ladder_locked();
  /// The section cap of the session's ladder.
  [[nodiscard]] std::size_t ladder_cap() const;
  /// The lineage root's ladder facts when the held trace was spliced onto
  /// the root and the store serves them (loaded once per trace); null
  /// otherwise, and on a counted store miss.
  const fault::LadderFacts* root_facts_locked();

  static std::uint64_t key(std::uint32_t region_id,
                           std::uint32_t instance) noexcept {
    return (std::uint64_t{region_id} << 32) | instance;
  }

  apps::AppSpec app_;
  // Immutable after construction (no lock needed): the decoded executable
  // and its native compilation (null when unavailable).
  std::shared_ptr<const vm::DecodedProgram> program_;
  std::shared_ptr<const jit::JitProgram> jit_;
  mutable std::mutex mu_;
  std::shared_ptr<store::ArtifactStore> store_;  // guarded by mu_
  std::atomic<std::uint64_t> module_hash_{0};    // set once on attach_store
  std::atomic<std::uint64_t> options_hash_{0};
  std::atomic<std::uint64_t> traced_executed_{0};
  std::shared_ptr<const vm::RunResult> golden_;
  std::shared_ptr<const trace::ColumnTrace> trace_;
  /// How trace_ was filled: a full trace (traced, or a full store segment)
  /// publishes its ladder facts; a spliced one keeps its lineage root's
  /// segment and the rows it shares with it (store/lineage.h).
  bool trace_full_ = false;
  std::optional<store::RootSegment> splice_root_;
  std::uint64_t splice_rows_ = 0;
  std::optional<fault::LadderFacts> root_facts_;
  bool root_facts_loaded_ = false;
  std::shared_ptr<const std::vector<trace::RegionInstance>> instances_;
  std::shared_ptr<const trace::LocationEvents> events_;
  std::shared_ptr<const patterns::PatternRates> rates_;
  std::shared_ptr<const fault::SiteEnumerationResult> whole_sites_;
  std::shared_ptr<const fault::SectionLadder> ladder_;
  std::unordered_map<std::int64_t,
                     std::shared_ptr<const fault::RankEnumeration>>
      rank_enums_;
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const fault::SiteEnumerationResult>>
      sites_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const dddg::Graph>>
      dddgs_;
};

// ---------------------------------------------------------------------------
// Layer 2: the declarative request / report model.
// ---------------------------------------------------------------------------

/// Which region-instance sweep a request covers (uniform across its apps).
enum class RegionScope : std::uint8_t {
  /// Every AppSpec::analysis_regions entry at one fixed instance (Fig. 5).
  AnalysisRegions,
  /// An explicit list of named regions, each with its own instance.
  NamedRegions,
  /// The main-loop region, one entry per iteration [0, main_iters) (Fig. 6).
  MainLoopIterations,
  /// No region sweep (whole-app analyses only, Table IV).
  None,
};

/// One (app, region instance, target class) result row.
struct AnalysisEntry {
  std::string app;
  std::uint32_t region_id = 0;
  std::string region_name;
  std::uint32_t instance = 0;
  fault::TargetClass target = fault::TargetClass::Internal;
  /// False when the region instance does not occur in the golden trace;
  /// such entries carry empty results.
  bool region_found = false;
  /// Filled when the request asked for success rates.
  fault::CampaignResult campaign;
  /// Filled when the request asked for region IO classification.
  std::optional<regions::RegionIo> io;
};

/// Per-opcode dynamic dispatch profile of one application's fault-free run
/// (VmOptions::count_opcodes) with the JIT coverage split layered on top:
/// which opcodes dominate retired instructions, and what share of them
/// executes natively vs deopts to the interpreter.
struct OpcodeProfile {
  /// Dispatch counts indexed by ir::Opcode; sums to golden_instructions on
  /// a clean run (every dispatched instruction retires).
  std::vector<std::uint64_t> counts;
  /// Retired instructions whose opcode has a native JIT template.
  std::uint64_t jit_compiled_dispatches = 0;
  /// Retired instructions whose opcode deopts (the MiniMPI ops).
  std::uint64_t jit_deopt_dispatches = 0;
  /// Static split of the decoded instruction stream: how many flat
  /// instructions compile to a native template vs a deopt exit.
  std::uint32_t jit_static_compiled = 0;
  std::uint32_t jit_static_deopt = 0;
  /// Opcodes ranked by retired-instruction share, descending; zero-count
  /// opcodes are omitted.
  [[nodiscard]] std::vector<std::pair<ir::Opcode, std::uint64_t>> ranked()
      const;
};

/// Per-application results that are not tied to one region.
struct AppReport {
  std::string app;
  std::uint64_t golden_instructions = 0;
  std::optional<patterns::PatternRates> rates;
  std::optional<fault::CampaignResult> whole_app;
  /// Filled when the request asked for a cross-rank campaign: the
  /// multi-rank outcome taxonomy at the requested world size.
  std::optional<fault::RankCampaignResult> rank_campaign;
  /// Filled when the request asked for an opcode profile.
  std::optional<OpcodeProfile> opcode_profile;
  /// Filled when the request asked for a compositional campaign: the
  /// composed whole-app outcome counts plus per-run proof counters.
  std::optional<compose::ComposedResult> compositional;
};

struct AnalysisReport {
  std::vector<AnalysisEntry> entries;
  std::vector<AppReport> apps;

  // --- scheduling / throughput metadata -------------------------------------
  double wall_ms = 0.0;      // end-to-end run_analysis time
  double campaign_ms = 0.0;  // time spent in the injection work queue
  std::size_t campaign_units = 0;  // (app, region, target) + app campaigns
  std::size_t total_trials = 0;    // injections across all units
  /// Dynamic instructions retired across all campaign trials (the decoded
  /// engine's throughput figure of merit; see bench/vm_engine_ab.cpp).
  std::uint64_t total_instructions = 0;
  // --- prefix-reuse rollup (snapshot-forked scheduler, all units) -----------
  /// Instructions trials did NOT execute: golden prefixes reused through
  /// snapshot forks plus tails cut by early convergence exits.
  std::uint64_t instructions_saved = 0;
  std::uint64_t snapshots_taken = 0;  // waypoint snapshots across all units
  std::uint64_t early_exits = 0;      // trials classified at a probe
  /// The early exits closed by the dead-delta rule (fault/ladder.h); the
  /// rest converged bit for bit.
  std::uint64_t dead_delta_exits = 0;
  /// Deepest golden resume point of any unit (the longest serial prefix the
  /// scheduler had to execute once).
  std::uint64_t max_resume_depth = 0;
  /// Injection work-queue dispatches (1 when any trial ran, else 0).
  /// Snapshot preparation is artifact prep and is not counted here.
  std::size_t pool_batches = 0;
  std::size_t pool_workers = 0;

  // --- artifact-store metadata (zero unless a store was attached) -----------
  /// Trials actually executed by this run: total_trials minus the trials of
  /// campaigns served verbatim from the store. A fully warm run reports 0.
  std::size_t trials_executed = 0;
  /// Campaign units whose outcome counts came from the store.
  std::size_t campaigns_from_store = 0;
  /// Dynamic instructions executed by traced golden runs during this
  /// request (trace production + whole-program enumeration); 0 when every
  /// golden artifact was served from the store.
  std::uint64_t golden_traced_instructions = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_bytes_read = 0;
  std::uint64_t store_bytes_written = 0;

  // --- compositional proof counters (zero unless requested) -----------------
  /// Rolled up across every app's ComposedResult: symbolic propagation
  /// steps, sections re-summarized by execution, section summaries served
  /// from the store, and trials classified with zero trial execution.
  /// After a one-function edit against a warm store, sections_reexecuted
  /// stays below the section total while trials_avoided stays positive —
  /// the observable form of the incremental claim (docs/campaign-lifecycle.md).
  std::uint64_t sections_composed = 0;
  std::uint64_t sections_reexecuted = 0;
  std::uint64_t summary_store_hits = 0;
  std::uint64_t trials_avoided = 0;

  [[nodiscard]] double trials_per_second() const noexcept {
    return campaign_ms > 0.0
               ? static_cast<double>(total_trials) / (campaign_ms / 1e3)
               : 0.0;
  }
  [[nodiscard]] double instructions_per_second() const noexcept {
    return campaign_ms > 0.0
               ? static_cast<double>(total_instructions) / (campaign_ms / 1e3)
               : 0.0;
  }

  [[nodiscard]] const AnalysisEntry* find(
      std::string_view app, std::string_view region_name,
      fault::TargetClass target, std::uint32_t instance = 0) const;
  [[nodiscard]] const AppReport* find_app(std::string_view app) const;
};

// ---------------------------------------------------------------------------
// Campaign-guided hardening (src/harden) wired end-to-end.
// ---------------------------------------------------------------------------

/// One protected region's before/after row: the baseline campaign that
/// guided the pass joined against the re-campaign of the hardened module.
struct HardenRegionRow {
  std::uint32_t region_id = 0;
  std::string region_name;
  std::uint32_t instance = 0;
  /// Measured resilience that selected this region for protection.
  double baseline_success_rate = 0.0;
  /// Hardened-module resilience counting detected-and-recovered trials as
  /// verified (CampaignResult::effective_success_rate).
  double hardened_success_rate = 0.0;
  /// Share of hardened-module trials a detector caught (recovered or not).
  double detection_rate = 0.0;
  std::size_t dwc_sites = 0;
  std::size_t abft_cells = 0;
  std::size_t original_instructions = 0;  // static, region body
  std::size_t added_instructions = 0;     // static, inserted by the pass
  /// Static instruction multiplier of the protected region (>= 1.0).
  [[nodiscard]] double overhead() const noexcept {
    return original_instructions == 0
               ? 1.0
               : 1.0 + static_cast<double>(added_instructions) /
                           static_cast<double>(original_instructions);
  }
};

/// One application's hardening outcome: the emitted variant plus the
/// coverage-vs-overhead rows of every protected region.
struct HardenedApp {
  std::string app;
  /// The hardened executable form (spec.name matches the original app, so
  /// the joined reports line up row-for-row).
  apps::AppSpec spec;
  /// Static accounting straight from the transform pass.
  std::vector<harden::RegionStats> pass_stats;
  std::size_t comm_sites = 0;  // DWC checks at MpiSend/MpiAllreduce feeds
  /// True when comm protection was turned on by the rank taxonomy (escaping
  /// faults observed) rather than by HardenConfig::protect_comm.
  bool comm_guided = false;
  std::vector<HardenRegionRow> regions;
};

/// Result of run_hardening: the guiding baseline report, the re-campaign of
/// the hardened variants, and the per-app join.
struct HardenReport {
  AnalysisReport baseline;
  AnalysisReport hardened;
  std::vector<HardenedApp> apps;
};

/// One executing campaign unit's aggregate counts at a chunk boundary —
/// what AnalysisRequest::on_progress streams while a batched run executes.
/// Counts are cumulative and monotone per unit; the snapshot with
/// `done == true` carries the unit's exact final counts (identical to the
/// matching report entry). Rank units stream trial progress only — their
/// cross-rank outcome taxonomy is aggregated in the final report.
struct UnitProgress {
  std::string app;
  /// True for whole-app campaign units (region fields are zero/empty).
  bool whole_app = false;
  /// True for cross-rank campaign units (outcome fields stay zero).
  bool rank = false;
  std::uint32_t region_id = 0;
  std::string region_name;
  std::uint32_t instance = 0;
  fault::TargetClass target = fault::TargetClass::Internal;
  std::size_t trials_total = 0;
  std::size_t trials_done = 0;
  // Scalar-unit outcome counts so far (CampaignResult field names).
  std::size_t success = 0;
  std::size_t failed = 0;
  std::size_t crashed = 0;
  std::size_t detected_recovered = 0;
  std::size_t detected_unrecoverable = 0;
  bool done = false;
};

/// Builder-style request. Example (Fig. 5 shape):
///
///   auto report = core::run_analysis(
///       core::AnalysisRequest()
///           .app("CG").app("MG")
///           .analysis_regions()
///           .target(fault::TargetClass::Internal)
///           .target(fault::TargetClass::Input)
///           .success_rates(cfg));
class AnalysisRequest {
 public:
  // --- applications ---------------------------------------------------------
  /// Add an application by registry name (built when the request runs).
  AnalysisRequest& app(std::string name);
  /// Add an explicit application spec (hardened variants, custom programs).
  AnalysisRequest& app(apps::AppSpec spec);
  /// Add a caller-owned session, sharing its cached golden artifacts.
  AnalysisRequest& session(std::shared_ptr<AnalysisSession> s);

  // --- region sweep (default: no region entries) ----------------------------
  AnalysisRequest& analysis_regions(std::uint32_t instance = 0);
  AnalysisRequest& region(std::string name, std::uint32_t instance = 0);
  AnalysisRequest& main_loop_iterations();

  // --- target classes (default: Internal only) ------------------------------
  AnalysisRequest& target(fault::TargetClass t);

  // --- analyses -------------------------------------------------------------
  /// Per-region fault-injection success rates with this campaign config.
  AnalysisRequest& success_rates(const fault::CampaignConfig& cfg);
  /// Whole-application campaign per app with this config.
  AnalysisRequest& app_campaign(const fault::CampaignConfig& cfg);
  /// Cross-rank campaign per app at cfg.nranks — the multi-rank entry of
  /// the request schema. Rank-campaign trials (one world each, all ranks
  /// running) batch onto the same shared pool as every scalar campaign:
  /// worlds are chunked across pool workers inside the ONE batched queue.
  AnalysisRequest& rank_campaign(const fault::RankCampaignConfig& cfg);
  /// Whole-application campaign per app executed compositionally
  /// (AnalysisSession::run_compositional): same counts as app_campaign with
  /// the same config, but closed per-section with store-served summaries —
  /// AppReport::compositional plus the report's proof-counter rollup.
  AnalysisRequest& compositional(const fault::CampaignConfig& cfg);
  /// Fault-free pattern rates per app (Table IV features).
  AnalysisRequest& pattern_rates();
  /// Per-opcode dynamic dispatch profile per app (one counted interpreter
  /// run under VmOptions::count_opcodes) with the JIT compiled-vs-deopt
  /// coverage split — AppReport::opcode_profile.
  AnalysisRequest& opcode_profile();
  /// Input/output/internal classification per region entry.
  AnalysisRequest& region_io();

  // --- persistent artifact store --------------------------------------------
  /// Run against the content-addressed artifact store rooted at `dir`
  /// (created if missing): golden runs/traces, site enumerations and
  /// campaign outcome counts are served from the store when present and
  /// published when computed. A second run of the same request against a
  /// populated store produces bit-identical results while executing zero
  /// campaign trials and zero golden traced instructions — the report's
  /// store counters prove it (docs/campaign-lifecycle.md).
  AnalysisRequest& store_dir(std::string dir);
  /// Share an already-open store across requests (wins over store_dir).
  AnalysisRequest& store(std::shared_ptr<store::ArtifactStore> s);

  // --- execution ------------------------------------------------------------
  /// Scheduler the batched work queue runs on. When unset, a pool named by
  /// the campaign configs is honored (two configs naming different pools is
  /// rejected); otherwise util::global_scheduler().
  AnalysisRequest& pool(util::Scheduler* p);
  /// Stream per-unit aggregate snapshots as campaign chunks complete. The
  /// callback is invoked under an internal mutex — one snapshot at a time —
  /// from whichever scheduler thread finished a chunk, so it must not
  /// re-enter run_analysis or block on the scheduler. Snapshots never affect
  /// results.
  AnalysisRequest& on_progress(std::function<void(const UnitProgress&)> fn);
  /// Keep golden traces of internally built sessions after artifact prep
  /// (default: dropped to bound memory, as the old reset_trace() flow did).
  AnalysisRequest& keep_traces(bool keep = true);

  // --- hardening ------------------------------------------------------------
  /// Convenience spelling of run_hardening(*this, config).
  [[nodiscard]] HardenReport harden(const harden::HardenConfig& config) const;

 private:
  friend AnalysisReport run_analysis(const AnalysisRequest& request);
  friend HardenReport run_hardening(const AnalysisRequest& request,
                                    const harden::HardenConfig& config);
  // The async front end (core/service.h) rewrites admitted requests in
  // place: registry-name apps resolve to shared sessions, the service store
  // and scheduler fill the unset seams.
  friend class CampaignService;

  struct AppRef {
    std::string name;                          // registry name, or
    std::optional<apps::AppSpec> spec;         // explicit spec, or
    std::shared_ptr<AnalysisSession> session;  // caller-owned session
  };
  std::vector<AppRef> apps_;
  RegionScope scope_ = RegionScope::None;
  std::uint32_t scope_instance_ = 0;
  std::vector<std::pair<std::string, std::uint32_t>> named_regions_;
  std::vector<fault::TargetClass> targets_;
  std::optional<fault::CampaignConfig> region_campaign_;
  std::optional<fault::CampaignConfig> app_campaign_;
  std::optional<fault::CampaignConfig> compositional_;
  std::optional<fault::RankCampaignConfig> rank_campaign_;
  bool want_pattern_rates_ = false;
  bool want_opcode_profile_ = false;
  bool want_region_io_ = false;
  std::string store_dir_;
  std::shared_ptr<store::ArtifactStore> store_;
  util::Scheduler* pool_ = nullptr;
  std::function<void(const UnitProgress&)> progress_;
  bool keep_traces_ = false;
};

/// Execute a request. Campaign results are deterministic in the request
/// (plans are drawn up-front per unit from CampaignConfig::seed) and
/// independent of pool size. Throws std::invalid_argument for unknown
/// app/region names and propagates golden-run failures.
[[nodiscard]] AnalysisReport run_analysis(const AnalysisRequest& request);

/// Campaign -> transform -> re-campaign in one call:
///
///   1. run_analysis(request) measures baseline per-region resilience (the
///      request must ask for success_rates; Internal-target entries guide
///      the pass) and, when a rank campaign was requested, the cross-rank
///      escape taxonomy;
///   2. each application is hardened by harden::harden_module with
///      RegionGuides built from its baseline rows — comm-boundary checks
///      switch on automatically for apps whose rank taxonomy saw escaping
///      faults (absorbed-by-collective / propagated / corrupted output);
///   3. the same request re-runs against the hardened variants on the same
///      batched pool, store and configs.
///
/// Both reports and the per-region coverage/overhead join are returned.
/// Campaign determinism carries over: both legs draw plans from the same
/// seeds, so the report is independent of pool size and fork policy.
/// Throws std::runtime_error if a hardened module fails ir::verify and
/// std::invalid_argument for requests without a success-rate campaign.
[[nodiscard]] HardenReport run_hardening(const AnalysisRequest& request,
                                         const harden::HardenConfig& config);

}  // namespace ft::core
