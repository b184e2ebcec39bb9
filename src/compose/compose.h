/// @file
/// Compositional fault-injection campaigns (FastFlip, PAPERS.md).
///
/// A whole-program campaign answers "what does this bit flip do?" by
/// executing every trial to completion. Compositionally, the same question
/// decomposes along the golden trace: cut the trace into SECTIONS at region
/// boundaries, measure each injected site only to its section's exit (the
/// boundary out-state delta), and then PROPAGATE that delta through the
/// downstream sections symbolically — a section that neither reads nor is
/// control-perturbed by the delta transports it unchanged (minus the blocks
/// it fully overwrites), so the trial's outcome follows from the golden run
/// plus a handful of set operations, with zero further execution. Only
/// deltas a downstream section actually consumes fall back to forked
/// execution of the affected suffix.
///
/// Why this is sound: the transport rule and its argument are stated once,
/// for this engine and the forked trial scheduler alike, in
/// fault/ladder.h. A site summary is only classed Delta when the faulty
/// machine is control-equal to the golden boundary snapshot; fault::
/// close_delta then walks the delta through the downstream sections of the
/// same golden ladder the forked scheduler probes on. Anything else (trap,
/// early exit, control divergence, oversized delta, a store-served delta
/// that does not fit the ladder) is re-executed exactly like an exhaustive
/// trial, so composed outcome counts are bit-identical to
/// fault::run_prepared_campaign by construction — pinned per app by
/// tests/compose_test.cpp and per fuzz seed by tests/engine_fuzz_test.cpp.
///
/// Summaries are content-addressed in store::ArtifactStore (one blob per
/// section, store/format.h BlobKind::Summary) keyed by the IR hash of the
/// section's probe WINDOW (store::hash_section over the static
/// instructions each windowed section executes — summarization may run
/// reconvergence probes up to ForkPolicy::max_probes sections forward, so
/// the key covers every instruction the summarizer's golden path could
/// have executed), its entry-state hash, its plan population and the
/// campaign's semantic config. The footprint is per-INSTRUCTION, not
/// per-function — the mini-apps are one big function, so a function-level
/// hash would invalidate everything on any edit. Editing an instruction
/// therefore invalidates only the sections whose window executes it —
/// every section safely upstream still hits (its entry snapshot and
/// windowed code are untouched), which is what turns "re-survey after a
/// one-function edit" from O(whole program) into O(diff). The proof
/// counters in ComposedResult make the claim observable;
/// bench/compose_ab.cpp gates it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/campaign.h"
#include "fault/ladder.h"
#include "fault/outcome.h"
#include "trace/column.h"
#include "trace/segment.h"
#include "util/scheduler.h"
#include "vm/interp.h"

namespace ft::store {
class ArtifactStore;
}  // namespace ft::store

namespace ft::compose {

/// Golden facts of one section (fault/ladder.h).
using SectionInfo = fault::SectionInfo;

/// One section's per-site boundary summaries, parallel to the section's
/// assigned plan list. This is the unit the artifact store caches
/// (store::summary_key): it records boundary FACTS only — never a final
/// outcome — so a cached summary stays valid no matter how the program
/// downstream of its section is edited.
struct SiteSummary {
  enum class Kind : std::uint8_t {
    /// Machine state bit-identical to golden at section exit (fault fired):
    /// the remainder replays the golden run — VerificationSuccess with no
    /// further work.
    Masked = 0,
    /// Control-equal at section exit; only `mem` words and `out` output
    /// slots differ. Eligible for symbolic propagation.
    Delta = 1,
    /// Trapped, exited early, fault still pending at the section exit, or
    /// delta over the word cap — and reconvergence probing failed: the
    /// site is re-executed like an exhaustive trial (forked at its
    /// section entry).
    Diverged = 2,
    /// Control-diverged at the section exit but the machine re-equaled the
    /// golden state bit for bit (state_equals) at a later boundary inside
    /// the probe window (ForkPolicy::max_probes sections forward) — the
    /// same reconvergence that gives the forked scheduler its early exits.
    /// The remainder replays the golden run: VerificationSuccess with no
    /// further work. Because the summarization executed code PAST the
    /// section, the summary key hashes every section in the probe window
    /// (not just this one), so an edit anywhere the probe could have run
    /// invalidates the entry.
    Converged = 3,
  };
  Kind kind = Kind::Diverged;
  /// Differing 8-byte words at section exit: (8-aligned address, faulty
  /// bits). Absolute faulty values, so a fallback at any later boundary
  /// patches them verbatim (blocks that survive the walk were neither read
  /// nor written in between).
  fault::MemDelta mem;
  /// Differing emitted outputs at section exit: (output index, faulty
  /// bits). Outputs are append-only and never read back, so these always
  /// propagate symbolically.
  fault::OutDelta out;
};

struct SectionSummary {
  std::vector<SiteSummary> sites;  // parallel to the section's plan indices
};

/// The section decomposition of one prepared campaign: the golden section
/// ladder (fault/ladder.h; campaign-independent, shared) plus the per-plan
/// section assignment and the entry hashes its summary keys need. Built by
/// assign_sections (or plan_sections) and shared read-only by every worker
/// of run_composed_campaign.
struct SectionPlan {
  std::shared_ptr<const fault::SectionLadder> ladder;
  /// ladder->sections and ladder->snapshots (empty without a ladder):
  /// snapshots[i] is the golden machine state at sections[i].begin.
  std::span<const SectionInfo> sections;
  std::span<const vm::Vm::Snapshot> snapshots;
  /// Per section: content hash of its entry snapshot (compose::entry_hash),
  /// the boundary live-set component of its summary key. Digested for
  /// plan-bearing sections with a downstream boundary, 0 elsewhere. Any
  /// upstream edit that perturbs the state flowing into a section changes
  /// its hash and soundly invalidates the key.
  std::vector<std::uint64_t> entry_hashes;
  /// Per plan (parallel to PreparedCampaign::plans): the section whose span
  /// contains the plan's fork bound.
  std::vector<std::uint32_t> plan_section;
  /// Plan indices grouped by section, ascending within each group — the
  /// order SectionSummary::sites follows.
  std::vector<std::vector<std::uint32_t>> section_plans;
  std::uint64_t total_instructions = 0;  // golden retired count

  [[nodiscard]] bool empty() const noexcept { return sections.empty(); }
};

/// Assign every plan of `prepared` to the section of `ladder` containing
/// its fork bound and digest the entry hashes the summary keys need. An
/// empty plan (the campaign then runs exhaustively) when the ladder is
/// missing, empty or of another golden run length, or the campaign carries
/// no fork bounds.
[[nodiscard]] SectionPlan assign_sections(
    std::shared_ptr<const fault::SectionLadder> ladder,
    const fault::PreparedCampaign& prepared);

/// Build a ladder from the golden trace (fault::build_ladder, at most
/// `max_sections` sections, lowered by the prepared campaign's
/// ForkPolicy::max_snapshot_bytes budget for large memory images) and
/// assign the campaign to it. core::AnalysisSession::run_compositional
/// reuses the session's ladder instead.
[[nodiscard]] SectionPlan plan_sections(
    const vm::DecodedProgram& program, const trace::ColumnTrace& trace,
    std::span<const trace::RegionInstance> instances,
    const fault::PreparedCampaign& prepared,
    std::size_t max_sections = fault::kLadderSections);

/// Content hash of a boundary machine state as summary keys use it
/// (`ft.summary.entry.v2`): every control field of the snapshot plus one
/// FNV-1a digest per memory page, in page order.
[[nodiscard]] std::uint64_t entry_hash(const vm::Vm::Snapshot& s);

/// Store/keying context of a composed run. All fields optional: a null
/// store runs fully cold (summaries computed, nothing cached).
struct ComposeOptions {
  std::shared_ptr<store::ArtifactStore> store;
  /// Base-options hash (store::options_hash) mixed into every summary key.
  std::uint64_t options_hash = 0;
  /// Semantic campaign inputs mixed into every summary key (trials /
  /// confidence / margin / seed / budget / recovery — the same fields
  /// store::campaign_key hashes).
  fault::CampaignConfig config{};
  /// Sites whose boundary delta exceeds this many differing 8-byte words
  /// are classed Diverged instead of Delta.
  std::size_t max_delta_words = fault::kMaxDeltaWords;
};

/// Outcome counts plus the proof counters that make the compositional
/// claim observable (surfaced through core::AnalysisReport).
struct ComposedResult {
  fault::CampaignResult counts;
  std::size_t sections_total = 0;
  /// Sections whose summaries were computed by execution this run.
  std::size_t summaries_computed = 0;
  /// Sections whose summaries were served from the artifact store.
  std::size_t summary_store_hits = 0;
  /// Site x section symbolic propagation steps (delta transported through
  /// a downstream section with zero execution).
  std::uint64_t sections_composed = 0;
  /// Sections whose site population was re-summarized by execution this
  /// run (store misses, plus the final section — it has no downstream
  /// boundary and always executes). After a one-function edit against a
  /// warm store this stays < sections_total — the incremental claim
  /// ISSUE 9 gates.
  std::uint64_t sections_reexecuted = 0;
  /// Trials classified with ZERO trial execution: summary served from the
  /// store and outcome fully symbolic. A warm re-run reports most trials
  /// here; a cold run reports 0.
  std::uint64_t trials_avoided = 0;
  /// Wall-clock cost of the two phases (seconds) — pure cost counters,
  /// never semantic. `summarize_seconds` covers summary acquisition (store
  /// loads plus per-site boundary measurement): this is the phase a warm
  /// store collapses, and what bench/compose_ab.cpp's ≥5x incremental gate
  /// measures. `close_seconds` covers trial closure (symbolic transport
  /// plus the suffix re-executions an edit makes unavoidable — a trial
  /// whose suffix runs through edited code must re-execute for the counts
  /// to stay exact).
  double summarize_seconds = 0;
  double close_seconds = 0;
};

/// Execute one prepared campaign compositionally: per section, load or
/// compute its site summaries (parallel across sections); per site, close
/// the outcome symbolically or by forked suffix execution (parallel across
/// plans). Outcome counts are bit-identical to
/// fault::run_prepared_campaign(program, prepared, ...) by construction and
/// independent of pool size. `golden` / `verify` are the same fault-free
/// outputs and verifier an exhaustive campaign uses.
[[nodiscard]] ComposedResult run_composed_campaign(
    const vm::DecodedProgram& program, const fault::PreparedCampaign& prepared,
    const SectionPlan& plan, const std::vector<vm::OutputValue>& golden,
    const fault::Verifier& verify, util::Scheduler& pool,
    const ComposeOptions& opts = {});

/// Serialize / parse one section's summaries (the BlobKind::Summary payload;
/// format in docs/architecture.md). decode_summary returns false on any
/// truncation, trailing bytes or site-count mismatch — the store treats
/// that as a miss, never an error.
[[nodiscard]] std::string encode_summary(const SectionSummary& s);
[[nodiscard]] bool decode_summary(std::string_view payload,
                                  std::size_t expected_sites,
                                  SectionSummary& out);

}  // namespace ft::compose
