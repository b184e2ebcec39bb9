/// @file
/// Statistical fault-injection campaigns (§IV-C).
///
/// A campaign samples single-bit fault sites uniformly from a site
/// population (sites are (value, bit) pairs, so wider values weigh more),
/// runs one VM per injection — in parallel, each run independent — and
/// aggregates the success rate (Eq. 1). Trial counts default to Leveugle et
/// al.'s formula at the requested confidence/margin; the plan list is drawn
/// up-front from one seeded generator, so results are independent of thread
/// scheduling.
///
/// Trial execution is snapshot-forked by default (docs/campaign-lifecycle.md):
/// every trial of a campaign shares the same fault-free prefix up to its
/// injection point, so the scheduler executes the golden prefix ONCE,
/// snapshots it at waypoints (vm::Vm::Snapshot), and forks each trial from
/// the nearest waypoint at or before its fork bound instead of replaying the
/// prefix from instruction zero.
///
/// A forked trial may also close early at a probe. When the campaign
/// carries the golden section ladder (fault/ladder.h, attached by
/// core::AnalysisSession through the site population), the trial probes at
/// the ladder boundaries past its fork point and applies the two closure
/// rules stated in fault/ladder.h: a state bit-equal to golden is
/// VerificationSuccess, and a control-equal state whose memory delta no
/// downstream section reads is classified from the golden outputs patched
/// by its output delta. A probe compares only the pages the trial wrote
/// since its fork plus the pages the golden run wrote between the fork and
/// the probe; every other page is equal by construction. Without a ladder
/// (a population served from a store with no golden trace at hand) the
/// same probe loop runs at the campaign's own waypoints with the bit-equal
/// rule only.
///
/// Why probes used to be rare: waypoints sit at the campaign's fork
/// bounds, and every bound of a region campaign lies inside one region
/// instance, so no probe point existed after the region and nearly every
/// trial ran its tail to the end. Ladder boundaries span the whole run.
///
/// Outcome counts are bit-identical to from-scratch execution by
/// construction — pinned by tests/snapshot_test.cpp and gated at campaign
/// scale by bench/campaign_fork_ab.cpp via scripts/bench_smoke.sh.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/ladder.h"
#include "fault/outcome.h"
#include "fault/sites.h"
#include "util/scheduler.h"

namespace ft::fault {

/// Prefix-reuse policy of the snapshot-forked trial scheduler.
struct ForkPolicy {
  /// Fork trials from golden-prefix snapshots (the default). Disable for a
  /// from-scratch A/B reference — outcome counts never change, only cost.
  bool enabled = true;
  /// Upper bound on waypoint snapshots per campaign (each waypoint copies
  /// the machine state, sharing the memory pages unchanged since the
  /// previous waypoint).
  std::size_t max_snapshots = 128;
  /// Memory budget for one campaign's waypoints; lowers the effective
  /// snapshot cap for applications with large memory images. 0 = only
  /// max_snapshots bounds.
  std::size_t max_snapshot_bytes = std::size_t{96} << 20;
  /// Minimum retired-instruction gap between consecutive waypoints. The
  /// effective gap is max(min_gap, fault_free_instructions/max_snapshots).
  std::uint64_t min_gap = 2048;
  /// Probe later ladder boundaries (or waypoints, without a ladder) and
  /// close the trial early when a closure rule of fault/ladder.h applies.
  bool probe_convergence = true;
  /// Failed-probe budget per trial. Probes back off geometrically from the
  /// fork point (next probe point, then 2, 4, ... points further), so the
  /// budget spreads across time scales; once it is spent the trial has
  /// almost certainly diverged for good (a live corrupted value keeps
  /// every later probe failing too) and runs out without further compares.
  std::size_t max_probes = 6;
};

/// Checkpoint/rollback recovery policy for programs carrying hardening
/// detectors (src/harden/). When a trial traps with
/// vm::TrapKind::DetectedFault the driver rolls the machine back to the
/// last clean checkpoint and re-executes with the (transient) fault
/// disarmed. The checkpoint model is a fixed cadence over retired
/// instructions: recovery succeeds iff no checkpoint falls between the
/// fault's landing point and the detection — a checkpoint taken in between
/// captured the corrupted state, and re-executing from it would
/// deterministically re-fire the detector (DetectedUnrecoverable).
///
/// Both fields are SEMANTIC campaign inputs (they change outcome counts)
/// and therefore hash into the store's campaign key, unlike the pure
/// scheduling knobs in ForkPolicy. Outcomes stay independent of pool size,
/// batched vs per-region dispatch and fork on/off: the landing and
/// detection indices are properties of the deterministic execution, not of
/// the scheduler.
struct RecoveryPolicy {
  /// Roll back + re-execute on DetectedFault. Programs without detectors
  /// never take this path, so the default costs nothing.
  bool enabled = true;
  /// Modeled checkpoint cadence in retired instructions. Smaller intervals
  /// model an aggressive checkpointer (more corrupted-checkpoint captures
  /// for long-latency detectors); larger ones approximate
  /// checkpoint-at-region-boundaries.
  std::uint64_t checkpoint_interval = 4096;
};

struct CampaignConfig {
  /// Number of injection trials; 0 derives it from the site population via
  /// fault_injection_sample_size(confidence, margin).
  std::size_t trials = 0;
  double confidence = 0.95;
  double margin = 0.03;
  std::uint64_t seed = 0xF11Dull;
  /// Hang budget: faulty runs may retire at most this multiple of the
  /// fault-free instruction count before classifying as Crashed(hang).
  double budget_factor = 8.0;
  util::Scheduler* pool = nullptr;  // nullptr = util::global_scheduler()
  /// Snapshot-forked trial execution (copied into the prepared campaign).
  ForkPolicy fork{};
  /// Checkpoint/rollback recovery (copied into the prepared campaign).
  RecoveryPolicy recovery{};
};

struct CampaignResult {
  std::size_t trials = 0;
  std::size_t success = 0;
  std::size_t failed = 0;
  std::size_t crashed = 0;
  /// Trials whose hardening detector fired and whose rollback re-execution
  /// finished with verified output (bit-identical to golden by
  /// construction — the re-execution replays the fault-free run).
  std::size_t detected_recovered = 0;
  /// Trials whose detector fired but could not be recovered (corrupted
  /// checkpoint, recovery disabled, or a failed re-execution).
  std::size_t detected_unrecoverable = 0;
  std::uint64_t population_bits = 0;  // sampled site population size
  /// Dynamic instructions retired across all trials (filled by
  /// run_prepared_campaign; the engine-throughput figure of merit). Under
  /// snapshot-forking this counts only instructions actually executed —
  /// skipped prefixes and early-exited tails are in the counters below.
  std::uint64_t instructions_retired = 0;

  // --- prefix-reuse accounting (zero when the from-scratch path ran) --------
  /// Waypoint snapshots the scheduler took along the golden prefix.
  std::uint64_t snapshots_taken = 0;
  /// Golden-prefix instructions trials did NOT re-execute (sum of fork
  /// indices across trials).
  std::uint64_t prefix_instructions_saved = 0;
  /// Instructions classified away by early state-convergence exits (the
  /// from-scratch trial would have executed them to reach the same
  /// verdict).
  std::uint64_t convergence_instructions_saved = 0;
  /// Trials classified at a probe instead of running out: bit-equal
  /// convergences plus dead-delta closures (converged_exits() +
  /// dead_delta_exits).
  std::uint64_t early_exits = 0;
  /// The early exits closed by the dead-delta rule (fault/ladder.h) rather
  /// than by bit equality. Not part of the stored campaign blob: a result
  /// served from the artifact store reports 0 here.
  std::uint64_t dead_delta_exits = 0;
  /// Deepest golden-prefix point the scheduler resumed to (the golden
  /// instructions it executed once, serially, to place the snapshots).
  std::uint64_t resume_depth = 0;

  /// Early exits closed by bit equality with the golden state.
  [[nodiscard]] std::uint64_t converged_exits() const noexcept {
    return early_exits - dead_delta_exits;
  }

  [[nodiscard]] double success_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(success) /
                             static_cast<double>(trials);
  }
  /// Verified-output share once recovery is in play: plain verification
  /// successes plus detected-and-recovered trials (which finish
  /// bit-identical to golden). The resilience figure hardened variants are
  /// compared on.
  [[nodiscard]] double effective_success_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(success + detected_recovered) /
                             static_cast<double>(trials);
  }
  /// Share of trials a hardening detector caught (either class). Zero for
  /// programs without detectors.
  [[nodiscard]] double detection_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(detected_recovered +
                                             detected_unrecoverable) /
                             static_cast<double>(trials);
  }
};

/// A campaign broken into its deterministic prelude: the up-front sampled
/// fault plans and the per-trial VM options (observer cleared, hang budget
/// applied). Trials are then independent — run them with run_trial() in any
/// order, on any pool, and the aggregated counts are schedule-invariant.
/// This is the unit the batched executor (core::run_analysis) concatenates
/// across regions and applications into one shared work queue.
struct PreparedCampaign {
  std::vector<vm::FaultPlan> plans;
  vm::VmOptions run_opts;
  std::uint64_t population_bits = 0;
  /// Per-plan fork bound (parallel to `plans`): the largest retired count a
  /// trial may be forked at so its execution from there is bit-identical to
  /// running from scratch. ResultBit plans fork at their dynamic index (the
  /// flip fires on the very next retired instruction); RegionInputMemoryBit
  /// plans fork at the target instance's RegionEnter index. Empty when the
  /// enumeration carried no fork information — trials then run from scratch.
  std::vector<std::uint64_t> fork_bounds;
  /// Retired count of the fault-free run (waypoint spacing + early-exit
  /// accounting).
  std::uint64_t fault_free_instructions = 0;
  /// Prefix-reuse policy, copied from CampaignConfig::fork.
  ForkPolicy fork{};
  /// Rollback recovery policy, copied from CampaignConfig::recovery.
  RecoveryPolicy recovery{};
  /// The golden section ladder trials probe on, copied from the site
  /// population (SiteEnumerationResult::ladder); null = probe at waypoints.
  std::shared_ptr<const SectionLadder> ladder;
};

/// Waypoint snapshots along ONE golden execution of a prepared campaign,
/// plus the per-plan assignment of each trial to its fork waypoint. Built
/// once per campaign by prepare_snapshots (a single serial pass over the
/// golden prefix up to the deepest fork bound) and then shared read-only by
/// every trial on every pool worker.
struct CampaignSnapshots {
  struct Waypoint {
    std::uint64_t index = 0;  // retired count the snapshot was taken at
    vm::Vm::Snapshot state;
  };
  std::vector<Waypoint> waypoints;  // strictly increasing by index
  /// Per plan: 1 + the waypoint the trial forks from, or 0 for from-scratch
  /// (no waypoint at or before the plan's fork bound).
  std::vector<std::uint32_t> fork_waypoint;
  /// Deepest golden point reached while placing waypoints.
  std::uint64_t resume_depth = 0;

  [[nodiscard]] bool empty() const noexcept { return waypoints.empty(); }
};

/// Execute the golden prefix once and snapshot it at the campaign's
/// waypoints (chosen from the sorted fork bounds, spaced by the policy's
/// effective gap, capped at max_snapshots). Returns an empty plan (all
/// trials from scratch) when forking is disabled or no bounds are known.
[[nodiscard]] CampaignSnapshots prepare_snapshots(
    const vm::DecodedProgram& program, const PreparedCampaign& prepared);

/// Per-trial prefix-reuse accounting filled by run_forked_trial.
struct TrialAccounting {
  std::uint64_t instructions = 0;       // actually executed by this trial
  std::uint64_t prefix_saved = 0;       // golden prefix skipped via the fork
  std::uint64_t convergence_saved = 0;  // tail skipped via early exit
  bool early_exit = false;
  bool dead_delta = false;  // the early exit was a dead-delta closure
};

/// Per-worker forked-trial executor. Each run() forks the trial machine at
/// EXACTLY its plan's fork bound — a golden-cursor Vm crawls the fault-free
/// prefix monotonically (resuming from where the previous trial left it,
/// never from zero; chunk starts seed it from the nearest waypoint
/// snapshot), and the trial machine becomes a copy of the cursor through a
/// dirty-page union sync (vm::Vm::fork_from) instead of a full memory-image
/// copy. The trial then runs with its plan armed, probing later ladder
/// boundaries (waypoints without a ladder) with the closure rules of
/// fault/ladder.h, and a closed trial is classified without executing its
/// tail. Outcomes are bit-identical to run_trial on the same plan.
///
/// Run trials in fork_schedule() order (ascending fork bound) to keep the
/// cursor monotonic; an out-of-order bound re-seeds the cursor from a
/// waypoint, which only costs time, never correctness. Keep one runner per
/// worker (it is not thread-safe); the referenced campaign, snapshots,
/// golden outputs and verifier must outlive it.
class TrialRunner {
 public:
  TrialRunner(const vm::DecodedProgram& program,
              const PreparedCampaign& prepared,
              const CampaignSnapshots& snapshots,
              const std::vector<vm::OutputValue>& golden,
              const Verifier& verify)
      : program_(&program),
        prepared_(&prepared),
        snapshots_(&snapshots),
        golden_(&golden),
        verify_(&verify) {}

  [[nodiscard]] Outcome run(std::size_t plan_index,
                            TrialAccounting* accounting = nullptr);

 private:
  /// Place the cursor at retired count `bound` on the fault-free prefix.
  /// Returns false when the golden run cannot reach `bound` still Running
  /// (stale bounds) — the caller then forks from scratch.
  bool seek_cursor(std::uint64_t bound);

  /// Checkpoint/rollback tail after a DetectedFault trap: decide
  /// recoverability against the modeled checkpoint cadence, then roll the
  /// trial machine back (Vm::rollback onto the deepest waypoint at or
  /// before the fault landing; fresh scratch run when forking is off) and
  /// re-execute clean. Returns DetectedRecovered iff the re-execution
  /// verifies against golden.
  Outcome recover(std::size_t plan_index, std::uint64_t landing,
                  std::uint64_t detect, TrialAccounting* accounting);

  const vm::DecodedProgram* program_;
  const PreparedCampaign* prepared_;
  const CampaignSnapshots* snapshots_;
  const std::vector<vm::OutputValue>* golden_;
  const Verifier* verify_;
  std::optional<vm::Vm> cursor_;  // golden prefix cursor (never faulted)
  std::optional<vm::Vm> vm_;      // reused trial machine
  bool synced_ = false;  // trial machine has fork_from'd this cursor before
  // Probe scratch, reused across trials: the page mask a ladder probe
  // compares and the delta it extracts.
  std::vector<std::uint64_t> probe_pages_;
  MemDelta probe_mem_;
  OutDelta probe_out_;
};

/// Plan execution order that maximizes TrialRunner reuse: trial indices
/// sorted by fork bound (stable), so a worker's golden cursor only ever
/// moves forward and consecutive trials sync through small dirty-page
/// unions. Identity order when the campaign carries no fork bounds.
/// Outcome counts never depend on the order.
[[nodiscard]] std::vector<std::uint32_t> fork_schedule(
    const PreparedCampaign& prepared);

/// One-shot convenience over TrialRunner (no Vm reuse across calls).
[[nodiscard]] Outcome run_forked_trial(
    const vm::DecodedProgram& program, const PreparedCampaign& prepared,
    const CampaignSnapshots& snapshots, std::size_t plan_index,
    const std::vector<vm::OutputValue>& golden, const Verifier& verify,
    TrialAccounting* accounting = nullptr);

/// Hang budget of a faulty run: `budget_factor` times the fault-free
/// retired count, and never fewer than 1024 instructions. A run that
/// retires this many instructions traps as TrapKind::Hang.
[[nodiscard]] std::uint64_t hang_budget(double budget_factor,
                                        std::uint64_t fault_free_instructions);

/// Sample the plans and fix the per-trial options for one campaign.
/// `config.trials == 0` derives the Leveugle sample size from the site
/// population as run_campaign does.
[[nodiscard]] PreparedCampaign prepare_campaign(
    const SiteEnumerationResult& sites, TargetClass target,
    const vm::VmOptions& base, const CampaignConfig& config);

/// Execute one prepared trial on the decoded engine and classify its
/// outcome. The program is decoded ONCE per application (by the caller —
/// core::AnalysisSession caches it) and shared immutably by every trial on
/// every pool worker; nothing is decoded or heap-allocated per frame in the
/// steady state. `instructions` (optional) receives the trial's retired
/// instruction count.
[[nodiscard]] Outcome run_trial(const vm::DecodedProgram& program,
                                const PreparedCampaign& prepared,
                                const vm::FaultPlan& plan,
                                const std::vector<vm::OutputValue>& golden,
                                const Verifier& verify,
                                std::uint64_t* instructions = nullptr);

/// Legacy-engine trial (tree-walking interpreter). Kept as the A/B baseline
/// the engine benchmarks compare against (bench/vm_engine_ab.cpp).
[[nodiscard]] Outcome run_trial(const ir::Module& m,
                                const PreparedCampaign& prepared,
                                const vm::FaultPlan& plan,
                                const std::vector<vm::OutputValue>& golden,
                                const Verifier& verify,
                                std::uint64_t* instructions = nullptr);

/// Execute every trial of one prepared campaign on `pool` (one blocking
/// parallel_for) and aggregate the counts. Decoded-engine form; runs the
/// snapshot-forked scheduler when the prepared campaign's ForkPolicy is
/// enabled and fork bounds are known (prepare_snapshots + run_forked_trial),
/// the from-scratch trial loop otherwise. Outcome counts are identical
/// either way; only cost and the prefix-reuse counters differ.
[[nodiscard]] CampaignResult run_prepared_campaign(
    const vm::DecodedProgram& program, const PreparedCampaign& prepared,
    const std::vector<vm::OutputValue>& golden, const Verifier& verify,
    util::Scheduler& pool);

/// Legacy-engine form (A/B baseline).
[[nodiscard]] CampaignResult run_prepared_campaign(
    const ir::Module& m, const PreparedCampaign& prepared,
    const std::vector<vm::OutputValue>& golden, const Verifier& verify,
    util::Scheduler& pool);

/// Modeled checkpoint/rollback verdict for a detector trap. The recovery
/// runtime checkpoints every RecoveryPolicy::checkpoint_interval retired
/// instructions; a rollback succeeds iff the last checkpoint at or before
/// the detection index was taken while the state was still clean (at or
/// before the fault landing). A later checkpoint captured corrupted state,
/// and restoring it deterministically re-fires the same detector, so those
/// trials classify DetectedUnrecoverable without re-running. Both indices
/// are properties of the deterministic execution — never of scheduling —
/// which keeps outcome counts identical across pool sizes, fork on/off,
/// and (src/compose/) composed vs exhaustive execution.
[[nodiscard]] bool rollback_reaches_clean_state(const RecoveryPolicy& recovery,
                                                std::uint64_t landing,
                                                std::uint64_t detect);

/// Run a campaign against one region instance's site population.
/// `golden` is the fault-free output (from a completed run with the same
/// `base` options); `verify` is the application's verification phase.
/// Equivalent to prepare_campaign + run_trial over every plan on one
/// parallel_for, on the legacy engine (one-shot convenience; decode-once
/// callers should prepare_campaign + run_prepared_campaign instead).
[[nodiscard]] CampaignResult run_campaign(
    const ir::Module& m, const SiteEnumerationResult& sites,
    TargetClass target, const std::vector<vm::OutputValue>& golden,
    const Verifier& verify, const vm::VmOptions& base,
    const CampaignConfig& config);

/// Draw the fault plans a campaign would execute (exposed for tests and for
/// analyses that re-run selected injections with tracing).
[[nodiscard]] std::vector<vm::FaultPlan> sample_plans(
    const SiteEnumerationResult& sites, TargetClass target,
    std::size_t trials, std::uint64_t seed);

}  // namespace ft::fault
