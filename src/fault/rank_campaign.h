/// @file
/// Cross-rank fault-injection campaigns.
///
/// The paper's experiments run on MPI applications (§IV-A) but inject into
/// one process at a time; Wu et al. show serial and parallel resilience
/// differ materially. This engine asks the multi-rank question directly:
/// enumerate fault sites over EVERY rank of one deterministic multi-rank
/// execution (RankSite = {rank, dyn_index, bit}), inject into one rank per
/// trial while all ranks run (one mpi::World per trial, worlds chunked
/// across pool workers), and classify each trial with a cross-rank outcome
/// taxonomy derived from per-rank golden diffs:
///
///   masked-locally          the error never left the injected rank: its
///                           outbound communication (and every peer) is
///                           bit-identical to golden and all ranks verify.
///   absorbed-by-collective  the injected rank pushed corrupted values into
///                           the communication layer (diverged sends or
///                           reduction contributions), but no peer's state
///                           diverged and verification passes everywhere —
///                           the collective (min/max selection, rounding,
///                           downstream masking) swallowed it.
///   propagated-to-k-ranks   k >= 1 peer ranks were contaminated (their
///                           outputs or outbound values diverge bitwise from
///                           golden) yet every rank still verifies — the
///                           cross-rank analog of natural resilience.
///   corrupted-output        no rank trapped, but some rank's verification
///                           fails against its golden outputs.
///   trap-any-rank           any rank trapped, hung, sent to a corrupted
///                           rank index, or was released by the world's
///                           deterministic deadlock abort.
///
/// Determinism: golden artifacts come from one traced multi-rank run on the
/// columnar substrate (per-rank ColumnTrace sinks + communication logs);
/// plans are drawn up-front from one seeded generator; each trial is an
/// independent world. Outcome counts are therefore independent of pool size
/// and of the ForkPolicy (pinned by tests/mpi_test.cpp and
/// tests/rank_campaign_test.cpp).
///
/// Snapshot forking is deliberately rank-local: a trial may fork the
/// INJECTED rank from a waypoint snapshot of its fault-free prefix, but
/// only where that is legal without replaying communication — at or before
/// the rank's first blocking communication op (a communication-free prefix
/// is independent of every peer, so a solo-executed snapshot of it is
/// bit-identical to the in-world prefix). All other ranks always run from
/// scratch. Counts are pinned identical with forking on and off.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/campaign.h"
#include "mpi/world.h"
#include "trace/column.h"

namespace ft::fault {

/// One rank-aware internal fault site: a (rank, dynamic instruction, bit)
/// triple over the values that rank's execution commits.
struct RankSite {
  std::int64_t rank = 0;
  std::uint64_t dyn_index = 0;
  std::uint32_t width_bits = 64;
};

/// Golden artifacts of one nranks-rank execution: the site population plus
/// everything trial classification diffs against (per-rank outputs and
/// communication logs) and the rank-local fork limits. Optionally keeps the
/// per-rank columnar traces (record-and-replay, site provenance).
struct RankEnumeration {
  static constexpr std::uint64_t kNoComm = ~std::uint64_t{0};

  std::int64_t nranks = 1;
  std::vector<RankSite> sites;
  /// Per rank: retired instructions of the golden run (hang budgets).
  std::vector<std::uint64_t> fault_free_instructions;
  /// Per rank: golden outputs (bitwise propagation diffs + verification).
  std::vector<std::vector<vm::OutputValue>> golden_outputs;
  /// Per rank: golden communication log (outbound divergence detection and
  /// solo record-and-replay).
  std::vector<mpi::CommLog> golden_comm;
  /// Per rank: dynamic index of the first blocking communication op
  /// (kNoComm when the rank never communicates). The rank-local fork limit.
  std::vector<std::uint64_t> first_comm_index;
  /// Per rank: the golden columnar trace (empty unless keep_traces).
  std::vector<std::shared_ptr<const trace::ColumnTrace>> golden_traces;

  [[nodiscard]] std::uint64_t population_bits() const;
};

/// Enumerate the internal site population of every rank with ONE traced
/// fault-free nranks-rank run (per-rank direct-emit ColumnTrace sinks,
/// recording endpoints). Throws if any golden rank traps. `keep_traces`
/// retains the per-rank ColumnTraces in the result; the compact artifacts
/// (sites, outputs, logs, fork limits) are always kept.
[[nodiscard]] RankEnumeration enumerate_rank_sites(
    const std::shared_ptr<const vm::DecodedProgram>& program,
    std::int64_t nranks, const vm::VmOptions& base, bool keep_traces = true);

/// Cross-rank outcome taxonomy (header comment above for the definitions).
enum class RankOutcome : std::uint8_t {
  MaskedLocally,
  AbsorbedByCollective,
  PropagatedToRanks,
  CorruptedOutput,
  TrapAnyRank,
};

[[nodiscard]] constexpr std::string_view rank_outcome_name(
    RankOutcome o) noexcept {
  switch (o) {
    case RankOutcome::MaskedLocally: return "masked-locally";
    case RankOutcome::AbsorbedByCollective: return "absorbed-by-collective";
    case RankOutcome::PropagatedToRanks: return "propagated-to-k-ranks";
    case RankOutcome::CorruptedOutput: return "corrupted-output";
    case RankOutcome::TrapAnyRank: return "trap-any-rank";
  }
  return "?";
}

struct RankCampaignConfig {
  /// World size of the campaign (golden run, site population and every
  /// trial). The request-schema knob core::AnalysisRequest::rank_campaign
  /// forwards.
  std::int64_t nranks = 4;
  /// Number of injection trials; 0 derives it from the site population via
  /// fault_injection_sample_size(confidence, margin).
  std::size_t trials = 0;
  double confidence = 0.95;
  double margin = 0.03;
  std::uint64_t seed = 0xF11Dull;
  /// Per-rank hang budget factor over that rank's golden retired count.
  double budget_factor = 8.0;
  util::Scheduler* pool = nullptr;  // nullptr = util::global_scheduler()
  /// Rank-local snapshot forking of the injected rank (never changes
  /// counts; see the header comment).
  ForkPolicy fork{};
};

/// One trial's classification.
struct RankTrialResult {
  RankOutcome outcome = RankOutcome::MaskedLocally;
  /// Peer ranks whose state diverged bitwise from golden (outputs or
  /// outbound communication). Meaningful for every non-trap outcome.
  std::uint32_t contaminated_ranks = 0;
};

/// The deterministic prelude of one cross-rank campaign: plans sampled
/// up-front (weighted by site width across ALL ranks), per-rank budgets and
/// golden reference data. Trials are independent — any order, any pool.
struct PreparedRankCampaign {
  std::int64_t nranks = 1;
  std::vector<std::int64_t> plan_rank;   // injected rank, parallel to plans
  std::vector<vm::FaultPlan> plans;
  /// Rank-local fork bound per plan: min(dyn_index, injected rank's first
  /// blocking comm op). 0 = from scratch.
  std::vector<std::uint64_t> fork_bounds;
  vm::VmOptions run_opts;
  std::vector<std::uint64_t> rank_budget;  // per-rank max_instructions
  std::uint64_t population_bits = 0;
  ForkPolicy fork{};
  // Golden reference (copied from the enumeration; compact).
  std::vector<std::vector<vm::OutputValue>> golden_outputs;
  std::vector<mpi::CommLog> golden_comm;
};

[[nodiscard]] PreparedRankCampaign prepare_rank_campaign(
    const RankEnumeration& enumeration, const vm::VmOptions& base,
    const RankCampaignConfig& config);

/// Rank-local waypoint snapshots: for each rank, snapshots of its
/// communication-free golden prefix (executed SOLO with a FixedEndpoint —
/// bit-identical to the in-world prefix by construction), placed at the
/// distinct fork bounds of that rank's trials, thinned by the policy's gap
/// and capped by max_snapshots across all ranks.
struct RankSnapshots {
  struct Waypoint {
    std::uint64_t index = 0;
    vm::Vm::Snapshot state;
  };
  std::vector<std::vector<Waypoint>> per_rank;  // ascending by index
  std::uint64_t snapshots_taken = 0;

  [[nodiscard]] bool empty() const noexcept { return snapshots_taken == 0; }
};

[[nodiscard]] RankSnapshots prepare_rank_snapshots(
    const vm::DecodedProgram& program, const PreparedRankCampaign& prepared);

/// Execute one trial (one fresh world) and classify it. `instructions`
/// (optional) receives the instructions retired across all ranks;
/// `prefix_saved` the golden-prefix instructions the injected rank did not
/// re-execute.
[[nodiscard]] RankTrialResult run_rank_trial(
    const vm::DecodedProgram& program, const PreparedRankCampaign& prepared,
    const RankSnapshots& snapshots, std::size_t plan_index,
    const Verifier& verify, std::uint64_t* instructions = nullptr,
    std::uint64_t* prefix_saved = nullptr);

struct RankCampaignResult {
  std::int64_t nranks = 1;
  std::size_t trials = 0;

  // --- the cross-rank taxonomy ----------------------------------------------
  std::size_t masked_locally = 0;
  std::size_t absorbed_by_collective = 0;
  std::size_t propagated = 0;
  std::size_t corrupted_output = 0;
  std::size_t trapped = 0;
  /// propagation_depth[k] = non-trapped trials that contaminated exactly k
  /// peer ranks (size nranks; k = 0 covers masked/absorbed and clean-peer
  /// corrupted-output trials).
  std::vector<std::size_t> propagation_depth;

  // --- per-injected-rank success rates (the per-rank SR figure) -------------
  std::vector<std::size_t> rank_trials;
  std::vector<std::size_t> rank_success;

  std::uint64_t population_bits = 0;
  std::uint64_t instructions_retired = 0;
  std::uint64_t prefix_instructions_saved = 0;
  std::uint64_t snapshots_taken = 0;

  /// Verification-success trials (Eq. 1 numerator): everything that is not
  /// a trap and not a corrupted output.
  [[nodiscard]] std::size_t success() const noexcept {
    return masked_locally + absorbed_by_collective + propagated;
  }
  [[nodiscard]] double success_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(success()) /
                             static_cast<double>(trials);
  }
  [[nodiscard]] double rank_success_rate(std::int64_t r) const noexcept {
    const auto i = static_cast<std::size_t>(r);
    return rank_trials[i] == 0 ? 0.0
                               : static_cast<double>(rank_success[i]) /
                                     static_cast<double>(rank_trials[i]);
  }
  /// Mean contaminated-peer count over non-trapped trials.
  [[nodiscard]] double mean_propagation_depth() const noexcept;
};

/// Thread-safe accumulator of the cross-rank taxonomy. The ONE place the
/// per-trial bookkeeping (outcome buckets, depth histogram, per-injected-
/// rank rollups, instruction counters) lives; RankCampaignEngine folds
/// every trial through it. Non-movable (atomics) — construct in place.
class RankCampaignAccumulator {
 public:
  explicit RankCampaignAccumulator(std::size_t nranks)
      : depth_(nranks), rank_trials_(nranks), rank_success_(nranks) {}

  /// Fold one classified trial (thread-safe, order-independent).
  void add(const RankTrialResult& trial, std::size_t injected_rank,
           std::uint64_t instructions, std::uint64_t prefix_saved) {
    rank_trials_[injected_rank].fetch_add(1);
    instructions_.fetch_add(instructions);
    prefix_saved_.fetch_add(prefix_saved);
    switch (trial.outcome) {
      case RankOutcome::MaskedLocally: masked_.fetch_add(1); break;
      case RankOutcome::AbsorbedByCollective: absorbed_.fetch_add(1); break;
      case RankOutcome::PropagatedToRanks: propagated_.fetch_add(1); break;
      case RankOutcome::CorruptedOutput: corrupted_.fetch_add(1); break;
      case RankOutcome::TrapAnyRank: trapped_.fetch_add(1); break;
    }
    if (trial.outcome != RankOutcome::TrapAnyRank) {
      depth_[trial.contaminated_ranks].fetch_add(1);
    }
    if (trial.outcome != RankOutcome::TrapAnyRank &&
        trial.outcome != RankOutcome::CorruptedOutput) {
      rank_success_[injected_rank].fetch_add(1);
    }
  }

  [[nodiscard]] RankCampaignResult result(
      const PreparedRankCampaign& prepared,
      std::uint64_t snapshots_taken) const;

 private:
  std::atomic<std::size_t> masked_{0}, absorbed_{0}, propagated_{0},
      corrupted_{0}, trapped_{0};
  std::vector<std::atomic<std::size_t>> depth_, rank_trials_, rank_success_;
  std::atomic<std::uint64_t> instructions_{0}, prefix_saved_{0};
};

/// The trial executor of one prepared cross-rank campaign, cut into chunks
/// a pool runs in any order — the rank counterpart of CampaignEngine.
/// Trials are whole multi-rank executions (one world, nranks VM threads),
/// so chunks stay small to keep a shared queue balanced: clamp(trials /
/// (workers * 4), 1, 8) consecutive trials in plan order (`workers` 0
/// counts as 1). The rank-local waypoint snapshots are placed lazily by the
/// first chunk that runs and freed by the last chunk to finish.
/// Non-movable; the referenced program, campaign and verifier must outlive
/// it.
class RankCampaignEngine {
 public:
  RankCampaignEngine(const vm::DecodedProgram& program,
                     const PreparedRankCampaign& prepared,
                     const Verifier& verify, std::size_t workers);

  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_; }
  /// Run chunk `c` (thread-safe; each chunk exactly once). Returns the
  /// campaign's trials not yet finished once this chunk's are counted.
  std::size_t run_chunk(std::size_t c);
  /// The taxonomy so far (final once a run_chunk returned 0).
  [[nodiscard]] RankCampaignResult result() const;

 private:
  const vm::DecodedProgram& program_;
  const PreparedRankCampaign& prepared_;
  const Verifier& verify_;
  std::size_t chunk_ = 1;
  std::size_t chunks_ = 0;
  std::once_flag once_;
  RankSnapshots snapshots_;  // built by the first chunk
  std::uint64_t snapshots_taken_ = 0;
  std::atomic<std::size_t> remaining_;
  RankCampaignAccumulator acc_;
};

/// Execute every trial of one prepared cross-rank campaign on `pool` (one
/// blocking parallel_for over a RankCampaignEngine's chunks) and aggregate
/// the taxonomy. Counts are independent of pool size, chunking, and
/// ForkPolicy.
[[nodiscard]] RankCampaignResult run_rank_campaign(
    const vm::DecodedProgram& program, const PreparedRankCampaign& prepared,
    const Verifier& verify, util::Scheduler& pool);

/// One-shot convenience: enumerate (traces dropped), prepare, run.
[[nodiscard]] RankCampaignResult run_rank_campaign(
    const std::shared_ptr<const vm::DecodedProgram>& program,
    const vm::VmOptions& base, const Verifier& verify,
    const RankCampaignConfig& config);

}  // namespace ft::fault
