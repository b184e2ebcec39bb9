#include "fault/rank_campaign.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "fault/sampling.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ft::fault {

namespace {

/// Blocking MiniMPI ops: the rank-local fork limit. MpiRank/MpiSize are
/// pure local queries and do not bound the communication-free prefix.
constexpr bool is_blocking_comm(ir::Opcode op) noexcept {
  return op == ir::Opcode::MpiSend || op == ir::Opcode::MpiRecv ||
         op == ir::Opcode::MpiAllreduce || op == ir::Opcode::MpiBarrier;
}

}  // namespace

std::uint64_t RankEnumeration::population_bits() const {
  std::uint64_t n = 0;
  for (const auto& s : sites) n += s.width_bits;
  return n;
}

RankEnumeration enumerate_rank_sites(
    const std::shared_ptr<const vm::DecodedProgram>& program,
    std::int64_t nranks, const vm::VmOptions& base, bool keep_traces) {
  const auto n = static_cast<std::size_t>(nranks);

  // One traced golden pass: per-rank direct-emit columnar sinks plus
  // recording endpoints, all collected concurrently without cross-rank
  // synchronization (the paper's parallel-tracer shape).
  std::vector<trace::ColumnTrace> sinks;
  sinks.reserve(n);
  for (std::size_t r = 0; r < n; ++r) sinks.emplace_back(program);

  mpi::RankRunOptions opts;
  opts.base = base;
  opts.base.fault = vm::FaultPlan::none();
  opts.record_comm = true;
  for (auto& s : sinks) opts.sinks.push_back(&s);
  auto report = mpi::run_ranks(*program, nranks, opts);

  RankEnumeration out;
  out.nranks = nranks;
  out.fault_free_instructions.resize(n);
  out.golden_outputs.resize(n);
  out.first_comm_index.assign(n, RankEnumeration::kNoComm);
  out.golden_comm = std::move(report.comm);

  for (std::size_t r = 0; r < n; ++r) {
    if (report.ranks[r].trap != vm::TrapKind::None || report.aborted[r]) {
      throw std::runtime_error(
          "enumerate_rank_sites: fault-free rank " + std::to_string(r) +
          " did not complete (trap " +
          std::string(vm::trap_name(report.ranks[r].trap)) + ")");
    }
    out.fault_free_instructions[r] = report.ranks[r].instructions;
    out.golden_outputs[r] = std::move(report.ranks[r].outputs);

    const trace::ColumnTrace& tr = sinks[r];
    for (std::size_t row = 0; row < tr.size(); ++row) {
      if (is_blocking_comm(tr.opcode_at(row))) {
        out.first_comm_index[r] = row;
        break;
      }
    }
    for (const vm::DynInstr& rec : tr.view()) {
      if (rec.result_loc == vm::kNoLoc) continue;
      const ir::Type t =
          rec.op == ir::Opcode::Store ? rec.op_type[0] : rec.type;
      const auto width = bit_width(t);
      if (width == 0) continue;
      out.sites.push_back(
          RankSite{static_cast<std::int64_t>(r), rec.index, width});
    }
  }

  if (keep_traces) {
    out.golden_traces.reserve(n);
    for (auto& s : sinks) {
      out.golden_traces.push_back(
          std::make_shared<const trace::ColumnTrace>(std::move(s)));
    }
  }
  return out;
}

PreparedRankCampaign prepare_rank_campaign(const RankEnumeration& enumeration,
                                           const vm::VmOptions& base,
                                           const RankCampaignConfig& config) {
  PreparedRankCampaign out;
  out.nranks = enumeration.nranks;
  out.population_bits = enumeration.population_bits();
  out.fork = config.fork;
  out.golden_outputs = enumeration.golden_outputs;
  out.golden_comm = enumeration.golden_comm;

  out.run_opts = base;
  out.run_opts.observer = nullptr;
  out.run_opts.column_sink = nullptr;
  out.run_opts.fault = vm::FaultPlan::none();

  const auto n = static_cast<std::size_t>(enumeration.nranks);
  out.rank_budget.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    auto budget = static_cast<std::uint64_t>(
        config.budget_factor *
        static_cast<double>(enumeration.fault_free_instructions[r]));
    out.rank_budget[r] = std::max<std::uint64_t>(budget, 1024);
  }

  if (out.population_bits == 0) return out;
  std::size_t trials = config.trials;
  if (trials == 0) {
    trials = util::fault_injection_sample_size(
        out.population_bits, config.confidence, config.margin);
  }

  // Width-weighted sampling over the all-ranks site population, from one
  // seeded generator — the plan list is fixed before any trial runs.
  util::Rng rng(config.seed);
  std::vector<std::uint64_t> draws(trials);
  for (auto& u : draws) u = rng.below(out.population_bits);
  out.plans.reserve(trials);
  out.plan_rank.reserve(trials);
  out.fork_bounds.reserve(trials);
  for (const auto& p : detail::pick_weighted(
           enumeration.sites, draws,
           [](const RankSite& s) { return std::uint64_t{s.width_bits}; })) {
    if (p.site == p.kNoSite) continue;
    const RankSite& site = enumeration.sites[p.site];
    out.plans.push_back(vm::FaultPlan::result_bit(site.dyn_index, p.bit));
    out.plan_rank.push_back(site.rank);
    // Rank-local legality: fork at or before the flip's own index AND
    // before the rank's first blocking communication op.
    const auto first_comm =
        enumeration.first_comm_index[static_cast<std::size_t>(site.rank)];
    out.fork_bounds.push_back(std::min(site.dyn_index, first_comm));
  }
  return out;
}

RankSnapshots prepare_rank_snapshots(const vm::DecodedProgram& program,
                                     const PreparedRankCampaign& prepared) {
  RankSnapshots out;
  out.per_rank.resize(static_cast<std::size_t>(prepared.nranks));
  if (!prepared.fork.enabled || prepared.fork.max_snapshots == 0 ||
      prepared.plans.empty()) {
    return out;
  }

  // Waypoint budget: split max_snapshots (lowered by the byte budget, as in
  // prepare_snapshots — a snapshot is dominated by the memory image) evenly
  // across ranks.
  const std::size_t max_total = detail::cap_snapshots_to_bytes(
      prepared.fork.max_snapshots, prepared.fork.max_snapshot_bytes,
      program.module().memory_size());
  const std::size_t quota = std::max<std::size_t>(
      1, max_total / static_cast<std::size_t>(prepared.nranks));

  for (std::int64_t rank = 0; rank < prepared.nranks; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    std::vector<std::uint64_t> bounds;
    for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
      if (prepared.plan_rank[i] == rank && prepared.fork_bounds[i] > 0) {
        bounds.push_back(prepared.fork_bounds[i]);
      }
    }
    if (bounds.empty()) continue;
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    const std::uint64_t gap = std::max<std::uint64_t>(
        prepared.fork.min_gap,
        bounds.back() / static_cast<std::uint64_t>(quota));
    std::vector<std::uint64_t> indices;
    std::uint64_t last = 0;
    for (const auto b : bounds) {
      if (b < gap || b - last < gap) continue;
      if (indices.size() >= quota) break;
      indices.push_back(b);
      last = b;
    }
    if (indices.empty()) continue;

    // The communication-free prefix is peer-independent: execute it solo
    // (rank/size served by a FixedEndpoint, which throws if the prefix
    // were ever to communicate) and snapshot at each waypoint.
    mpi::FixedEndpoint fixed(rank, prepared.nranks);
    vm::VmOptions opts = prepared.run_opts;
    opts.mpi = &fixed;
    opts.max_instructions = prepared.rank_budget[r];
    vm::Vm vm(program, opts);
    for (const auto index : indices) {
      vm.run_until(index);
      if (vm.status() != vm::Vm::Status::Running ||
          vm.instructions_retired() != index) {
        break;
      }
      // Chained save: share the pages unchanged since the previous
      // waypoint of this rank.
      auto& waypoints = out.per_rank[r];
      const vm::Vm::Snapshot* prev =
          waypoints.empty() ? nullptr : &waypoints.back().state;
      vm::Vm::Snapshot state;
      vm.save(state, prev);
      waypoints.push_back({index, std::move(state)});
      out.snapshots_taken++;
    }
  }
  return out;
}

namespace {

RankTrialResult classify_rank_trial(const mpi::RankRunReport& report,
                                    const PreparedRankCampaign& prepared,
                                    std::int64_t injected,
                                    const Verifier& verify) {
  if (report.any_abnormal()) {
    return RankTrialResult{RankOutcome::TrapAnyRank, 0};
  }

  const auto n = static_cast<std::size_t>(prepared.nranks);
  std::uint32_t contaminated = 0;
  bool all_verify = true;
  for (std::size_t r = 0; r < n; ++r) {
    if (!verify(report.ranks[r].outputs, prepared.golden_outputs[r])) {
      all_verify = false;
    }
    if (static_cast<std::int64_t>(r) == injected) continue;
    // A peer is contaminated when its own produced state diverged bitwise:
    // final outputs, or anything it pushed back into the world.
    const bool diverged =
        report.ranks[r].outputs != prepared.golden_outputs[r] ||
        !report.comm[r].outbound_equals(prepared.golden_comm[r]);
    if (diverged) contaminated++;
  }

  if (!all_verify) {
    return RankTrialResult{RankOutcome::CorruptedOutput, contaminated};
  }
  if (contaminated > 0) {
    return RankTrialResult{RankOutcome::PropagatedToRanks, contaminated};
  }
  const auto inj = static_cast<std::size_t>(injected);
  const bool escaped =
      !report.comm[inj].outbound_equals(prepared.golden_comm[inj]);
  return RankTrialResult{escaped ? RankOutcome::AbsorbedByCollective
                                 : RankOutcome::MaskedLocally,
                         0};
}

}  // namespace

RankTrialResult run_rank_trial(const vm::DecodedProgram& program,
                               const PreparedRankCampaign& prepared,
                               const RankSnapshots& snapshots,
                               std::size_t plan_index, const Verifier& verify,
                               std::uint64_t* instructions,
                               std::uint64_t* prefix_saved) {
  const std::int64_t injected = prepared.plan_rank[plan_index];
  const auto inj = static_cast<std::size_t>(injected);

  mpi::RankRunOptions opts;
  opts.base = prepared.run_opts;
  opts.fault_rank = injected;
  opts.fault = prepared.plans[plan_index];
  opts.record_comm = true;
  opts.max_instructions = prepared.rank_budget;

  // Rank-local fork: deepest waypoint at or before this plan's bound.
  std::uint64_t forked_at = 0;
  if (prepared.fork.enabled && !snapshots.empty()) {
    const std::uint64_t bound = prepared.fork_bounds[plan_index];
    for (const auto& w : snapshots.per_rank[inj]) {
      if (w.index > bound) break;
      opts.fault_snapshot = &w.state;
      forked_at = w.index;
    }
  }

  const auto report = mpi::run_ranks(program, prepared.nranks, opts);
  if (instructions) {
    std::uint64_t total = 0;
    for (const auto& r : report.ranks) total += r.instructions;
    // The forked rank's retired count includes the prefix it never
    // re-executed (snapshots preserve the absolute counter) — but only
    // when its machine actually produced a result; an exception exit
    // (BadRank, world abort) leaves that rank's count at zero, and
    // subtracting the full prefix would underflow.
    *instructions = total - std::min(forked_at, report.ranks[inj].instructions);
  }
  if (prefix_saved) *prefix_saved = forked_at;
  return classify_rank_trial(report, prepared, injected, verify);
}

double RankCampaignResult::mean_propagation_depth() const noexcept {
  std::size_t trials_counted = 0, sum = 0;
  for (std::size_t k = 0; k < propagation_depth.size(); ++k) {
    trials_counted += propagation_depth[k];
    sum += k * propagation_depth[k];
  }
  return trials_counted == 0 ? 0.0
                             : static_cast<double>(sum) /
                                   static_cast<double>(trials_counted);
}

RankCampaignResult RankCampaignAccumulator::result(
    const PreparedRankCampaign& prepared,
    std::uint64_t snapshots_taken) const {
  RankCampaignResult r;
  r.nranks = prepared.nranks;
  r.trials = prepared.plans.size();
  r.population_bits = prepared.population_bits;
  r.masked_locally = masked_.load();
  r.absorbed_by_collective = absorbed_.load();
  r.propagated = propagated_.load();
  r.corrupted_output = corrupted_.load();
  r.trapped = trapped_.load();
  r.instructions_retired = instructions_.load();
  r.prefix_instructions_saved = prefix_saved_.load();
  r.snapshots_taken = snapshots_taken;
  const auto n = static_cast<std::size_t>(prepared.nranks);
  r.propagation_depth.resize(n);
  r.rank_trials.resize(n);
  r.rank_success.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    r.propagation_depth[k] = depth_[k].load();
    r.rank_trials[k] = rank_trials_[k].load();
    r.rank_success[k] = rank_success_[k].load();
  }
  return r;
}

RankCampaignEngine::RankCampaignEngine(const vm::DecodedProgram& program,
                                       const PreparedRankCampaign& prepared,
                                       const Verifier& verify,
                                       std::size_t workers)
    : program_(program),
      prepared_(prepared),
      verify_(verify),
      remaining_(prepared.plans.size()),
      acc_(static_cast<std::size_t>(prepared.nranks)) {
  const std::size_t n = prepared.plans.size();
  const std::size_t share = n / (std::max<std::size_t>(workers, 1) * 4);
  chunk_ = std::clamp<std::size_t>(share, 1, 8);
  chunks_ = (n + chunk_ - 1) / chunk_;
}

std::size_t RankCampaignEngine::run_chunk(std::size_t c) {
  std::call_once(once_, [&] {
    snapshots_ = prepare_rank_snapshots(program_, prepared_);
    snapshots_taken_ = snapshots_.snapshots_taken;
  });
  const std::size_t begin = c * chunk_;
  const std::size_t end = std::min(prepared_.plans.size(), begin + chunk_);
  for (std::size_t i = begin; i < end; ++i) {
    std::uint64_t instr = 0, prefix = 0;
    const auto trial = run_rank_trial(program_, prepared_, snapshots_, i,
                                      verify_, &instr, &prefix);
    acc_.add(trial, static_cast<std::size_t>(prepared_.plan_rank[i]), instr,
             prefix);
  }
  const std::size_t left = remaining_.fetch_sub(end - begin) - (end - begin);
  if (left == 0) snapshots_ = RankSnapshots{};
  return left;
}

RankCampaignResult RankCampaignEngine::result() const {
  return acc_.result(prepared_, snapshots_taken_);
}

RankCampaignResult run_rank_campaign(const vm::DecodedProgram& program,
                                     const PreparedRankCampaign& prepared,
                                     const Verifier& verify,
                                     util::Scheduler& pool) {
  RankCampaignEngine engine(program, prepared, verify, pool.size());
  if (engine.chunks() > 0) {
    pool.parallel_for(engine.chunks(),
                      [&](std::size_t c) { engine.run_chunk(c); });
  }
  return engine.result();
}

RankCampaignResult run_rank_campaign(
    const std::shared_ptr<const vm::DecodedProgram>& program,
    const vm::VmOptions& base, const Verifier& verify,
    const RankCampaignConfig& config) {
  const auto enumeration = enumerate_rank_sites(program, config.nranks, base,
                                                /*keep_traces=*/false);
  const auto prepared = prepare_rank_campaign(enumeration, base, config);
  auto* pool = config.pool ? config.pool : &util::global_scheduler();
  return run_rank_campaign(*program, prepared, verify, *pool);
}

}  // namespace ft::fault
