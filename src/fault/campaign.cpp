#include "fault/campaign.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "fault/sampling.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ft::fault {

namespace {

/// sample_plans over a population of `total` bits (its internal_bits() or
/// input_bits(), by `target`).
std::vector<vm::FaultPlan> sample_population(const SitePopulation& pop,
                                             TargetClass target,
                                             std::uint64_t total,
                                             std::size_t trials,
                                             std::uint64_t seed) {
  std::vector<vm::FaultPlan> plans;
  if (total == 0) return plans;
  // Every offset is drawn in trial order before any is resolved, so the
  // plans are those of one draw-and-walk per trial.
  util::Rng rng(seed);
  std::vector<std::uint64_t> draws(trials);
  for (auto& u : draws) u = rng.below(total);
  plans.reserve(trials);
  if (target == TargetClass::Internal) {
    for (const auto& p : detail::pick_weighted(
             pop.internal, draws,
             [](const InternalSite& s) { return std::uint64_t{s.width_bits}; })) {
      if (p.site == p.kNoSite) continue;
      plans.push_back(plan_for_internal(pop.internal[p.site], p.bit));
    }
  } else {
    for (const auto& p : detail::pick_weighted(
             pop.input, draws, [](const InputSite& s) {
               return std::uint64_t{8} * s.width_bytes;
             })) {
      if (p.site == p.kNoSite) continue;
      plans.push_back(plan_for_input(pop, pop.input[p.site], p.bit));
    }
  }
  return plans;
}

}  // namespace

std::vector<vm::FaultPlan> sample_plans(const SiteEnumerationResult& sites,
                                        TargetClass target,
                                        std::size_t trials,
                                        std::uint64_t seed) {
  const auto& pop = sites.sites;
  return sample_population(
      pop, target,
      target == TargetClass::Internal ? pop.internal_bits() : pop.input_bits(),
      trials, seed);
}

std::uint64_t hang_budget(double budget_factor,
                          std::uint64_t fault_free_instructions) {
  const auto budget = static_cast<std::uint64_t>(
      budget_factor * static_cast<double>(fault_free_instructions));
  return std::max<std::uint64_t>(budget, 1024);
}

PreparedCampaign prepare_campaign(const SiteEnumerationResult& sites,
                                  TargetClass target,
                                  const vm::VmOptions& base,
                                  const CampaignConfig& config) {
  PreparedCampaign out;
  const auto& pop = sites.sites;
  out.population_bits =
      target == TargetClass::Internal ? pop.internal_bits() : pop.input_bits();
  if (out.population_bits == 0) return out;

  std::size_t trials = config.trials;
  if (trials == 0) {
    trials = util::fault_injection_sample_size(
        out.population_bits, config.confidence, config.margin);
  }
  out.plans =
      sample_population(pop, target, out.population_bits, trials, config.seed);

  out.run_opts = base;
  out.run_opts.observer = nullptr;
  out.run_opts.column_sink = nullptr;
  out.run_opts.max_instructions =
      hang_budget(config.budget_factor, sites.fault_free_instructions);

  // Fork bounds: the deepest fault-free prefix each trial can be forked at.
  out.fault_free_instructions = sites.fault_free_instructions;
  out.fork = config.fork;
  out.recovery = config.recovery;
  out.ladder = sites.ladder;
  out.fork_bounds.reserve(out.plans.size());
  for (const auto& plan : out.plans) {
    std::uint64_t bound = 0;
    if (plan.kind == vm::FaultPlan::Kind::ResultBit) {
      bound = plan.dyn_index;
    } else if (plan.kind == vm::FaultPlan::Kind::RegionInputMemoryBit &&
               sites.region_entry_index != SiteEnumerationResult::kNoEntry) {
      bound = sites.region_entry_index;
    }
    out.fork_bounds.push_back(bound);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot-forked trial execution (prefix reuse).
// ---------------------------------------------------------------------------

CampaignSnapshots prepare_snapshots(const vm::DecodedProgram& program,
                                    const PreparedCampaign& prepared) {
  CampaignSnapshots out;
  if (!prepared.fork.enabled ||
      prepared.fork_bounds.size() != prepared.plans.size() ||
      prepared.plans.empty() || prepared.fork.max_snapshots == 0) {
    return out;
  }

  // Candidate waypoints are the distinct fork bounds; thin them to the
  // policy's effective gap so snapshot count (and memory) stays bounded
  // while every trial still finds a waypoint close below its bound. The
  // byte budget lowers the cap for large memory images; it counts one full
  // image per snapshot, an upper bound since waypoints share unchanged
  // pages.
  std::size_t max_snapshots = detail::cap_snapshots_to_bytes(
      prepared.fork.max_snapshots, prepared.fork.max_snapshot_bytes,
      program.module().memory_size());
  // Waypoints seed golden cursors at chunk starts and anchor convergence
  // probes; the exact forking itself rides the cursor, so a modest number
  // scaled to the trial count is enough — each extra snapshot is a full
  // state copy up front.
  max_snapshots = std::min(
      max_snapshots, std::max<std::size_t>(8, prepared.plans.size() / 8));
  std::vector<std::uint64_t> bounds = prepared.fork_bounds;
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const std::uint64_t gap = std::max<std::uint64_t>(
      prepared.fork.min_gap,
      prepared.fault_free_instructions /
          static_cast<std::uint64_t>(max_snapshots));
  std::vector<std::uint64_t> indices;
  std::uint64_t last = 0;
  for (const auto b : bounds) {
    if (b < gap || b - last < gap) continue;
    if (indices.size() >= max_snapshots) break;
    indices.push_back(b);
    last = b;
  }

  // One serial golden pass places every snapshot: resume from the previous
  // waypoint, never from zero. The plan list was drawn against the golden
  // trace, so the machine must still be running at every waypoint; bail on
  // stale bounds rather than snapshotting a finished machine.
  vm::VmOptions opts = prepared.run_opts;
  opts.fault = vm::FaultPlan::none();
  vm::Vm golden(program, opts);
  out.waypoints.reserve(indices.size());
  for (const auto index : indices) {
    golden.run_until(index);
    if (golden.status() != vm::Vm::Status::Running ||
        golden.instructions_retired() != index) {
      break;
    }
    // Chained save: the waypoint shares every page the golden run left
    // unchanged since the previous one.
    const vm::Vm::Snapshot* prev =
        out.waypoints.empty() ? nullptr : &out.waypoints.back().state;
    vm::Vm::Snapshot state;
    golden.save(state, prev);
    out.waypoints.push_back({index, std::move(state)});
    out.resume_depth = index;
  }

  // Assign each trial the deepest waypoint at or before its fork bound.
  out.fork_waypoint.assign(prepared.plans.size(), 0);
  if (!out.waypoints.empty()) {
    std::vector<std::uint64_t> taken;
    taken.reserve(out.waypoints.size());
    for (const auto& w : out.waypoints) taken.push_back(w.index);
    for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
      const auto it = std::upper_bound(taken.begin(), taken.end(),
                                       prepared.fork_bounds[i]);
      out.fork_waypoint[i] =
          static_cast<std::uint32_t>(it - taken.begin());  // 0 = scratch
    }
  }
  return out;
}

bool rollback_reaches_clean_state(const RecoveryPolicy& recovery,
                                  std::uint64_t landing,
                                  std::uint64_t detect) {
  const std::uint64_t interval =
      std::max<std::uint64_t>(recovery.checkpoint_interval, 1);
  return detect / interval * interval <= landing;
}

namespace {

/// Fault landing index when no fork-bound table applies: a result-bit flip
/// lands when its dynamic instruction retires; everything else is pinned
/// to the start of the run (conservative — the checkpoint there is clean).
std::uint64_t plan_landing_index(const vm::FaultPlan& plan) {
  return plan.kind == vm::FaultPlan::Kind::ResultBit ? plan.dyn_index : 0;
}

/// The campaign's ladder when trials of `program` may probe on it: built
/// over the same program and the same golden run length.
const SectionLadder* probe_ladder(const vm::DecodedProgram& program,
                                  const PreparedCampaign& prepared) {
  const SectionLadder* ladder = prepared.ladder.get();
  return ladder && !ladder->empty() && ladder->program == &program &&
                 ladder->total_instructions ==
                     prepared.fault_free_instructions
             ? ladder
             : nullptr;
}

}  // namespace

bool TrialRunner::seek_cursor(std::uint64_t bound) {
  // Re-seed from the deepest waypoint at or before `bound` when the cursor
  // is absent or already past it (out-of-schedule bound).
  if (!cursor_ || cursor_->instructions_retired() > bound) {
    std::size_t w = 0;  // 1 + waypoint index to seed from
    for (std::size_t i = 0; i < snapshots_->waypoints.size(); ++i) {
      if (snapshots_->waypoints[i].index > bound) break;
      w = i + 1;
    }
    vm::VmOptions opts = prepared_->run_opts;
    opts.fault = vm::FaultPlan::none();
    opts.track_writes = true;
    if (cursor_) {
      if (w != 0) {
        cursor_->restore(snapshots_->waypoints[w - 1].state);
      } else {
        cursor_.emplace(*program_, opts);
      }
    } else if (w != 0) {
      cursor_.emplace(*program_, snapshots_->waypoints[w - 1].state, opts);
    } else {
      cursor_.emplace(*program_, opts);
    }
    synced_ = false;  // the trial machine no longer shares cursor history
  }
  if (cursor_->instructions_retired() < bound) {
    cursor_->run_until(bound);
  }
  return cursor_->status() == vm::Vm::Status::Running &&
         cursor_->instructions_retired() == bound;
}

Outcome TrialRunner::run(std::size_t plan_index, TrialAccounting* accounting,
                         bool last) {
  const vm::FaultPlan& plan = prepared_->plans[plan_index];
  const std::uint64_t bound =
      prepared_->fork_bounds.size() == prepared_->plans.size()
          ? prepared_->fork_bounds[plan_index]
          : 0;

  std::uint64_t fork_index = 0;
  if (prepared_->fork.enabled && seek_cursor(bound)) {
    if (last) {
      // No later trial needs the cursor: it becomes the trial machine. Its
      // options differ from a trial's only in the plan armed below. The
      // next run() re-seeds a cursor, which marks the machines unsynced.
      vm_ = std::move(cursor_);
      cursor_.reset();
    } else {
      // Exact fork: the trial machine becomes a copy of the cursor at the
      // plan's own bound — no prefix is ever re-executed by the trial.
      if (!vm_) {
        vm::VmOptions opts = prepared_->run_opts;
        opts.fault = plan;
        opts.track_writes = true;
        vm_.emplace(*program_, opts);
        synced_ = false;
      }
      vm_->fork_from(*cursor_, /*full=*/!synced_);
      synced_ = true;
    }
    vm_->set_fault(plan);
    fork_index = bound;
  } else {
    // Fallback (forking disabled or stale bounds): run from scratch.
    vm::VmOptions opts = prepared_->run_opts;
    opts.fault = plan;
    opts.track_writes = true;
    vm_.emplace(*program_, opts);
    synced_ = false;
  }
  vm::Vm& vm = *vm_;
  if (accounting) {
    *accounting = TrialAccounting{};
    accounting->prefix_saved = fork_index;
  }

  // Probes: pause at later ladder boundaries (campaign waypoints without a
  // ladder) and try the closure rules of fault/ladder.h. The fault_fired()
  // guard keeps armed-but-unfired plans (input faults whose region entry
  // lies past the probe) from closing before their flip ever lands. Probes
  // back off geometrically: most flips either die within a few sections
  // (the first probes catch them) or live in state that only a later phase
  // overwrites or never reads again, so the budgeted probes spread across
  // scales instead of burning out right after the injection.
  if (prepared_->fork.probe_convergence) {
    const SectionLadder* ladder = probe_ladder(*program_, *prepared_);
    // First probe point past the fork (fork_waypoint counts the waypoints
    // at or before the fork bound).
    const std::uint32_t fork_section =
        ladder ? ladder->section_of(fork_index) : 0;
    std::size_t p = ladder ? fork_section + 1
                    : snapshots_->fork_waypoint.empty()
                        ? 0
                        : snapshots_->fork_waypoint[plan_index];
    const std::size_t points =
        ladder ? ladder->sections.size() : snapshots_->waypoints.size();
    std::size_t failed_probes = 0;
    std::size_t stride = 1;
    while (p < points && failed_probes < prepared_->fork.max_probes) {
      vm.run_until(ladder ? ladder->sections[p].begin
                          : snapshots_->waypoints[p].index);
      if (vm.status() != vm::Vm::Status::Running) break;
      if (!vm.fault_fired()) {
        // Pre-flip probe: the state trivially equals golden; move on
        // without spending compare cost or probe budget.
        p += 1;
        continue;
      }
      Probe probe;
      if (ladder) {
        // Pages that may differ from the golden boundary: the trial's
        // writes since its fork plus the golden writes from the fork's
        // section up to the probe.
        const auto k = static_cast<std::uint32_t>(p);
        probe_pages(*ladder, vm.dirty_pages(), fork_section, k, probe_pages_);
        probe = probe_boundary(vm, *ladder, k, probe_pages_, *golden_,
                               *verify_, probe_mem_, probe_out_);
      } else if (vm.state_equals(snapshots_->waypoints[p].state)) {
        probe.kind = Probe::Kind::Converged;
      }
      if (probe.kind != Probe::Kind::Open) {
        if (accounting) {
          accounting->instructions = vm.instructions_retired() - fork_index;
          accounting->convergence_saved =
              prepared_->fault_free_instructions - vm.instructions_retired();
          accounting->early_exit = true;
          accounting->dead_delta = probe.kind == Probe::Kind::DeadDelta;
        }
        return probe.outcome;
      }
      failed_probes++;
      p += stride;
      stride *= 2;
    }
  }

  if (vm.status() == vm::Vm::Status::Running) {
    vm.run_until(~std::uint64_t{0});  // to completion, under the hang budget
  }
  const auto run = vm.take_result();
  if (accounting) accounting->instructions = run.instructions - fork_index;
  if (run.trap == vm::TrapKind::DetectedFault && prepared_->recovery.enabled) {
    return recover(plan_index, bound, run.instructions, accounting);
  }
  return classify_outcome(run, *golden_, *verify_);
}

Outcome TrialRunner::recover(std::size_t plan_index, std::uint64_t landing,
                             std::uint64_t detect,
                             TrialAccounting* accounting) {
  if (!rollback_reaches_clean_state(prepared_->recovery, landing, detect)) {
    return Outcome::DetectedUnrecoverable;
  }
  // Roll back to the deepest golden waypoint at or before the fault landing
  // and re-execute with the plan disarmed. The tail from a clean state is
  // the golden run itself, so a successful recovery finishes bit-identical
  // to golden — but we measure that rather than assume it: the rerun is
  // classified like any other trial.
  vm::RunResult rerun;
  const std::size_t w = snapshots_->fork_waypoint.empty()
                            ? 0
                            : snapshots_->fork_waypoint[plan_index];
  if (vm_ && w != 0) {
    const auto& waypoint = snapshots_->waypoints[w - 1];
    vm_->rollback(waypoint.state);
    synced_ = false;  // rollback rebuilt memory; cursor history is gone
    vm_->run_until(~std::uint64_t{0});
    rerun = vm_->take_result();
    if (accounting) {
      accounting->instructions += rerun.instructions - waypoint.index;
    }
  } else {
    vm::VmOptions opts = prepared_->run_opts;
    opts.fault = vm::FaultPlan::none();
    rerun = vm::Vm::run(*program_, opts);
    if (accounting) accounting->instructions += rerun.instructions;
  }
  return classify_outcome(rerun, *golden_, *verify_) ==
                 Outcome::VerificationSuccess
             ? Outcome::DetectedRecovered
             : Outcome::DetectedUnrecoverable;
}

std::vector<std::uint32_t> fork_schedule(const PreparedCampaign& prepared) {
  if (prepared.fork_bounds.size() != prepared.plans.size()) return {};
  std::vector<std::uint32_t> order(prepared.fork_bounds.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return prepared.fork_bounds[a] <
                            prepared.fork_bounds[b];
                   });
  return order;
}

void CampaignTally::add(Outcome outcome, const TrialAccounting& accounting) {
  switch (outcome) {
    case Outcome::VerificationSuccess: success_.fetch_add(1); break;
    case Outcome::VerificationFailed: failed_.fetch_add(1); break;
    case Outcome::Crashed: crashed_.fetch_add(1); break;
    case Outcome::DetectedRecovered: recovered_.fetch_add(1); break;
    case Outcome::DetectedUnrecoverable: unrecoverable_.fetch_add(1); break;
  }
  add(accounting);
}

void CampaignTally::add(const TrialAccounting& accounting) {
  instructions_.fetch_add(accounting.instructions);
  prefix_saved_.fetch_add(accounting.prefix_saved);
  convergence_saved_.fetch_add(accounting.convergence_saved);
  if (accounting.early_exit) early_exits_.fetch_add(1);
  if (accounting.dead_delta) dead_delta_exits_.fetch_add(1);
}

CampaignResult CampaignTally::result(const PreparedCampaign& prepared,
                                     std::uint64_t snapshots_taken,
                                     std::uint64_t resume_depth) const {
  CampaignResult r;
  r.trials = prepared.plans.size();
  r.population_bits = prepared.population_bits;
  r.success = success_.load();
  r.failed = failed_.load();
  r.crashed = crashed_.load();
  r.detected_recovered = recovered_.load();
  r.detected_unrecoverable = unrecoverable_.load();
  r.instructions_retired = instructions_.load();
  r.snapshots_taken = snapshots_taken;
  r.prefix_instructions_saved = prefix_saved_.load();
  r.convergence_instructions_saved = convergence_saved_.load();
  r.early_exits = early_exits_.load();
  r.dead_delta_exits = dead_delta_exits_.load();
  r.resume_depth = resume_depth;
  return r;
}

CampaignEngine::CampaignEngine(const vm::DecodedProgram& program,
                               const PreparedCampaign& prepared,
                               const std::vector<vm::OutputValue>& golden,
                               const Verifier& verify, std::size_t workers)
    : program_(program),
      prepared_(prepared),
      golden_(golden),
      verify_(verify),
      remaining_(prepared.plans.size()) {
  const std::size_t n = prepared.plans.size();
  const std::size_t share = n / (std::max<std::size_t>(workers, 1) * 8);
  chunk_ = std::clamp<std::size_t>(share, 1, 32);
  chunks_ = (n + chunk_ - 1) / chunk_;
}

std::size_t CampaignEngine::run_chunk(std::size_t c) {
  std::call_once(once_, [&] {
    snapshots_ = prepare_snapshots(program_, prepared_);
    order_ = fork_schedule(prepared_);
    snapshots_taken_ = snapshots_.waypoints.size();
    resume_depth_ = snapshots_.resume_depth;
  });
  TrialRunner runner(program_, prepared_, snapshots_, golden_, verify_);
  const std::size_t begin = c * chunk_;
  const std::size_t end = std::min(prepared_.plans.size(), begin + chunk_);
  for (std::size_t pos = begin; pos < end; ++pos) {
    TrialAccounting acct;
    const Outcome o = runner.run(order_.empty() ? pos : order_[pos], &acct,
                                 /*last=*/pos + 1 == end);
    tally_.add(o, acct);
  }
  // The last chunk to finish releases the waypoint memory. The seq_cst
  // decrement also orders every finished chunk's tally updates before the
  // left == 0 observation, so a caller seeing 0 reads final counts.
  const std::size_t left = remaining_.fetch_sub(end - begin) - (end - begin);
  if (left == 0) snapshots_ = CampaignSnapshots{};
  return left;
}

CampaignResult CampaignEngine::result() const {
  return tally_.result(prepared_, snapshots_taken_, resume_depth_);
}

namespace {

/// Shared trial/campaign bodies, parameterized over the executable form
/// (vm::DecodedProgram for the decoded engine, ir::Module for the legacy
/// baseline) — the two overload sets below instantiate them.
template <typename Executable>
Outcome run_trial_impl(const Executable& exe, const PreparedCampaign& prepared,
                       const vm::FaultPlan& plan, std::uint64_t landing,
                       const std::vector<vm::OutputValue>& golden,
                       const Verifier& verify, std::uint64_t* instructions) {
  vm::VmOptions opts = prepared.run_opts;
  opts.fault = plan;
  auto run = vm::Vm::run(exe, opts);
  if (instructions) *instructions = run.instructions;
  if (run.trap == vm::TrapKind::DetectedFault && prepared.recovery.enabled) {
    // Scratch-path recovery: same modeled-checkpoint verdict as the forked
    // runner, but the clean re-execution starts from zero (no snapshots
    // here). Outcomes match the forked path exactly — only cost differs.
    if (!rollback_reaches_clean_state(prepared.recovery, landing,
                                      run.instructions)) {
      return Outcome::DetectedUnrecoverable;
    }
    opts.fault = vm::FaultPlan::none();
    auto rerun = vm::Vm::run(exe, opts);
    if (instructions) *instructions += rerun.instructions;
    return classify_outcome(rerun, golden, verify) ==
                   Outcome::VerificationSuccess
               ? Outcome::DetectedRecovered
               : Outcome::DetectedUnrecoverable;
  }
  return classify_outcome(run, golden, verify);
}

template <typename Executable>
CampaignResult run_prepared_impl(const Executable& exe,
                                 const PreparedCampaign& prepared,
                                 const std::vector<vm::OutputValue>& golden,
                                 const Verifier& verify,
                                 util::Scheduler& pool) {
  CampaignTally tally;
  if (prepared.plans.empty()) return tally.result(prepared, 0, 0);

  const bool bounds =
      prepared.fork_bounds.size() == prepared.plans.size();
  pool.parallel_for(prepared.plans.size(), [&](std::size_t i) {
    TrialAccounting acct;
    const std::uint64_t landing = bounds
                                      ? prepared.fork_bounds[i]
                                      : plan_landing_index(prepared.plans[i]);
    const Outcome o = run_trial_impl(exe, prepared, prepared.plans[i], landing,
                                     golden, verify, &acct.instructions);
    tally.add(o, acct);
  });
  return tally.result(prepared, 0, 0);
}

}  // namespace

Outcome run_trial(const vm::DecodedProgram& program,
                  const PreparedCampaign& prepared, const vm::FaultPlan& plan,
                  const std::vector<vm::OutputValue>& golden,
                  const Verifier& verify, std::uint64_t* instructions) {
  return run_trial_impl(program, prepared, plan, plan_landing_index(plan),
                        golden, verify, instructions);
}

Outcome run_trial(const ir::Module& m, const PreparedCampaign& prepared,
                  const vm::FaultPlan& plan,
                  const std::vector<vm::OutputValue>& golden,
                  const Verifier& verify, std::uint64_t* instructions) {
  return run_trial_impl(m, prepared, plan, plan_landing_index(plan), golden,
                        verify, instructions);
}

CampaignResult run_prepared_campaign(const vm::DecodedProgram& program,
                                     const PreparedCampaign& prepared,
                                     const std::vector<vm::OutputValue>& golden,
                                     const Verifier& verify,
                                     util::Scheduler& pool) {
  if (!prepared.fork.enabled ||
      prepared.fork_bounds.size() != prepared.plans.size()) {
    return run_prepared_impl(program, prepared, golden, verify, pool);
  }
  CampaignEngine engine(program, prepared, golden, verify, pool.size());
  if (engine.chunks() > 0) {
    pool.parallel_for(engine.chunks(),
                      [&](std::size_t c) { engine.run_chunk(c); });
  }
  return engine.result();
}

CampaignResult run_prepared_campaign(const ir::Module& m,
                                     const PreparedCampaign& prepared,
                                     const std::vector<vm::OutputValue>& golden,
                                     const Verifier& verify,
                                     util::Scheduler& pool) {
  return run_prepared_impl(m, prepared, golden, verify, pool);
}

CampaignResult run_campaign(const ir::Module& m,
                            const SiteEnumerationResult& sites,
                            TargetClass target,
                            const std::vector<vm::OutputValue>& golden,
                            const Verifier& verify, const vm::VmOptions& base,
                            const CampaignConfig& config) {
  auto* pool = config.pool ? config.pool : &util::global_scheduler();
  return run_prepared_campaign(m, prepare_campaign(sites, target, base, config),
                               golden, verify, *pool);
}

}  // namespace ft::fault
