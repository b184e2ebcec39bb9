#include "fault/campaign.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <type_traits>

#include "fault/sampling.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ft::fault {

using detail::pick_weighted;

std::vector<vm::FaultPlan> sample_plans(const SiteEnumerationResult& sites,
                                        TargetClass target,
                                        std::size_t trials,
                                        std::uint64_t seed) {
  std::vector<vm::FaultPlan> plans;
  plans.reserve(trials);
  util::Rng rng(seed);
  const auto& pop = sites.sites;

  if (target == TargetClass::Internal) {
    const std::uint64_t total = pop.internal_bits();
    if (total == 0) return plans;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto [site, bit] = pick_weighted(
          pop.internal, rng.below(total),
          [](const InternalSite& s) { return std::uint64_t{s.width_bits}; });
      if (site) plans.push_back(plan_for_internal(*site, bit));
    }
  } else {
    const std::uint64_t total = pop.input_bits();
    if (total == 0) return plans;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto [site, bit] = pick_weighted(
          pop.input, rng.below(total), [](const InputSite& s) {
            return std::uint64_t{8} * s.width_bytes;
          });
      if (site) plans.push_back(plan_for_input(pop, *site, bit));
    }
  }
  return plans;
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
  out.plans = sample_plans(sites, target, trials, config.seed);

  out.run_opts = base;
  out.run_opts.observer = nullptr;
  out.run_opts.column_sink = nullptr;
  out.run_opts.max_instructions =
      hang_budget(config.budget_factor, sites.fault_free_instructions);

  // Fork bounds: the deepest fault-free prefix each trial can be forked at.
  out.fault_free_instructions = sites.fault_free_instructions;
  out.fork = config.fork;
  out.recovery = config.recovery;
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

Outcome TrialRunner::run(std::size_t plan_index, TrialAccounting* accounting) {
  const vm::FaultPlan& plan = prepared_->plans[plan_index];
  const std::uint64_t bound =
      prepared_->fork_bounds.size() == prepared_->plans.size()
          ? prepared_->fork_bounds[plan_index]
          : 0;

  std::uint64_t fork_index = 0;
  if (prepared_->fork.enabled && seek_cursor(bound)) {
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

  // Convergence probes: pause at later waypoints and compare machine state
  // against the golden snapshot. Equality (with the fault already fired)
  // proves the remainder replays the golden run — classify Success without
  // executing the tail. The fault_fired() guard keeps armed-but-unfired
  // plans (input faults whose region entry lies past the probe) from
  // exiting before their flip ever lands. Probes back off geometrically:
  // most flips either die within a few waypoints (the first probes catch
  // them) or live in state that only a later phase overwrites, so the
  // budgeted probes spread across scales instead of burning out right
  // after the injection.
  if (prepared_->fork.probe_convergence) {
    std::size_t failed_probes = 0;
    std::size_t stride = 1;
    // First waypoint past the fork bound (fork_waypoint counts those at or
    // before it).
    std::size_t p = snapshots_->fork_waypoint.empty()
                        ? 0
                        : snapshots_->fork_waypoint[plan_index];
    while (p < snapshots_->waypoints.size() &&
           failed_probes < prepared_->fork.max_probes) {
      const auto& probe = snapshots_->waypoints[p];
      vm.run_until(probe.index);
      if (vm.status() != vm::Vm::Status::Running) break;
      if (!vm.fault_fired()) {
        // Pre-flip probe: the state trivially equals golden; move on
        // without spending compare cost or probe budget.
        p += 1;
        continue;
      }
      if (vm.state_equals(probe.state)) {
        if (accounting) {
          accounting->instructions = vm.instructions_retired() - fork_index;
          accounting->convergence_saved =
              prepared_->fault_free_instructions - vm.instructions_retired();
          accounting->early_exit = true;
        }
        return Outcome::VerificationSuccess;
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

Outcome run_forked_trial(const vm::DecodedProgram& program,
                         const PreparedCampaign& prepared,
                         const CampaignSnapshots& snapshots,
                         std::size_t plan_index,
                         const std::vector<vm::OutputValue>& golden,
                         const Verifier& verify, TrialAccounting* accounting) {
  TrialRunner runner(program, prepared, snapshots, golden, verify);
  return runner.run(plan_index, accounting);
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
  if constexpr (std::is_same_v<Executable, ir::Module>) {
    opts.program = nullptr;  // the module overloads are the legacy baseline
    opts.jit = nullptr;      // ... which never executes native code
  }
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
  CampaignResult out;
  out.population_bits = prepared.population_bits;
  out.trials = prepared.plans.size();
  if (prepared.plans.empty()) return out;

  const bool bounds =
      prepared.fork_bounds.size() == prepared.plans.size();
  std::atomic<std::size_t> success{0}, failed{0}, crashed{0};
  std::atomic<std::size_t> recovered{0}, unrecoverable{0};
  std::atomic<std::uint64_t> instructions{0};
  pool.parallel_for(prepared.plans.size(), [&](std::size_t i) {
    std::uint64_t n = 0;
    const std::uint64_t landing = bounds
                                      ? prepared.fork_bounds[i]
                                      : plan_landing_index(prepared.plans[i]);
    switch (run_trial_impl(exe, prepared, prepared.plans[i], landing, golden,
                           verify, &n)) {
      case Outcome::VerificationSuccess: success.fetch_add(1); break;
      case Outcome::VerificationFailed: failed.fetch_add(1); break;
      case Outcome::Crashed: crashed.fetch_add(1); break;
      case Outcome::DetectedRecovered: recovered.fetch_add(1); break;
      case Outcome::DetectedUnrecoverable: unrecoverable.fetch_add(1); break;
    }
    instructions.fetch_add(n);
  });

  out.success = success.load();
  out.failed = failed.load();
  out.crashed = crashed.load();
  out.detected_recovered = recovered.load();
  out.detected_unrecoverable = unrecoverable.load();
  out.instructions_retired = instructions.load();
  return out;
}

/// The snapshot-forked campaign body: one serial golden pass places the
/// waypoints, then every trial forks from its waypoint on the pool. Outcome
/// counts are bit-identical to run_prepared_impl on the same campaign.
CampaignResult run_prepared_forked(const vm::DecodedProgram& program,
                                   const PreparedCampaign& prepared,
                                   const std::vector<vm::OutputValue>& golden,
                                   const Verifier& verify,
                                   util::Scheduler& pool) {
  CampaignResult out;
  out.population_bits = prepared.population_bits;
  out.trials = prepared.plans.size();
  if (prepared.plans.empty()) return out;

  const auto snapshots = prepare_snapshots(program, prepared);
  out.snapshots_taken = snapshots.waypoints.size();
  out.resume_depth = snapshots.resume_depth;
  const auto order = fork_schedule(prepared);

  std::atomic<std::size_t> success{0}, failed{0}, crashed{0}, early{0};
  std::atomic<std::size_t> recovered{0}, unrecoverable{0};
  std::atomic<std::uint64_t> instructions{0}, prefix_saved{0}, conv_saved{0};
  // Chunked dispatch in fork_schedule order: each task owns one TrialRunner,
  // so consecutive trials on a worker reuse one machine and mostly fork from
  // the same waypoint (incremental restore). Counts accumulate atomically —
  // results are independent of chunking and order.
  const std::size_t n = prepared.plans.size();
  const std::size_t chunk = std::clamp<std::size_t>(n / (pool.size() * 8), 1, 32);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  pool.parallel_for(n_chunks, [&](std::size_t c) {
    TrialRunner runner(program, prepared, snapshots, golden, verify);
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    for (std::size_t pos = begin; pos < end; ++pos) {
      const std::size_t i = order.empty() ? pos : order[pos];
      TrialAccounting acct;
      switch (runner.run(i, &acct)) {
        case Outcome::VerificationSuccess: success.fetch_add(1); break;
        case Outcome::VerificationFailed: failed.fetch_add(1); break;
        case Outcome::Crashed: crashed.fetch_add(1); break;
        case Outcome::DetectedRecovered: recovered.fetch_add(1); break;
        case Outcome::DetectedUnrecoverable: unrecoverable.fetch_add(1); break;
      }
      instructions.fetch_add(acct.instructions);
      prefix_saved.fetch_add(acct.prefix_saved);
      conv_saved.fetch_add(acct.convergence_saved);
      if (acct.early_exit) early.fetch_add(1);
    }
  });

  out.success = success.load();
  out.failed = failed.load();
  out.crashed = crashed.load();
  out.detected_recovered = recovered.load();
  out.detected_unrecoverable = unrecoverable.load();
  out.instructions_retired = instructions.load();
  out.prefix_instructions_saved = prefix_saved.load();
  out.convergence_instructions_saved = conv_saved.load();
  out.early_exits = early.load();
  return out;
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
  if (prepared.fork.enabled &&
      prepared.fork_bounds.size() == prepared.plans.size()) {
    return run_prepared_forked(program, prepared, golden, verify, pool);
  }
  return run_prepared_impl(program, prepared, golden, verify, pool);
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
