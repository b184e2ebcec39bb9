#include "compose/compose.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "store/artifact_store.h"
#include "store/serial.h"
#include "util/hash.h"
#include "vm/decode.h"

namespace ft::compose {
namespace {

/// Whole-page FNV-1a digests, memoized per page object: a page shared by
/// many boundary snapshots of one plan is read once. Keys are the pages'
/// addresses, valid while the plan's snapshots hold them.
class PageDigests {
 public:
  [[nodiscard]] std::uint64_t operator()(const vm::Vm::Snapshot::Page& page) {
    auto [it, fresh] = memo_.try_emplace(&page, 0);
    if (fresh) it->second = util::hash_bytes(page.data(), page.size());
    return it->second;
  }

 private:
  std::unordered_map<const vm::Vm::Snapshot::Page*, std::uint64_t> memo_;
};

/// Stable content hash of one boundary machine state — the "boundary
/// live-set" component of a summary key. Everything execution depends on
/// is hashed field by field (never raw struct bytes), so the digest is
/// identical across processes and the key soundly invalidates when ANY
/// upstream edit perturbs the state that flows into the section. The memory
/// image enters as its page digests in page order.
[[nodiscard]] std::uint64_t hash_snapshot(const vm::Vm::Snapshot& s,
                                          PageDigests& digests) {
  util::Hash64 h("ft.summary.entry.v2");
  h.u64(s.mem_size);
  h.u64(s.pages.size());
  for (const auto& page : s.pages) h.u64(digests(*page));
  h.u64(s.frames.size());
  for (const auto& f : s.frames) {
    h.u32(f.func)
        .u64(f.activation)
        .u32(f.pc)
        .u32(f.reg_base)
        .u32(f.arg_base)
        .u32(f.arg_loc_base)
        .u32(f.nargs)
        .u64(f.saved_sp)
        .u32(f.ret_reg);
  }
  h.u64(s.slots.size());
  for (const auto v : s.slots) h.u64(v);
  h.u64(s.arg_locs.size());
  for (const auto l : s.arg_locs) h.u64(static_cast<std::uint64_t>(l));
  h.u64(s.outputs.size());
  for (const auto& o : s.outputs) {
    h.u64(o.bits).u32(static_cast<std::uint32_t>(o.type));
  }
  h.u64(s.region_counts.size());
  for (const auto c : s.region_counts) h.u32(c);
  h.u64(s.sp).u64(s.next_activation).u64(s.retired);
  h.f64(s.randlc.state());
  h.u32(static_cast<std::uint32_t>(s.trap));
  h.u32(static_cast<std::uint32_t>(s.status));
  return h.digest();
}

/// Hash of one section's assigned plan population (ascending plan order).
[[nodiscard]] std::uint64_t hash_plans(
    const std::vector<vm::FaultPlan>& plans,
    const std::vector<std::uint32_t>& indices) {
  util::Hash64 h("ft.summary.plans.v1");
  h.u64(indices.size());
  for (const auto i : indices) {
    const auto& p = plans[i];
    h.u32(static_cast<std::uint32_t>(p.kind))
        .u64(p.dyn_index)
        .u32(p.region_id)
        .u32(p.region_instance)
        .u64(p.address)
        .u32(p.width_bytes)
        .u32(p.bit);
  }
  return h.digest();
}

struct Tally {
  std::atomic<std::size_t> success{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> crashed{0};
  std::atomic<std::size_t> recovered{0};
  std::atomic<std::size_t> unrecoverable{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> early_exits{0};
  std::atomic<std::uint64_t> dead_delta_exits{0};
  std::atomic<std::uint64_t> composed{0};
  std::atomic<std::uint64_t> avoided{0};

  void count(fault::Outcome o) {
    switch (o) {
      case fault::Outcome::VerificationSuccess: success++; break;
      case fault::Outcome::VerificationFailed: failed++; break;
      case fault::Outcome::Crashed: crashed++; break;
      case fault::Outcome::DetectedRecovered: recovered++; break;
      case fault::Outcome::DetectedUnrecoverable: unrecoverable++; break;
    }
  }
};

/// Execute one trial suffix from a boundary snapshot: either a Diverged
/// site (fault plan armed, forked at its own section entry) or a Delta
/// fallback (no plan; the delta is patched into a copy of the boundary
/// state). Mirrors fault::TrialRunner::run tail semantics exactly — probes
/// with the ladder's closure rules at later boundaries, then run-out, then
/// the checkpoint/rollback recovery decision — so the outcome is
/// bit-identical to the exhaustive trial it replaces. Returns nullopt,
/// executing nothing, when the delta does not patch into the boundary
/// (fault::patch_snapshot).
[[nodiscard]] std::optional<fault::Outcome> run_suffix(
    const vm::DecodedProgram& program, const fault::PreparedCampaign& prepared,
    const SectionPlan& plan, std::uint32_t start, const vm::FaultPlan* armed,
    const fault::MemDelta* mem_patch, const fault::OutDelta* out_patch,
    std::uint64_t landing, const std::vector<vm::OutputValue>& golden,
    const fault::Verifier& verify, Tally& tally) {
  vm::VmOptions topts = prepared.run_opts;
  topts.fault = armed ? *armed : vm::FaultPlan::none();
  topts.track_writes = true;

  const fault::SectionLadder& ladder = *plan.ladder;
  // Pages where the machine may differ from golden at `start`: those the
  // patch writes (none for an armed fork).
  std::vector<std::uint64_t> entry_pages(
      plan.sections[start].written.size(), 0);
  std::optional<vm::Vm> vm;
  if (armed) {
    vm.emplace(program, plan.snapshots[start], topts);
  } else {
    // Sound because every surviving delta word was neither read nor
    // written between its section and `start`, and outputs are
    // append-only. The copy shares the boundary's pages; only the pages
    // the delta touches are copied.
    vm::Vm::Snapshot patched = plan.snapshots[start];
    if (!fault::patch_snapshot(patched, *mem_patch, *out_patch)) {
      return std::nullopt;
    }
    for (const auto& [addr, bits] : *mem_patch) {
      (void)bits;
      const std::uint64_t page = addr / vm::Vm::Snapshot::kPageBytes;
      entry_pages[page / 64] |= std::uint64_t{1} << (page % 64);
    }
    vm.emplace(program, patched, topts);
  }
  const std::uint64_t begin = plan.sections[start].begin;

  // Probes at later boundaries (geometric backoff, same policy as the
  // forked scheduler). A patched machine carries no armed plan, so the
  // closure rules apply at once; an armed plan must have fired first.
  if (prepared.fork.probe_convergence) {
    const std::size_t nsec = plan.sections.size();
    std::size_t failed = 0;
    std::size_t stride = 1;
    std::size_t p = start + 1;
    std::vector<std::uint64_t> pages;
    fault::MemDelta mem;
    fault::OutDelta out;
    while (p < nsec && failed < prepared.fork.max_probes) {
      vm->run_until(plan.sections[p].begin);
      if (vm->status() != vm::Vm::Status::Running) break;
      if (armed && !vm->fault_fired()) {
        ++p;
        continue;
      }
      const auto k = static_cast<std::uint32_t>(p);
      fault::probe_pages(ladder, vm->dirty_pages(), start, k, pages);
      if (!pages.empty()) {
        for (std::size_t i = 0; i < pages.size(); ++i) {
          pages[i] |= entry_pages[i];
        }
      }
      const auto probe = fault::probe_boundary(*vm, ladder, k, pages, golden,
                                               verify, mem, out);
      if (probe.kind != fault::Probe::Kind::Open) {
        tally.instructions += vm->instructions_retired() - begin;
        tally.early_exits++;
        if (probe.kind == fault::Probe::Kind::DeadDelta) {
          tally.dead_delta_exits++;
        }
        return probe.outcome;
      }
      ++failed;
      p += stride;
      stride *= 2;
    }
  }

  vm->run_until(~std::uint64_t{0});
  auto run = vm->take_result();
  tally.instructions += run.instructions - begin;
  if (run.trap == vm::TrapKind::DetectedFault && prepared.recovery.enabled) {
    // Same decision as TrialRunner::recover: recoverable iff no checkpoint
    // between the fault's landing and its detection captured corrupted
    // state. The rollback re-execution replays the fault-free run, which
    // verifies by construction.
    return fault::rollback_reaches_clean_state(prepared.recovery, landing,
                                               run.instructions)
               ? fault::Outcome::DetectedRecovered
               : fault::Outcome::DetectedUnrecoverable;
  }
  return fault::classify_outcome(run, golden, verify);
}

}  // namespace

std::uint64_t entry_hash(const vm::Vm::Snapshot& s) {
  PageDigests digests;
  return hash_snapshot(s, digests);
}

std::string encode_summary(const SectionSummary& s) {
  store::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(s.sites.size()));
  for (const auto& site : s.sites) {
    w.u8(static_cast<std::uint8_t>(site.kind));
    w.u32(static_cast<std::uint32_t>(site.mem.size()));
    for (const auto& [addr, bits] : site.mem) {
      w.u64(addr);
      w.u64(bits);
    }
    w.u32(static_cast<std::uint32_t>(site.out.size()));
    for (const auto& [idx, bits] : site.out) {
      w.u32(idx);
      w.u64(bits);
    }
  }
  return w.bytes();
}

bool decode_summary(std::string_view payload, std::size_t expected_sites,
                    SectionSummary& out) {
  store::ByteReader r(payload.data(), payload.size());
  const std::uint32_t nsites = r.u32();
  if (!r.ok() || nsites != expected_sites) return false;
  out.sites.assign(nsites, SiteSummary{});
  for (auto& site : out.sites) {
    const std::uint8_t kind = r.u8();
    if (!r.ok() ||
        kind > static_cast<std::uint8_t>(SiteSummary::Kind::Converged)) {
      return false;
    }
    site.kind = static_cast<SiteSummary::Kind>(kind);
    const std::uint32_t nmem = r.u32();
    if (!r.ok() || nmem > payload.size()) return false;
    site.mem.resize(nmem);
    for (auto& [addr, bits] : site.mem) {
      addr = r.u64();
      bits = r.u64();
    }
    const std::uint32_t nout = r.u32();
    if (!r.ok() || nout > payload.size()) return false;
    site.out.resize(nout);
    for (auto& [idx, bits] : site.out) {
      idx = r.u32();
      bits = r.u64();
    }
  }
  return r.done();
}

SectionPlan assign_sections(std::shared_ptr<const fault::SectionLadder> ladder,
                            const fault::PreparedCampaign& prepared) {
  SectionPlan plan;
  plan.total_instructions = prepared.fault_free_instructions;
  if (!ladder || ladder->empty() || prepared.plans.empty() ||
      prepared.fork_bounds.size() != prepared.plans.size() ||
      ladder->total_instructions != prepared.fault_free_instructions) {
    return plan;
  }
  plan.ladder = std::move(ladder);
  plan.sections = plan.ladder->sections;
  plan.snapshots = plan.ladder->snapshots;

  // Assign every plan to the section containing its fork bound.
  plan.plan_section.resize(prepared.plans.size());
  plan.section_plans.resize(plan.sections.size());
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    const std::uint32_t s = plan.ladder->section_of(prepared.fork_bounds[i]);
    plan.plan_section[i] = s;
    plan.section_plans[s].push_back(static_cast<std::uint32_t>(i));
  }

  // Entry-snapshot hashes (the boundary live-set component of a summary
  // key): digest each image only where a key will need it — plan-bearing
  // sections with a downstream boundary.
  plan.entry_hashes.assign(plan.sections.size(), 0);
  PageDigests digests;
  for (std::size_t s = 0; s + 1 < plan.sections.size(); ++s) {
    if (!plan.section_plans[s].empty()) {
      plan.entry_hashes[s] = hash_snapshot(plan.snapshots[s], digests);
    }
  }
  return plan;
}

SectionPlan plan_sections(const vm::DecodedProgram& program,
                          const trace::ColumnTrace& trace,
                          std::span<const trace::RegionInstance> instances,
                          const fault::PreparedCampaign& prepared,
                          std::size_t max_sections) {
  if (prepared.plans.empty() ||
      trace.size() != prepared.fault_free_instructions) {
    return assign_sections(nullptr, prepared);
  }
  return assign_sections(
      std::make_shared<const fault::SectionLadder>(fault::build_ladder(
          program, trace, instances, prepared.run_opts,
          fault::ladder_cap(program, prepared.fork.max_snapshot_bytes,
                            max_sections))),
      prepared);
}

ComposedResult run_composed_campaign(const vm::DecodedProgram& program,
                                     const fault::PreparedCampaign& prepared,
                                     const SectionPlan& plan,
                                     const std::vector<vm::OutputValue>& golden,
                                     const fault::Verifier& verify,
                                     util::Scheduler& pool,
                                     const ComposeOptions& opts) {
  ComposedResult r;
  r.sections_total = plan.sections.size();
  r.counts.trials = prepared.plans.size();
  r.counts.population_bits = prepared.population_bits;
  if (prepared.plans.empty()) return r;
  if (plan.empty() || plan.plan_section.size() != prepared.plans.size()) {
    // No usable section decomposition (stale trace or mismatched campaign):
    // degrade to the exhaustive engine, same counts by definition.
    r.counts = fault::run_prepared_campaign(program, prepared, golden, verify,
                                            pool);
    return r;
  }

  const std::size_t nsec = plan.sections.size();
  const auto& plans = prepared.plans;
  store::ArtifactStore* st = opts.store.get();

  // Reconvergence probing runs the summarizer up to max_probes sections
  // past the boundary, so a summary is a fact about its whole probe window
  // — the key hashes every section the probe could have executed. Each
  // section hashes its executed-instruction footprint (SectionInfo::pcs
  // resolved to static coordinates), so an edit invalidates exactly the
  // windows that execute the edited instruction.
  const std::size_t probe_window =
      prepared.fork.probe_convergence ? prepared.fork.max_probes : 0;
  std::vector<std::uint64_t> window_hash(nsec, 0);
  if (st) {
    const auto* code = program.code();
    std::vector<std::uint64_t> sec_hash(nsec);
    std::vector<store::InstrCoord> coords;
    for (std::size_t i = 0; i < nsec; ++i) {
      coords.clear();
      coords.reserve(plan.sections[i].pcs.size());
      for (const auto pc : plan.sections[i].pcs) {
        const auto& ins = code[pc];
        coords.push_back({ins.func, ins.block, ins.instr});
      }
      sec_hash[i] = store::hash_section(program.module(), coords);
    }
    for (std::size_t i = 0; i + 1 < nsec; ++i) {
      const std::size_t jmax = std::min(i + 1 + probe_window, nsec - 1);
      util::Hash64 h("ft.section.window.v1");
      h.u64(jmax - i);
      for (std::size_t t = i; t < jmax; ++t) h.u64(sec_hash[t]);
      window_hash[i] = h.digest();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  // --- phase 1: per-section summaries (store-served or measured) ------------
  std::vector<SectionSummary> summaries(nsec);
  std::vector<std::uint8_t> from_store(nsec, 0);
  std::vector<std::uint64_t> keys(nsec, 0);
  std::atomic<std::size_t> computed{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::uint64_t> reexecuted{0};
  Tally tally;

  pool.parallel_for(nsec, [&](std::size_t i) {
    const auto& idxs = plan.section_plans[i];
    auto& sum = summaries[i];
    sum.sites.assign(idxs.size(), SiteSummary{});
    if (idxs.empty()) return;
    const SectionInfo& sec = plan.sections[i];
    if (i + 1 == nsec) {
      // The final section has no downstream boundary to summarize against:
      // its sites always resolve by execution (kind Diverged carries no
      // information, so nothing is published for it).
      reexecuted++;
      return;
    }
    if (st) {
      keys[i] = store::summary_key(
          window_hash[i], plan.entry_hashes[i], sec.begin, sec.end,
          hash_plans(plans, idxs), opts.options_hash, opts.config);
      if (auto blob = st->load_summary(keys[i]);
          blob && decode_summary(*blob, idxs.size(), sum)) {
        from_store[i] = 1;
        hits++;
        return;
      }
    }
    const vm::Vm::Snapshot& exit_snap = plan.snapshots[i + 1];
    for (std::size_t k = 0; k < idxs.size(); ++k) {
      SiteSummary& site = sum.sites[k];
      vm::VmOptions topts = prepared.run_opts;
      topts.fault = plans[idxs[k]];
      vm::Vm vm(program, plan.snapshots[i], topts);
      vm.run_until(sec.end);
      // A trap, an early finish or a still-pending flip can never be
      // expressed as a boundary fact: Diverged, no probing (the suffix
      // re-execution resolves it exactly).
      const bool at_boundary = vm.status() == vm::Vm::Status::Running &&
                               vm.instructions_retired() == sec.end &&
                               vm.fault_fired();
      bool probe = false;
      if (at_boundary && vm.control_equals(exit_snap)) {
        // Control-equal: only memory words and emitted outputs can differ.
        if (!fault::data_delta(vm, exit_snap, {}, opts.max_delta_words,
                               site.mem, site.out)) {
          site.mem.clear();
          site.out.clear();
          probe = true;  // oversized delta — reconvergence may still apply
        } else {
          site.kind = site.mem.empty() && site.out.empty()
                          ? SiteSummary::Kind::Masked
                          : SiteSummary::Kind::Delta;
        }
      } else if (at_boundary) {
        probe = true;
      }
      if (probe) {
        // Reconvergence probes at the following boundaries (bounded by the
        // probe window the key hashes): a bit-for-bit match means the
        // remainder replays the golden run.
        const std::size_t jmax = std::min(i + 1 + probe_window, nsec - 1);
        for (std::size_t j = i + 2; j <= jmax; ++j) {
          vm.run_until(plan.sections[j].begin);
          if (vm.status() != vm::Vm::Status::Running) break;
          if (vm.state_equals(plan.snapshots[j])) {
            site.kind = SiteSummary::Kind::Converged;
            break;
          }
        }
      }
      tally.instructions += vm.instructions_retired() - sec.begin;
    }
    computed++;
    reexecuted++;
    if (st && keys[i] != 0) st->publish_summary(keys[i], encode_summary(sum));
  });

  const auto t1 = std::chrono::steady_clock::now();

  // --- phase 2: close every trial symbolically or by suffix execution -------
  // Plan slot within its section's summary (sites follow section_plans
  // order, which is ascending plan order).
  std::vector<std::uint32_t> slot(plans.size(), 0);
  for (const auto& idxs : plan.section_plans) {
    for (std::size_t k = 0; k < idxs.size(); ++k) {
      slot[idxs[k]] = static_cast<std::uint32_t>(k);
    }
  }

  pool.parallel_for(plans.size(), [&](std::size_t pi) {
    const std::uint32_t s = plan.plan_section[pi];
    const SiteSummary& site = summaries[s].sites[slot[pi]];
    const bool hit = from_store[s] != 0;
    const std::uint64_t landing = prepared.fork_bounds[pi];
    const auto rerun = [&] {
      // Re-execute the site like an exhaustive trial, forked at its own
      // section entry.
      tally.count(*run_suffix(program, prepared, plan, s, &plans[pi], nullptr,
                              nullptr, landing, golden, verify, tally));
    };
    switch (site.kind) {
      case SiteSummary::Kind::Masked:
      case SiteSummary::Kind::Converged:
        // Bit-identical to golden at a boundary with the fault fired: the
        // remainder replays the golden run.
        tally.composed += nsec - s - 1;
        if (hit) tally.avoided++;
        tally.count(fault::Outcome::VerificationSuccess);
        return;
      case SiteSummary::Kind::Diverged:
        rerun();
        return;
      case SiteSummary::Kind::Delta:
        break;
    }
    // Symbolic delta transport from the section's exit boundary.
    auto mem = site.mem;
    const auto closure = fault::close_delta(*plan.ladder, s + 1, mem, site.out,
                                            golden, verify);
    tally.composed += closure.sections_crossed;
    switch (closure.kind) {
      case fault::Closure::Kind::Converged:
      case fault::Closure::Kind::Dead:
        if (hit) tally.avoided++;
        tally.count(closure.outcome);
        return;
      case fault::Closure::Kind::Open:
        // Consumed downstream: execute from the consuming section's entry
        // with the transported delta patched in.
        if (const auto o = run_suffix(program, prepared, plan,
                                      closure.consumed_at, nullptr, &mem,
                                      &site.out, landing, golden, verify,
                                      tally)) {
          tally.count(*o);
          return;
        }
        break;
      case fault::Closure::Kind::Invalid:
        break;
    }
    // A delta that does not fit the ladder (a stale or damaged store-served
    // summary) is never trusted: resolve by execution.
    rerun();
  });

  r.counts.success = tally.success.load();
  r.counts.failed = tally.failed.load();
  r.counts.crashed = tally.crashed.load();
  r.counts.detected_recovered = tally.recovered.load();
  r.counts.detected_unrecoverable = tally.unrecoverable.load();
  r.counts.instructions_retired = tally.instructions.load();
  r.counts.early_exits = tally.early_exits.load();
  r.counts.dead_delta_exits = tally.dead_delta_exits.load();
  r.counts.snapshots_taken = nsec;
  r.counts.resume_depth = plan.sections.back().begin;
  const auto t2 = std::chrono::steady_clock::now();
  r.summarize_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.close_seconds = std::chrono::duration<double>(t2 - t1).count();
  r.summaries_computed = computed.load();
  r.summary_store_hits = hits.load();
  r.sections_composed = tally.composed.load();
  r.sections_reexecuted = reexecuted.load();
  r.trials_avoided = tally.avoided.load();
  return r;
}

}  // namespace ft::compose
