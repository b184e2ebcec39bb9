#include "compose/compose.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
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

constexpr std::uint64_t kBlockMask = ~std::uint64_t{7};

[[nodiscard]] bool is_mpi(ir::Opcode op) noexcept {
  switch (op) {
    case ir::Opcode::MpiRank:
    case ir::Opcode::MpiSize:
    case ir::Opcode::MpiSend:
    case ir::Opcode::MpiRecv:
    case ir::Opcode::MpiAllreduce:
    case ir::Opcode::MpiBarrier:
      return true;
    default:
      return false;
  }
}

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

/// mem delta (sorted by address) intersects a sorted block set?
[[nodiscard]] bool intersects(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& mem,
    const std::vector<std::uint64_t>& blocks) {
  auto it = blocks.begin();
  for (const auto& [addr, bits] : mem) {
    (void)bits;
    it = std::lower_bound(it, blocks.end(), addr);
    if (it == blocks.end()) return false;
    if (*it == addr) return true;
  }
  return false;
}

/// Drop delta words the section fully overwrites.
void subtract_kills(std::vector<std::pair<std::uint64_t, std::uint64_t>>& mem,
                    const std::vector<std::uint64_t>& kills) {
  if (mem.empty() || kills.empty()) return;
  std::size_t w = 0;
  auto it = kills.begin();
  for (const auto& e : mem) {
    it = std::lower_bound(it, kills.end(), e.first);
    if (it == kills.end() || *it != e.first) mem[w++] = e;
  }
  mem.resize(w);
}

struct Tally {
  std::atomic<std::size_t> success{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> crashed{0};
  std::atomic<std::size_t> recovered{0};
  std::atomic<std::size_t> unrecoverable{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> early_exits{0};
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
/// fallback (no plan; the delta is materialized into a patched snapshot).
/// Mirrors fault::TrialRunner::run tail semantics exactly — convergence
/// probes against later boundary snapshots, then run-out, then the
/// checkpoint/rollback recovery decision — so the outcome is bit-identical
/// to the exhaustive trial it replaces.
[[nodiscard]] fault::Outcome run_suffix(
    const vm::DecodedProgram& program, const fault::PreparedCampaign& prepared,
    const SectionPlan& plan, std::uint32_t start,
    const vm::FaultPlan* armed,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>* mem_patch,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>* out_patch,
    std::uint64_t landing, const std::vector<vm::OutputValue>& golden,
    const fault::Verifier& verify, Tally& tally) {
  vm::VmOptions topts = prepared.run_opts;
  topts.fault = armed ? *armed : vm::FaultPlan::none();

  std::optional<vm::Vm> vm;
  if (armed) {
    vm.emplace(program, plan.snapshots[start], topts);
  } else {
    // Materialize the delta into a copy of the boundary state. Sound
    // because every surviving delta word was neither read nor written
    // between its section and `start`, and outputs are append-only. The
    // copy shares the boundary's pages; only the pages the delta touches
    // are copied (delta words are 8-aligned, so none straddles a page, and
    // sorted, so each page is copied once).
    vm::Vm::Snapshot patched = plan.snapshots[start];
    constexpr std::size_t kPage = vm::Vm::Snapshot::kPageBytes;
    std::size_t owned = ~std::size_t{0};
    std::uint8_t* page = nullptr;
    for (const auto& [addr, bits] : *mem_patch) {
      if (addr / kPage != owned) {
        owned = addr / kPage;
        page = patched.own_page(owned);
      }
      std::memcpy(page + addr % kPage, &bits, sizeof(bits));
    }
    for (const auto& [idx, bits] : *out_patch) patched.outputs[idx].bits = bits;
    vm.emplace(program, patched, topts);
  }
  const std::uint64_t begin = plan.sections[start].begin;

  // Convergence probes at later boundaries (geometric backoff, same policy
  // as the forked scheduler). A patched machine carries no armed plan, so
  // state equality alone is conclusive; an armed plan must have fired first.
  if (prepared.fork.probe_convergence) {
    const std::size_t nsec = plan.sections.size();
    std::size_t failed = 0;
    std::size_t stride = 1;
    std::size_t p = start + 1;
    while (p < nsec && failed < prepared.fork.max_probes) {
      vm->run_until(plan.sections[p].begin);
      if (vm->status() != vm::Vm::Status::Running) break;
      if (armed && !vm->fault_fired()) {
        ++p;
        continue;
      }
      if (vm->state_equals(plan.snapshots[p])) {
        tally.instructions += vm->instructions_retired() - begin;
        tally.early_exits++;
        return fault::Outcome::VerificationSuccess;
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

SectionPlan plan_sections(const vm::DecodedProgram& program,
                          const trace::ColumnTrace& trace,
                          std::span<const trace::RegionInstance> instances,
                          const fault::PreparedCampaign& prepared,
                          std::size_t max_sections) {
  SectionPlan plan;
  const std::uint64_t total = prepared.fault_free_instructions;
  plan.total_instructions = total;
  if (total == 0 || prepared.plans.empty() ||
      prepared.fork_bounds.size() != prepared.plans.size() ||
      trace.size() != total) {
    return plan;
  }

  // Honor the fork policy's snapshot byte budget like prepare_snapshots
  // does (one full image per snapshot: an upper bound, since boundaries
  // share unchanged pages).
  std::size_t cap = std::max<std::size_t>(max_sections, 1);
  const std::uint64_t mem_size = program.module().memory_size();
  if (prepared.fork.max_snapshot_bytes > 0 && mem_size > 0) {
    cap = std::min<std::size_t>(
        cap, std::max<std::uint64_t>(
                 1, prepared.fork.max_snapshot_bytes / mem_size));
  }
  std::vector<std::uint64_t> begins =
      trace::section_boundaries(instances, total, cap - 1);
  begins.insert(begins.begin(), 0);

  // One serial golden pass places every boundary snapshot. A boundary the
  // golden run cannot pause at (stale instances) truncates the cut list —
  // the tail then becomes one long final section.
  vm::VmOptions gopts = prepared.run_opts;
  gopts.fault = vm::FaultPlan::none();
  vm::Vm g(program, gopts);
  for (std::size_t i = 0; i < begins.size(); ++i) {
    const std::uint64_t b = begins[i];
    if (b > 0) {
      g.run_until(b);
      if (g.status() != vm::Vm::Status::Running ||
          g.instructions_retired() != b) {
        begins.resize(i);
        break;
      }
    }
    // Chain each boundary onto the previous one: only the pages the
    // golden run wrote in between are copied.
    plan.snapshots.emplace_back();
    g.save(plan.snapshots.back(),
           i > 0 ? &plan.snapshots[plan.snapshots.size() - 2] : nullptr);
  }
  if (begins.empty()) {
    plan.snapshots.clear();
    return plan;
  }

  // Per-section golden-trace facts in one columnar pass: executed function
  // set, upward-exposed read blocks, fully-killed blocks, opacity. Block
  // membership is tracked with per-block epoch marks (epoch = section + 1),
  // so each block is tested and recorded in O(1) and every list comes out
  // unique.
  const auto cols = trace.raw();
  const auto* code = program.code();
  const auto* srcs = program.srcs();
  const std::size_t nfuncs = program.num_functions();
  const std::uint64_t nblocks = (mem_size + 7) / 8;
  plan.sections.resize(begins.size());
  std::vector<std::uint8_t> seen(nfuncs, 0);
  std::vector<std::uint8_t> seen_pc(program.code_size(), 0);
  std::vector<std::uint32_t> killed_in(nblocks, 0);
  std::vector<std::uint32_t> read_in(nblocks, 0);
  for (std::size_t s = 0; s < begins.size(); ++s) {
    SectionInfo& sec = plan.sections[s];
    sec.begin = begins[s];
    sec.end = s + 1 < begins.size() ? begins[s + 1] : total;
    const auto epoch = static_cast<std::uint32_t>(s + 1);
    for (std::uint64_t row = sec.begin; row < sec.end; ++row) {
      const std::uint32_t pc = cols.pc[row];
      const auto& ins = code[pc];
      if (!seen_pc[pc]) {
        seen_pc[pc] = 1;
        sec.pcs.push_back(pc);
      }
      if (!seen[ins.func]) {
        seen[ins.func] = 1;
        sec.funcs.push_back(ins.func);
      }
      if (is_mpi(ins.op)) sec.opaque = true;
      if (ins.op != ir::Opcode::Load && ins.op != ir::Opcode::Store) continue;
      // Effective address and width as ColumnTrace::materialize derives
      // them: a Load records its pointer as the only pool entry; a Store
      // records its value, then its address.
      const std::uint64_t* pool = cols.op_bits + cols.ops_offset[row];
      std::uint64_t addr = 0;
      std::uint32_t size = 0;
      if (ins.op == ir::Opcode::Load) {
        addr = pool[0];
        size = store_size(ins.type);
      } else {
        const vm::Src* ss = srcs + ins.src_begin;
        if (ss[1].kind != vm::SrcKind::None) {
          addr = pool[ss[0].kind != vm::SrcKind::None ? 1 : 0];
        }
        size = store_size(ss[0].type);
      }
      const std::uint64_t first = addr & kBlockMask;
      const std::uint64_t last =
          (addr + std::max<std::uint32_t>(size, 1) - 1) & kBlockMask;
      if (last < first || (last >> 3) >= nblocks) {
        // Outside the image (a stale or damaged trace): make the section
        // opaque so no delta is ever transported through it.
        sec.opaque = true;
        continue;
      }
      const bool full_store =
          ins.op == ir::Opcode::Store && (addr & 7) == 0 && size == 8;
      for (std::uint64_t b = first; b <= last; b += 8) {
        const std::uint64_t blk = b >> 3;
        if (killed_in[blk] == epoch) continue;
        if (full_store) {
          killed_in[blk] = epoch;
          sec.kills.push_back(b);
        } else if (read_in[blk] != epoch) {
          // Loads and partial stores both consume the block's prior
          // content for delta purposes (a partial store merges old bytes
          // with new).
          read_in[blk] = epoch;
          sec.reads.push_back(b);
        }
      }
    }
    for (const auto f : sec.funcs) seen[f] = 0;
    for (const auto pc : sec.pcs) seen_pc[pc] = 0;
    std::sort(sec.pcs.begin(), sec.pcs.end());
    std::sort(sec.funcs.begin(), sec.funcs.end());
    std::sort(sec.reads.begin(), sec.reads.end());
    std::sort(sec.kills.begin(), sec.kills.end());
  }

  // Assign every plan to the section containing its fork bound.
  plan.plan_section.resize(prepared.plans.size());
  plan.section_plans.resize(plan.sections.size());
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    const std::uint64_t bound = prepared.fork_bounds[i];
    auto it = std::upper_bound(begins.begin(), begins.end(), bound);
    const auto s = static_cast<std::uint32_t>(
        it == begins.begin() ? 0 : (it - begins.begin()) - 1);
    plan.plan_section[i] = s;
    plan.section_plans[s].push_back(static_cast<std::uint32_t>(i));
  }

  // Entry-snapshot hashes (the boundary live-set component of a summary
  // key) are a property of the golden decomposition, not of any one
  // campaign run: digest each image once at planning time, and only where
  // a key will need it — plan-bearing sections with a downstream boundary.
  PageDigests digests;
  for (std::size_t s = 0; s + 1 < plan.sections.size(); ++s) {
    if (!plan.section_plans[s].empty()) {
      plan.sections[s].entry_hash = hash_snapshot(plan.snapshots[s], digests);
    }
  }
  return plan;
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
          window_hash[i], sec.entry_hash, sec.begin, sec.end,
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
        const auto& fo = vm.outputs();
        const auto& go = exit_snap.outputs;
        bool diverged = fo.size() != go.size();
        for (std::size_t j = 0; !diverged && j < fo.size(); ++j) {
          if (fo[j].type != go[j].type) {
            diverged = true;
          } else if (fo[j].bits != go[j].bits) {
            site.out.emplace_back(static_cast<std::uint32_t>(j), fo[j].bits);
          }
        }
        const auto fm = vm.memory();
        diverged = diverged || fm.size() != exit_snap.mem_size ||
                   fm.size() % 8 != 0;
        for (std::size_t p = 0; !diverged && p < exit_snap.pages.size(); ++p) {
          const std::size_t off = p * vm::Vm::Snapshot::kPageBytes;
          const std::size_t len = exit_snap.page_size(p);
          const std::uint8_t* gm = exit_snap.pages[p]->data();
          if (std::memcmp(fm.data() + off, gm, len) == 0) continue;
          for (std::size_t w = 0; w < len; w += 8) {
            std::uint64_t fb = 0;
            std::uint64_t gb = 0;
            std::memcpy(&fb, fm.data() + off + w, 8);
            std::memcpy(&gb, gm + w, 8);
            if (fb == gb) continue;
            site.mem.emplace_back(off + w, fb);
            if (site.mem.size() > opts.max_delta_words) {
              diverged = true;
              break;
            }
          }
        }
        if (diverged) {
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
        tally.count(run_suffix(program, prepared, plan, s, &plans[pi],
                               nullptr, nullptr, landing, golden, verify,
                               tally));
        return;
      case SiteSummary::Kind::Delta:
        break;
    }
    // Symbolic delta transport: walk downstream sections until the delta is
    // consumed (fallback), fully killed (golden replay), or survives to the
    // end (classify patched outputs).
    auto mem = site.mem;
    std::uint32_t t = s + 1;
    bool fell_back = false;
    for (; t < nsec; ++t) {
      const SectionInfo& sec = plan.sections[t];
      if (sec.opaque || intersects(mem, sec.reads)) {
        fell_back = true;
        break;
      }
      subtract_kills(mem, sec.kills);
      tally.composed++;
      if (mem.empty() && site.out.empty()) break;
    }
    if (fell_back) {
      tally.count(run_suffix(program, prepared, plan, t, nullptr, &mem,
                             &site.out, landing, golden, verify, tally));
      return;
    }
    if (mem.empty() && site.out.empty()) {
      // The delta was fully overwritten: the machine re-converged with the
      // golden run, so the remainder replays it.
      if (hit) tally.avoided++;
      tally.count(fault::Outcome::VerificationSuccess);
      return;
    }
    // The delta survives to program end untouched: the faulty run retires
    // the identical instruction stream and completes with golden outputs
    // patched at the recorded slots.
    vm::RunResult rr;
    rr.trap = vm::TrapKind::None;
    rr.instructions = plan.total_instructions;
    rr.fault_fired = true;
    rr.outputs = golden;
    bool in_range = true;
    for (const auto& [idx, bits] : site.out) {
      if (idx >= rr.outputs.size()) {
        in_range = false;
        break;
      }
      rr.outputs[idx].bits = bits;
    }
    if (!in_range) {
      // Defensive: a summary that indexes outside the golden outputs is
      // stale — resolve by execution instead of trusting it.
      tally.count(run_suffix(program, prepared, plan, s, &plans[pi], nullptr,
                             nullptr, landing, golden, verify, tally));
      return;
    }
    if (hit) tally.avoided++;
    tally.count(fault::classify_outcome(rr, golden, verify));
  });

  r.counts.success = tally.success.load();
  r.counts.failed = tally.failed.load();
  r.counts.crashed = tally.crashed.load();
  r.counts.detected_recovered = tally.recovered.load();
  r.counts.detected_unrecoverable = tally.unrecoverable.load();
  r.counts.instructions_retired = tally.instructions.load();
  r.counts.early_exits = tally.early_exits.load();
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
