#include "fault/ladder.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

namespace ft::fault {
namespace {

constexpr std::uint64_t kBlockMask = ~std::uint64_t{7};
constexpr std::size_t kPage = vm::Vm::Snapshot::kPageBytes;

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

/// mem delta (sorted by address) intersects a sorted block set?
[[nodiscard]] bool intersects(const MemDelta& mem,
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
void subtract_kills(MemDelta& mem, const std::vector<std::uint64_t>& kills) {
  if (mem.empty() || kills.empty()) return;
  std::size_t w = 0;
  auto it = kills.begin();
  for (const auto& e : mem) {
    it = std::lower_bound(it, kills.end(), e.first);
    if (it == kills.end() || *it != e.first) mem[w++] = e;
  }
  mem.resize(w);
}

}  // namespace

std::uint32_t SectionLadder::section_of(std::uint64_t index) const noexcept {
  const auto it = std::upper_bound(
      sections.begin(), sections.end(), index,
      [](std::uint64_t i, const SectionInfo& s) { return i < s.begin; });
  return it == sections.begin()
             ? 0
             : static_cast<std::uint32_t>(it - sections.begin() - 1);
}

std::size_t SectionLadder::resident_bytes() const noexcept {
  std::unordered_set<const vm::Vm::Snapshot::Page*> pages;
  std::size_t bytes = 0;
  for (const auto& s : snapshots) {
    for (const auto& p : s.pages) {
      if (pages.insert(p.get()).second) bytes += kPage;
    }
    // The page table itself, plus the non-memory state.
    bytes += s.pages.size() * sizeof(s.pages[0]) + s.resident_bytes() -
             s.pages.size() * kPage;
  }
  for (const auto& sec : sections) {
    bytes += sec.funcs.size() * sizeof(std::uint32_t) +
             sec.pcs.size() * sizeof(std::uint32_t) +
             (sec.reads.size() + sec.kills.size() + sec.written.size()) *
                 sizeof(std::uint64_t);
  }
  return bytes;
}

std::size_t ladder_cap(const vm::DecodedProgram& program,
                       std::size_t max_snapshot_bytes,
                       std::size_t max_sections) {
  std::size_t cap = std::max<std::size_t>(max_sections, 1);
  const std::uint64_t mem_size = program.module().memory_size();
  if (max_snapshot_bytes > 0 && mem_size > 0) {
    cap = std::min<std::size_t>(
        cap, std::max<std::uint64_t>(1, max_snapshot_bytes / mem_size));
  }
  return cap;
}

SectionLadder build_ladder(const vm::DecodedProgram& program,
                           const trace::ColumnTrace& trace,
                           std::span<const trace::RegionInstance> instances,
                           const vm::VmOptions& base,
                           std::size_t max_sections) {
  SectionLadder ladder;
  const std::uint64_t total = trace.size();
  ladder.total_instructions = total;
  ladder.max_sections = std::max<std::size_t>(max_sections, 1);
  ladder.program = &program;
  if (total == 0) return ladder;

  std::vector<std::uint64_t> begins =
      trace::section_boundaries(instances, total, ladder.max_sections - 1);
  begins.insert(begins.begin(), 0);

  // One serial golden pass places every boundary snapshot.
  vm::VmOptions gopts = base;
  gopts.fault = vm::FaultPlan::none();
  gopts.observer = nullptr;
  gopts.column_sink = nullptr;
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
    ladder.snapshots.emplace_back();
    g.save(ladder.snapshots.back(),
           i > 0 ? &ladder.snapshots[ladder.snapshots.size() - 2] : nullptr);
  }
  if (begins.empty()) {
    ladder.snapshots.clear();
    return ladder;
  }

  // Per-section golden-trace facts in one columnar pass: executed function
  // set, upward-exposed read blocks, fully-killed blocks, written pages,
  // opacity. Block membership is tracked with per-block epoch marks (epoch
  // = section + 1), so each block is tested and recorded in O(1) and every
  // list comes out unique.
  const auto cols = trace.raw();
  const auto* code = program.code();
  const auto* srcs = program.srcs();
  const std::uint64_t mem_size = program.module().memory_size();
  const std::uint64_t nblocks = (mem_size + 7) / 8;
  const std::size_t npages = (mem_size + kPage - 1) / kPage;
  ladder.sections.resize(begins.size());
  std::vector<std::uint8_t> seen(program.num_functions(), 0);
  std::vector<std::uint8_t> seen_pc(program.code_size(), 0);
  std::vector<std::uint32_t> killed_in(nblocks, 0);
  std::vector<std::uint32_t> read_in(nblocks, 0);
  for (std::size_t s = 0; s < begins.size(); ++s) {
    SectionInfo& sec = ladder.sections[s];
    sec.begin = begins[s];
    sec.end = s + 1 < begins.size() ? begins[s + 1] : total;
    sec.written.assign((npages + 63) / 64, 0);
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
        // opaque so no delta is ever transported through it, and count
        // every page as written so no probe trusts an unchecked page.
        sec.opaque = true;
        std::fill(sec.written.begin(), sec.written.end(), ~std::uint64_t{0});
        continue;
      }
      const bool store = ins.op == ir::Opcode::Store;
      if (store) {
        for (std::uint64_t p = first / kPage; p <= last / kPage; ++p) {
          sec.written[p / 64] |= std::uint64_t{1} << (p % 64);
        }
      }
      const bool full_store = store && (addr & 7) == 0 && size == 8;
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
  return ladder;
}

bool data_delta(const vm::Vm& vm, const vm::Vm::Snapshot& s,
                std::span<const std::uint64_t> pages, std::size_t max_words,
                MemDelta& mem, OutDelta& out) {
  mem.clear();
  out.clear();
  const auto& fo = vm.outputs();
  const auto& go = s.outputs;
  if (fo.size() != go.size()) return false;
  for (std::size_t j = 0; j < fo.size(); ++j) {
    if (fo[j].type != go[j].type) return false;
    if (fo[j].bits != go[j].bits) {
      out.emplace_back(static_cast<std::uint32_t>(j), fo[j].bits);
    }
  }
  const auto fm = vm.memory();
  if (fm.size() != s.mem_size || fm.size() % 8 != 0) return false;
  const auto compare_page = [&](std::size_t p) {
    const std::size_t off = p * kPage;
    const std::size_t len = s.page_size(p);
    const std::uint8_t* gm = s.pages[p]->data();
    if (std::memcmp(fm.data() + off, gm, len) == 0) return true;
    for (std::size_t w = 0; w < len; w += 8) {
      std::uint64_t fb = 0;
      std::uint64_t gb = 0;
      std::memcpy(&fb, fm.data() + off + w, 8);
      std::memcpy(&gb, gm + w, 8);
      if (fb == gb) continue;
      mem.emplace_back(off + w, fb);
      if (mem.size() > max_words) return false;
    }
    return true;
  };
  if (pages.empty()) {
    for (std::size_t p = 0; p < s.pages.size(); ++p) {
      if (!compare_page(p)) return false;
    }
    return true;
  }
  for (std::size_t word = 0; word < pages.size(); ++word) {
    std::uint64_t bits = pages[word];
    while (bits != 0) {
      const std::size_t p =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (p >= s.pages.size()) return true;
      if (!compare_page(p)) return false;
    }
  }
  return true;
}

bool valid_delta(const vm::Vm::Snapshot& s, const MemDelta& mem,
                 const OutDelta& out) {
  std::uint64_t next = 0;  // lowest address the next word may take
  for (const auto& [addr, bits] : mem) {
    (void)bits;
    if (addr % 8 != 0 || addr < next || addr > s.mem_size ||
        s.mem_size - addr < 8) {
      return false;
    }
    next = addr + 8;
  }
  std::uint64_t next_idx = 0;
  for (const auto& [idx, bits] : out) {
    (void)bits;
    if (idx < next_idx || idx >= s.outputs.size()) return false;
    next_idx = std::uint64_t{idx} + 1;
  }
  return true;
}

bool patch_snapshot(vm::Vm::Snapshot& s, const MemDelta& mem,
                    const OutDelta& out) {
  if (!valid_delta(s, mem, out)) return false;
  // Words are 8-aligned, so none straddles a page, and ascending, so each
  // page is copied once.
  std::size_t owned = ~std::size_t{0};
  std::uint8_t* page = nullptr;
  for (const auto& [addr, bits] : mem) {
    if (addr / kPage != owned) {
      owned = addr / kPage;
      page = s.own_page(owned);
    }
    std::memcpy(page + addr % kPage, &bits, sizeof(bits));
  }
  for (const auto& [idx, bits] : out) s.outputs[idx].bits = bits;
  return true;
}

Closure close_delta(const SectionLadder& ladder, std::uint32_t boundary,
                    MemDelta& mem, const OutDelta& out,
                    const std::vector<vm::OutputValue>& golden,
                    const Verifier& verify) {
  Closure c;
  const std::size_t nsec = ladder.sections.size();
  if (boundary >= nsec || !valid_delta(ladder.snapshots[boundary], mem, out)) {
    c.kind = Closure::Kind::Invalid;
    return c;
  }
  // Walk downstream sections until the delta is consumed (open), fully
  // killed (golden replay) or survives to the end (patched outputs).
  for (std::uint32_t t = boundary; t < nsec; ++t) {
    const SectionInfo& sec = ladder.sections[t];
    if (sec.opaque || intersects(mem, sec.reads)) {
      c.kind = Closure::Kind::Open;
      c.consumed_at = t;
      return c;
    }
    subtract_kills(mem, sec.kills);
    c.sections_crossed++;
    if (mem.empty() && out.empty()) {
      c.kind = Closure::Kind::Converged;
      return c;
    }
  }
  // The faulty run retires the identical instruction stream and completes
  // with golden outputs patched at the recorded slots.
  vm::RunResult rr;
  rr.trap = vm::TrapKind::None;
  rr.instructions = ladder.total_instructions;
  rr.fault_fired = true;
  rr.outputs = golden;
  for (const auto& [idx, bits] : out) {
    if (idx >= rr.outputs.size()) {
      c.kind = Closure::Kind::Invalid;
      return c;
    }
    rr.outputs[idx].bits = bits;
  }
  c.kind = Closure::Kind::Dead;
  c.outcome = classify_outcome(rr, golden, verify);
  return c;
}

void probe_pages(const SectionLadder& ladder,
                 std::span<const std::uint64_t> dirty, std::uint32_t from,
                 std::uint32_t to, std::vector<std::uint64_t>& out) {
  out.assign(dirty.begin(), dirty.end());
  if (ladder.sections.empty() ||
      out.size() != ladder.sections.front().written.size()) {
    out.clear();
    return;
  }
  for (std::uint32_t t = from; t < to && t < ladder.sections.size(); ++t) {
    const auto& w = ladder.sections[t].written;
    for (std::size_t i = 0; i < w.size(); ++i) out[i] |= w[i];
  }
}

Probe probe_boundary(const vm::Vm& vm, const SectionLadder& ladder,
                     std::uint32_t boundary,
                     std::span<const std::uint64_t> pages,
                     const std::vector<vm::OutputValue>& golden,
                     const Verifier& verify, MemDelta& scratch_mem,
                     OutDelta& scratch_out) {
  Probe p;
  const auto& g = ladder.snapshots[boundary];
  if (!vm.control_equals(g) ||
      !data_delta(vm, g, pages, kMaxDeltaWords, scratch_mem, scratch_out)) {
    return p;
  }
  if (scratch_mem.empty() && scratch_out.empty()) {
    p.kind = Probe::Kind::Converged;
    return p;
  }
  const Closure c =
      close_delta(ladder, boundary, scratch_mem, scratch_out, golden, verify);
  if (c.kind == Closure::Kind::Converged || c.kind == Closure::Kind::Dead) {
    p.kind = Probe::Kind::DeadDelta;
    p.outcome = c.outcome;
  }
  return p;
}

}  // namespace ft::fault
