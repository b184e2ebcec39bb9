// Machine-state plumbing shared by every execution engine: construction,
// memory/fault primitives, snapshot/restore/fork, and the run() dispatcher.
// The engines themselves live in their own translation units —
// interp_legacy.cpp (tree-walker), interp_decoded.cpp (decoded hot loop) and
// interp_jit.cpp (native driver) — so the shared helpers in
// interp_shared.h link from one definition instead of three copies.
#include "vm/interp.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "jit/jit_program.h"
#include "trace/column.h"
#include "util/bits.h"

namespace ft::vm {

using ir::Type;
using util::bits_to_f32;
using util::bits_to_f64;

double OutputValue::as_f64() const noexcept {
  switch (type) {
    case Type::F64: return bits_to_f64(bits);
    case Type::F32: return static_cast<double>(bits_to_f32(bits));
    default: return static_cast<double>(static_cast<std::int64_t>(bits));
  }
}

std::int64_t OutputValue::as_i64() const noexcept {
  if (is_float(type)) return static_cast<std::int64_t>(as_f64());
  return static_cast<std::int64_t>(bits);
}

void Vm::init_memory(const ir::Module& m) {
  mem_.assign(m.memory_size(), 0);
  if (opts_.track_writes && prog_) {
    const std::uint64_t pages =
        (mem_.size() + ((std::uint64_t{1} << kDirtyPageShift) - 1)) >>
        kDirtyPageShift;
    dirty_.assign((pages + 63) / 64, 0);
  }
  for (std::uint32_t g = 0; g < m.num_globals(); ++g) {
    const auto& gl = m.global(g);
    if (gl.init_bits.empty()) continue;
    const auto esz = store_size(gl.elem);
    for (std::size_t i = 0; i < gl.init_bits.size() && i < gl.count; ++i) {
      std::memcpy(&mem_[gl.addr + i * esz], &gl.init_bits[i], esz);
    }
  }
  sp_ = m.stack_base();
  region_counts_.assign(m.num_regions(), 0);
}

Vm::Vm(const ir::Module& m, VmOptions opts) : Vm(m, nullptr, opts) {}

Vm::Vm(const DecodedProgram& p, VmOptions opts) : Vm(p.module(), &p, opts) {}

Vm::Vm(const ir::Module& m, const DecodedProgram* p, VmOptions opts)
    : mod_(&m), prog_(p), opts_(opts), randlc_(opts.rand_seed) {
  assert(m.laid_out() && "module must be laid out before execution");
  assert((!opts_.observer || !prog_) &&
         "observers run on the legacy engine; decoded runs record through "
         "VmOptions::column_sink");
  assert((!opts_.column_sink || prog_) &&
         "VmOptions::column_sink requires the decoded engine");
  assert((!opts_.column_sink || (&opts_.column_sink->program() == prog_ &&
                                 opts_.column_sink->empty())) &&
         "column sink must be empty and built over the program being run");
  assert((!opts_.jit || !prog_ || &opts_.jit->program() == prog_) &&
         "VmOptions::jit must be compiled from the program being run");
  init_memory(m);
  if (opts_.count_opcodes) {
    opcode_counts_.assign(ir::kNumOpcodes, 0);
  }

  if (prog_) {
    dframes_.reserve(opts_.max_call_depth);
    slots_.reserve(4096);
    const auto entry_fn = prog_->entry_function();
    const DecodedFunction& entry = prog_->function(entry_fn);
    DFrame main;
    main.func = entry_fn;
    main.activation = next_activation_++;
    main.pc = entry.entry_pc;
    main.reg_base = 0;
    main.arg_base = entry.num_regs;
    main.saved_sp = sp_;
    if (slots_.size() < entry.num_regs) slots_.resize(entry.num_regs);
    std::fill(slots_.begin(), slots_.begin() + entry.num_regs, 0);
    slot_top_ = entry.num_regs;
    dframes_.push_back(main);
  } else {
    Frame main;
    main.func = m.entry();
    main.activation = next_activation_++;
    main.regs.assign(m.function(m.entry()).num_regs, 0);
    main.saved_sp = sp_;
    frames_.push_back(std::move(main));
  }
}

Vm::Vm(const DecodedProgram& p, const Snapshot& s, VmOptions opts)
    : mod_(&p.module()), prog_(&p), opts_(opts), randlc_(opts.rand_seed) {
  assert(mod_->laid_out() && "module must be laid out before execution");
  assert(!opts_.observer && !opts_.column_sink &&
         "snapshot-constructed Vms run the untraced campaign path");
  assert((!opts_.jit || &opts_.jit->program() == prog_) &&
         "VmOptions::jit must be compiled from the program being run");
  dframes_.reserve(opts_.max_call_depth);
  if (opts_.count_opcodes) {
    opcode_counts_.assign(ir::kNumOpcodes, 0);
  }
  restore(s);
}

bool Vm::mem_ok(std::uint64_t addr, std::uint32_t size) const {
  return addr >= ir::kGlobalBase && addr + size <= mem_.size() &&
         addr + size >= addr;
}

void Vm::set_trap(TrapKind t) noexcept {
  trap_ = t;
  status_ = Status::Trapped;
}

void Vm::maybe_flip_result(std::uint64_t& bits) {
  if (opts_.fault.kind == FaultPlan::Kind::ResultBit && !fault_fired_ &&
      n_retired_ == opts_.fault.dyn_index) {
    bits = util::flip_bit(bits, opts_.fault.bit);
    fault_fired_ = true;
  }
}

void Vm::apply_region_entry_fault(std::uint32_t rid) {
  const auto& plan = opts_.fault;
  if (plan.kind != FaultPlan::Kind::RegionInputMemoryBit || fault_fired_) {
    return;
  }
  if (rid != plan.region_id ||
      region_counts_[rid] != plan.region_instance) {
    return;
  }
  if (!mem_ok(plan.address, plan.width_bytes)) return;
  std::uint64_t word = read_word(plan.address, plan.width_bytes);
  word = util::flip_bit(word, plan.bit % (plan.width_bytes * 8));
  write_word(plan.address, plan.width_bytes, word);
  fault_fired_ = true;
}

std::uint64_t Vm::read_word(std::uint64_t addr, std::uint32_t size) const {
  assert(mem_ok(addr, size));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &mem_[addr], size);
  return bits;
}

void Vm::write_word(std::uint64_t addr, std::uint32_t size,
                    std::uint64_t bits) {
  assert(mem_ok(addr, size));
  std::memcpy(&mem_[addr], &bits, size);
  // dirty_ is non-empty exactly when write tracking is on; region-entry
  // faults route through here, so fault flips are tracked too.
  if (!dirty_.empty()) mark_dirty(addr, size);
}

std::uint32_t Vm::region_instances(std::uint32_t rid) const {
  return rid < region_counts_.size() ? region_counts_[rid] : 0;
}

bool Vm::next_is_region_marker() const {
  const Frame& fr = frames_.back();
  return ir::is_region_marker(
      mod_->function(fr.func).blocks[fr.block].instrs[fr.pc].op);
}

// ---------------------------------------------------------------------------
// Snapshot / resume: the prefix-reuse primitives the snapshot-forked
// campaign scheduler (fault/campaign.cpp) is built on. Only the decoded
// engine supports them — campaigns run nowhere else. The JIT shares the
// interpreter's machine-state layout, so a snapshot taken under either
// engine restores into the other (pinned by tests/jit_test.cpp).
// ---------------------------------------------------------------------------

const std::shared_ptr<const Vm::Snapshot::Page>& Vm::Snapshot::zero_page() {
  static const std::shared_ptr<const Page> zero = std::make_shared<const Page>();
  return zero;
}

std::uint8_t* Vm::Snapshot::own_page(std::size_t p) {
  auto fresh = std::make_shared<Page>(*pages[p]);
  std::uint8_t* bytes = fresh->data();
  pages[p] = std::move(fresh);
  return bytes;
}

void Vm::save(Snapshot& out, const Snapshot* prev) const {
  assert(prog_ && "snapshots capture decoded-engine state only");
  assert((!prev || prev->mem_size == mem_.size()) &&
         "the previous snapshot must come from a Vm over the same module");
  constexpr std::size_t kPage = Snapshot::kPageBytes;
  const std::size_t npages = (mem_.size() + kPage - 1) / kPage;
  out.mem_size = mem_.size();
  out.pages.resize(npages);
  for (std::size_t p = 0; p < npages; ++p) {
    const std::uint8_t* src = mem_.data() + p * kPage;
    const std::size_t len = out.page_size(p);
    auto& slot = out.pages[p];
    if (prev && std::memcmp(prev->pages[p]->data(), src, len) == 0) {
      slot = prev->pages[p];
    } else if (std::memcmp(Snapshot::zero_page()->data(), src, len) == 0) {
      slot = Snapshot::zero_page();
    } else {
      auto fresh = std::make_shared_for_overwrite<Snapshot::Page>();
      std::memcpy(fresh->data(), src, len);
      std::memset(fresh->data() + len, 0, kPage - len);
      slot = std::move(fresh);
    }
  }
  out.frames = dframes_;
  out.slots.assign(slots_.begin(), slots_.begin() + slot_top_);
  out.arg_locs.assign(arg_locs_.begin(), arg_locs_.begin() + arg_loc_top_);
  out.outputs = outputs_;
  out.region_counts = region_counts_;
  out.sp = sp_;
  out.next_activation = next_activation_;
  out.retired = n_retired_;
  out.randlc = randlc_;
  out.trap = trap_;
  out.status = status_;
  out.fault_fired = fault_fired_;
}

Vm::Snapshot Vm::snapshot() const {
  Snapshot s;
  save(s);
  return s;
}

void Vm::attach_column_sink(trace::ColumnTrace& sink) {
  assert(prog_ && "column sinks attach to the decoded engine");
  assert(&sink.program() == prog_ && sink.size() == n_retired_ &&
         "an attached sink holds exactly the records retired so far");
  opts_.column_sink = &sink;
}

void Vm::sync_sink_to(std::uint64_t target_retired) {
  trace::ColumnTrace* const sink = opts_.column_sink;
  if (!sink || sink->empty()) return;
  // The sink's rows are a contiguous suffix ending at n_retired_. Restoring
  // to an earlier point rolls the rows past it back (restoring before the
  // sink's first row empties it); restoring *forward* of the executed
  // stream would leave rows claiming instructions that were never traced,
  // so it is rejected.
  assert(target_retired <= n_retired_ &&
         "cannot restore a traced Vm forward of its executed stream");
  const std::uint64_t base = n_retired_ - sink->size();
  sink->truncate_to(target_retired > base ? target_retired - base : 0);
}

void Vm::restore_machine_state(const Snapshot& s) {
  sync_sink_to(s.retired);
  dframes_ = s.frames;
  slots_.assign(s.slots.begin(), s.slots.end());
  slot_top_ = static_cast<std::uint32_t>(s.slots.size());
  arg_locs_.assign(s.arg_locs.begin(), s.arg_locs.end());
  arg_loc_top_ = static_cast<std::uint32_t>(s.arg_locs.size());
  outputs_ = s.outputs;
  region_counts_ = s.region_counts;
  sp_ = s.sp;
  next_activation_ = s.next_activation;
  n_retired_ = s.retired;
  randlc_ = s.randlc;
  trap_ = s.trap;
  status_ = s.status;
  fault_fired_ = s.fault_fired;
}

void Vm::restore(const Snapshot& s) {
  assert(prog_ && "snapshots restore decoded-engine state only");
  assert(s.mem_size == prog_->module().memory_size() &&
         "snapshot must come from a Vm over the same module");
  if (mem_.size() == s.mem_size) {
    for (std::size_t p = 0; p < s.pages.size(); ++p) {
      std::memcpy(mem_.data() + p * Snapshot::kPageBytes, s.pages[p]->data(),
                  s.page_size(p));
    }
  } else {
    // Fresh machine (the snapshot constructor): append page by page so the
    // image is written once, never zero-filled first.
    mem_.clear();
    mem_.reserve(s.mem_size);
    for (std::size_t p = 0; p < s.pages.size(); ++p) {
      mem_.insert(mem_.end(), s.pages[p]->data(),
                  s.pages[p]->data() + s.page_size(p));
    }
  }
  if (opts_.track_writes && prog_) {
    const std::uint64_t pages =
        (mem_.size() + ((std::uint64_t{1} << kDirtyPageShift) - 1)) >>
        kDirtyPageShift;
    dirty_.assign((pages + 63) / 64, 0);  // full restore: everything clean
  }
  restore_machine_state(s);
}

void Vm::fork_from(Vm& golden, bool full) {
  assert(prog_ && golden.prog_ == prog_ &&
         "fork_from pairs two machines over one decoded program");
  assert(!dirty_.empty() && !golden.dirty_.empty() &&
         "fork_from requires VmOptions::track_writes on both machines");
  if (full) {
    mem_ = golden.mem_;
  } else {
    // Union of both machines' writes since their memories last matched:
    // everything else is identical by the precondition.
    constexpr std::uint64_t kPage = std::uint64_t{1} << kDirtyPageShift;
    for (std::size_t word = 0; word < dirty_.size(); ++word) {
      std::uint64_t bits = dirty_[word] | golden.dirty_[word];
      while (bits != 0) {
        const auto page = word * 64 +
                          static_cast<std::uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t begin = page << kDirtyPageShift;
        const std::uint64_t len = std::min(kPage, mem_.size() - begin);
        std::memcpy(&mem_[begin], &golden.mem_[begin], len);
      }
    }
  }
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(golden.dirty_.begin(), golden.dirty_.end(), 0);

  sync_sink_to(golden.n_retired_);
  dframes_ = golden.dframes_;
  slots_.assign(golden.slots_.begin(),
                golden.slots_.begin() + golden.slot_top_);
  slot_top_ = golden.slot_top_;
  arg_locs_.assign(golden.arg_locs_.begin(),
                   golden.arg_locs_.begin() + golden.arg_loc_top_);
  arg_loc_top_ = golden.arg_loc_top_;
  outputs_ = golden.outputs_;
  region_counts_ = golden.region_counts_;
  sp_ = golden.sp_;
  next_activation_ = golden.next_activation_;
  n_retired_ = golden.n_retired_;
  randlc_ = golden.randlc_;
  trap_ = golden.trap_;
  status_ = golden.status_;
  fault_fired_ = golden.fault_fired_;
}

void Vm::restore_dirty(const Snapshot& s) {
  assert(prog_ && !dirty_.empty() &&
         "restore_dirty requires VmOptions::track_writes");
  assert(s.mem_size == mem_.size() &&
         "snapshot must come from a Vm over the same module");
  // Copy back only the pages execution wrote since the memory last equaled
  // the image of `s` (the restore_dirty precondition); everything else is
  // untouched.
  for (std::size_t word = 0; word < dirty_.size(); ++word) {
    std::uint64_t bits = dirty_[word];
    if (bits == 0) continue;
    dirty_[word] = 0;
    while (bits != 0) {
      const auto page = word * 64 +
                        static_cast<std::uint64_t>(std::countr_zero(bits));
      bits &= bits - 1;
      std::memcpy(&mem_[page << kDirtyPageShift], s.pages[page]->data(),
                  s.page_size(page));
    }
  }
  restore_machine_state(s);
}

bool Vm::state_equals(const Snapshot& s) const {
  assert(prog_);
  // Cheapest discriminators first: counters churn with every frame push
  // and retired instruction, so mismatched executions bail before the
  // memory-image compare.
  if (n_retired_ != s.retired || sp_ != s.sp ||
      next_activation_ != s.next_activation || status_ != s.status ||
      trap_ != s.trap) {
    return false;
  }
  if (dframes_.size() != s.frames.size() || slot_top_ != s.slots.size() ||
      arg_loc_top_ != s.arg_locs.size()) {
    return false;
  }
  if (!std::equal(s.frames.begin(), s.frames.end(), dframes_.begin())) {
    return false;
  }
  if (!std::equal(s.slots.begin(), s.slots.end(), slots_.begin())) {
    return false;
  }
  if (!std::equal(s.arg_locs.begin(), s.arg_locs.end(), arg_locs_.begin())) {
    return false;
  }
  if (outputs_ != s.outputs || region_counts_ != s.region_counts ||
      randlc_.state() != s.randlc.state()) {
    return false;
  }
  // Strided sample across the memory image before the full scan: a trial
  // that diverged in memory has usually propagated the corruption through
  // whole arrays by the time a probe runs, so a mismatch almost always
  // lands in the sample and the full-image compare is skipped. Equality
  // still requires the full compare below — the sample only fails fast.
  const std::size_t n = mem_.size();
  if (n != s.mem_size) return false;
  if (n >= 8192) {
    // 8-aligned windows never straddle a page.
    const std::size_t stride = (n / 128) & ~std::size_t{7};
    for (std::size_t i = (stride / 2) & ~std::size_t{7}; i + 8 <= n;
         i += stride) {
      const std::size_t p = i / Snapshot::kPageBytes;
      if (std::memcmp(&mem_[i], s.pages[p]->data() + i % Snapshot::kPageBytes,
                      8) != 0) {
        return false;
      }
    }
  }
  for (std::size_t p = 0; p < s.pages.size(); ++p) {
    if (std::memcmp(&mem_[p * Snapshot::kPageBytes], s.pages[p]->data(),
                    s.page_size(p)) != 0) {
      return false;
    }
  }
  return true;
}

bool Vm::control_equals(const Snapshot& s) const {
  assert(prog_);
  if (n_retired_ != s.retired || sp_ != s.sp ||
      next_activation_ != s.next_activation || status_ != s.status ||
      trap_ != s.trap) {
    return false;
  }
  if (dframes_.size() != s.frames.size() || slot_top_ != s.slots.size() ||
      arg_loc_top_ != s.arg_locs.size()) {
    return false;
  }
  if (!std::equal(s.frames.begin(), s.frames.end(), dframes_.begin())) {
    return false;
  }
  if (!std::equal(s.slots.begin(), s.slots.end(), slots_.begin())) {
    return false;
  }
  if (!std::equal(s.arg_locs.begin(), s.arg_locs.end(), arg_locs_.begin())) {
    return false;
  }
  return region_counts_ == s.region_counts &&
         randlc_.state() == s.randlc.state();
}

void Vm::set_fault(const FaultPlan& plan) noexcept {
  opts_.fault = plan;
  fault_fired_ = false;
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

void Vm::rollback(const Snapshot& s) {
  restore(s);
  // Clear any pending pause mark: both the hot loop and the JIT driver
  // fold stop_at_ into their stop limit, so a stale mark from the
  // interrupted pre-rollback run would silently cap the re-execution (and
  // misclassify the pause as a hang at the budget). The hang budget itself
  // stays the absolute max_instructions ceiling — restore() rewound
  // n_retired_, which is the other half of that comparison in every
  // engine. restore() also reset the dirty-page bitmap fully clean.
  stop_at_ = ~std::uint64_t{0};
  set_fault(FaultPlan::none());
}

RunResult Vm::run() {
  if (prog_) {
    run_until(~std::uint64_t{0});
  } else if (opts_.observer) {
    DynInstr rec;
    while (status_ == Status::Running) {
      // Trace control: skip record construction while the observer is
      // gated off, except for region markers (which toggle the gates).
      const bool deliver =
          opts_.observer->enabled() || next_is_region_marker();
      const auto before = n_retired_;
      if (step_legacy(deliver ? &rec : nullptr) == Status::Trapped) break;
      if (deliver && n_retired_ > before) {
        opts_.observer->on_instruction(rec);
      }
    }
  } else {
    while (status_ == Status::Running) step_legacy(nullptr);
  }
  return take_result();
}

RunResult Vm::take_result() {
  RunResult r;
  r.trap = trap_;
  r.instructions = n_retired_;
  r.fault_fired = fault_fired_;
  r.outputs = std::move(outputs_);
  return r;
}

RunResult Vm::run(const ir::Module& m, VmOptions opts) {
  Vm vm(m, opts);
  return vm.run();
}

RunResult Vm::run(const DecodedProgram& p, VmOptions opts) {
  Vm vm(p, opts);
  return vm.run();
}

}  // namespace ft::vm
