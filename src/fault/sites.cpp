#include "fault/sites.h"

#include "trace/collector.h"
#include "trace/events.h"

namespace ft::fault {

std::uint64_t SitePopulation::internal_bits() const {
  std::uint64_t n = 0;
  for (const auto& s : internal) n += s.width_bits;
  return n;
}

std::uint64_t SitePopulation::input_bits() const {
  std::uint64_t n = 0;
  for (const auto& s : input) n += std::uint64_t{8} * s.width_bytes;
  return n;
}

namespace {

/// Shared enumeration over either trace substrate; `tr` must expose size()
/// and slice(begin, end) over the full golden trace.
template <typename Trace>
SiteEnumerationResult enumerate_from_trace_impl(
    const Trace& tr, std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance) {
  SiteEnumerationResult out;
  out.sites.region_id = region_id;
  out.sites.instance = instance;
  out.fault_free_instructions = tr.size();

  const auto inst = trace::find_instance(instances, region_id, instance);
  if (!inst || !inst->complete) return out;
  out.region_found = true;
  out.region_entry_index = inst->enter_index;

  // Internal sites: every value committed inside the instance body.
  const auto slice = tr.slice(inst->body_begin(), inst->body_end());
  for (const vm::DynInstr& r : slice) {
    if (r.result_loc == vm::kNoLoc) continue;
    const ir::Type t = r.op == ir::Opcode::Store ? r.op_type[0] : r.type;
    const auto width = bit_width(t);
    if (width == 0) continue;
    out.sites.internal.push_back(InternalSite{r.index, width});
  }

  // Input sites: memory-resident inputs of the instance, flipped at entry.
  const auto io = regions::classify_io(slice, events, *inst);
  for (const auto& in : regions::memory_inputs(io)) {
    const auto width = store_size(in.type);
    if (width == 0) continue;
    out.sites.input.push_back(InputSite{vm::loc_address(in.loc), width});
  }
  return out;
}

}  // namespace

SiteEnumerationResult enumerate_sites_from_trace(
    trace::TraceView tr, std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance) {
  return enumerate_from_trace_impl(tr, instances, events, region_id,
                                   instance);
}

SiteEnumerationResult enumerate_sites(const ir::Module& m,
                                      std::uint32_t region_id,
                                      std::uint32_t instance,
                                      const vm::VmOptions& base) {
  trace::TraceCollector collector;
  vm::VmOptions opts = base;
  opts.observer = &collector;
  opts.fault = vm::FaultPlan::none();
  const auto run = vm::Vm::run(m, opts);
  if (!run.completed()) {
    SiteEnumerationResult out;
    out.sites.region_id = region_id;
    out.sites.instance = instance;
    out.fault_free_instructions = run.instructions;
    return out;
  }

  const auto& tr = collector.trace();
  const auto instances = trace::segment_regions(tr.span());
  const auto events = trace::LocationEvents::build(tr.span());
  auto out = enumerate_from_trace_impl(tr, instances, events, region_id,
                                       instance);
  out.fault_free_instructions = run.instructions;
  return out;
}

namespace {

// The legacy engine cannot emit a ColumnTrace, so its enumeration applies
// the per-record rule to the observer stream; only (index, width) pairs are
// kept.
class SiteObserver final : public vm::ExecObserver {
 public:
  explicit SiteObserver(std::vector<InternalSite>& out) : out_(out) {}
  void on_instruction(const vm::DynInstr& d) override {
    if (d.result_loc == vm::kNoLoc) return;
    const ir::Type t = d.op == ir::Opcode::Store ? d.op_type[0] : d.type;
    const auto width = bit_width(t);
    if (width != 0) out_.push_back(InternalSite{d.index, width});
  }

 private:
  std::vector<InternalSite>& out_;
};

}  // namespace

SiteEnumerationResult enumerate_whole_program_sites(const ir::Module& m,
                                                    const vm::VmOptions& base) {
  SiteEnumerationResult out;
  SiteObserver obs(out.sites.internal);
  vm::VmOptions opts = base;
  opts.observer = &obs;
  opts.fault = vm::FaultPlan::none();
  const auto run = vm::Vm::run(m, opts);
  out.fault_free_instructions = run.instructions;
  out.region_found = run.completed();
  if (!run.completed()) out.sites.internal.clear();
  return out;
}

SiteEnumerationResult enumerate_whole_program_sites(
    const vm::DecodedProgram& program, const vm::VmOptions& base) {
  // The ColumnTrace only borrows the program for the duration of this call.
  trace::ColumnTrace sink(std::shared_ptr<const vm::DecodedProgram>(
      std::shared_ptr<const vm::DecodedProgram>{}, &program));
  vm::VmOptions opts = base;
  opts.observer = nullptr;
  opts.column_sink = &sink;
  opts.fault = vm::FaultPlan::none();
  const auto run = vm::Vm::run(program, opts);
  if (!run.completed()) {
    SiteEnumerationResult out;
    out.fault_free_instructions = run.instructions;
    return out;
  }
  return enumerate_whole_program_sites_from_trace(sink);
}

SiteEnumerationResult enumerate_whole_program_sites_from_trace(
    const trace::ColumnTrace& golden) {
  SiteEnumerationResult out;
  out.fault_free_instructions = golden.size();
  out.region_found = true;

  // Per-pc site width in bits (0: the record commits nothing), following
  // ColumnTrace::materialize: a Load or Store always commits; Call, CondBr
  // and Emit never do; a Ret commits only through a result escape (kRet
  // marks it); every other opcode commits when it names a result register.
  constexpr std::uint8_t kRet = 0x80;
  const auto& program = golden.program();
  const auto* code = program.code();
  std::vector<std::uint8_t> width(program.code_size(), 0);
  for (std::size_t pc = 0; pc < width.size(); ++pc) {
    const vm::DecodedInstr& ins = code[pc];
    switch (ins.op) {
      case ir::Opcode::Store: {
        const vm::Src& value = program.srcs()[ins.src_begin];
        width[pc] = static_cast<std::uint8_t>(
            bit_width(ins.src_count > 0 && value.kind != vm::SrcKind::None
                          ? value.type
                          : ir::Type{}));
        break;
      }
      case ir::Opcode::Load:
        width[pc] = static_cast<std::uint8_t>(bit_width(ins.type));
        break;
      case ir::Opcode::Ret: {
        const auto w = static_cast<std::uint8_t>(bit_width(ins.type));
        width[pc] = w != 0 ? static_cast<std::uint8_t>(kRet | w) : 0;
        break;
      }
      case ir::Opcode::CondBr:
      case ir::Opcode::Emit:
      case ir::Opcode::EmitTrunc:
      case ir::Opcode::Call:
        break;
      default:
        if (ins.result != ir::kNoReg) {
          width[pc] = static_cast<std::uint8_t>(bit_width(ins.type));
        }
        break;
    }
  }

  // Two passes of one row rule: count, then fill a vector of exactly that
  // size (a growing vector would copy the population several times over).
  const auto cols = golden.raw();
  const auto for_each_site = [&](auto&& visit) {
    std::size_t e = 0;  // escape cursor (extras are in row order)
    for (std::size_t row = 0; row < cols.rows; ++row) {
      const std::uint8_t w = width[cols.pc[row]];
      if (w == 0) continue;
      if (w & kRet) {
        while (e < cols.num_extras && cols.extras[e].row < row) ++e;
        std::uint64_t loc = vm::kNoLoc;
        for (std::size_t k = e;
             k < cols.num_extras && cols.extras[k].row == row; ++k) {
          if (cols.extras[k].slot == trace::ColumnTrace::kResultSlot) {
            loc = cols.extras[k].loc;
          }
        }
        if (loc == vm::kNoLoc) continue;
      }
      visit(row, static_cast<std::uint32_t>(w & ~kRet));
    }
  };
  std::size_t n = 0;
  for_each_site([&](std::size_t, std::uint32_t) { ++n; });
  auto& internal = out.sites.internal;
  internal.reserve(n);
  for_each_site([&](std::size_t row, std::uint32_t w) {
    internal.push_back(InternalSite{row, w});
  });
  return out;
}

vm::FaultPlan plan_for_internal(const InternalSite& s, std::uint32_t bit) {
  return vm::FaultPlan::result_bit(s.dyn_index, bit % s.width_bits);
}

vm::FaultPlan plan_for_input(const SitePopulation& pop, const InputSite& s,
                             std::uint32_t bit) {
  return vm::FaultPlan::region_input_bit(pop.region_id, pop.instance,
                                         s.address, s.width_bytes,
                                         bit % (s.width_bytes * 8));
}

}  // namespace ft::fault
