#include "trace/column.h"

namespace ft::trace {

using vm::SrcKind;

std::size_t ColumnTrace::extras_lower_bound(std::uint64_t row) const {
  const Extra* const extras = extras_col();
  std::size_t lo = 0, hi = num_extras();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (extras[mid].row < row) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ColumnTrace::materialize(std::size_t row, vm::DynInstr& out) const {
  const vm::DecodedInstr& ins = prog_->code()[pc_col()[row]];
  out = vm::DynInstr{};
  out.index = row;
  out.func = ins.func;
  out.block = ins.block;
  out.instr = ins.instr;
  out.op = ins.op;
  out.pred = ins.pred;
  out.type = ins.type;
  out.nops = ins.nops;
  out.line = ins.line;
  out.aux = ins.aux;

  const std::uint64_t act = activation_col()[row];
  const vm::Src* const srcs = prog_->srcs() + ins.src_begin;
  const std::uint64_t* const pool = op_bits_col() + ops_offset_col()[row];
  const std::uint64_t* const results = result_bits_col();
  const Extra* const extras = extras_col();

  // Escaped locations of this row (rare: Arg operands, Ret commits).
  vm::Location esc_op[vm::kMaxTracedOps] = {vm::kNoLoc, vm::kNoLoc,
                                            vm::kNoLoc};
  vm::Location esc_result = vm::kNoLoc;
  std::uint64_t load_value = results[row];
  if (num_extras() != 0) {
    for (auto e = extras_lower_bound(row);
         e < num_extras() && extras[e].row == row; ++e) {
      switch (extras[e].slot) {
        case kResultSlot: esc_result = extras[e].loc; break;
        case kLoadValueSlot: load_value = extras[e].loc; break;
        default:
          esc_op[static_cast<std::size_t>(extras[e].slot)] = extras[e].loc;
          break;
      }
    }
  }
  const auto src_loc = [&](const vm::Src& s, unsigned src_slot) {
    return s.kind == SrcKind::Arg ? esc_op[src_slot] : derived_src_loc(s, act);
  };

  if (ins.op == ir::Opcode::Load) {
    // Record shape: [0] = the memory cell (loaded value), [1] = pointer dep.
    // The pool holds the pointer value; the loaded value is the result.
    const std::uint64_t ptr = pool[0];
    out.nops = 2;
    out.mem_addr = ptr;
    out.mem_size = store_size(ins.type);
    out.op_loc[0] = vm::mem_loc(ptr);
    out.op_bits[0] = load_value;  // pre-flip loaded value (== result unless
                                  // the fault flipped this very load)
    out.op_type[0] = ins.type;
    out.op_loc[1] = src_loc(srcs[0], 0);
    out.op_bits[1] = ptr;
    out.op_type[1] = ir::Type::Ptr;
    out.result_loc = vm::reg_loc(act, ins.result);
    out.result_bits = results[row];
    return;
  }

  const auto nrec = std::min<unsigned>(ins.src_count, vm::kMaxTracedOps);
  unsigned k = 0;
  for (unsigned i = 0; i < nrec; ++i) {
    const vm::Src& s = srcs[i];
    if (s.kind == SrcKind::None) continue;  // block/absent: slot stays empty
    out.op_bits[i] = pool[k++];
    out.op_type[i] = s.type;
    out.op_loc[i] = src_loc(s, i);
  }

  switch (ins.op) {
    case ir::Opcode::Store:
      // op slots: [0] = stored value (pre-flip), [1] = address; the result
      // column carries the committed (post-flip) bits.
      out.mem_addr = out.op_bits[1];
      out.mem_size = store_size(srcs[0].type);
      out.result_loc = vm::mem_loc(out.op_bits[1]);
      out.result_bits = results[row];
      break;
    case ir::Opcode::CondBr:
      out.branch_taken = (out.op_bits[0] & 1) != 0;
      break;
    case ir::Opcode::Ret:
      if (esc_result != vm::kNoLoc) {
        out.result_loc = esc_result;
        out.result_bits = results[row];
      }
      break;
    case ir::Opcode::Emit:
    case ir::Opcode::EmitTrunc:
      // Emitted bits are exposed for differential comparison, no location.
      out.result_bits = results[row];
      break;
    case ir::Opcode::Call:
      break;  // the result is committed (and recorded) by the matching Ret
    default:
      if (ins.result != ir::kNoReg) {
        out.result_loc = vm::reg_loc(act, ins.result);
        out.result_bits = results[row];
      }
      break;
  }
}

}  // namespace ft::trace
