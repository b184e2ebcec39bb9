// Decoded engine: one interpreter loop over the flat pre-resolved
// instruction stream, run_decoded_hot, in an untraced and a column-recording
// instantiation. Its column trace must stay record-by-record identical to
// the legacy engine's observer stream — tests/decode_test.cpp and
// tests/column_trace_test.cpp pin that across all ten workloads — and its
// machine state bit-identical to the JIT backend (tests/engine_fuzz_test.cpp
// pins both on generated programs).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "trace/column.h"
#include "util/bits.h"
#include "vm/interp.h"
#include "vm/interp_shared.h"

namespace ft::vm {

using ir::CmpPred;
using ir::Opcode;
using ir::Type;
using util::bits_to_f32;
using util::bits_to_f64;
using util::f32_to_bits;
using util::f64_to_bits;

Vm::OpVal Vm::eval_src(const Src& s, const DFrame& fr) const {
  switch (s.kind) {
    case SrcKind::Reg:
      return {slots_[fr.reg_base + s.index], reg_loc(fr.activation, s.index),
              s.type};
    case SrcKind::Arg:
      return {slots_[fr.arg_base + s.index],
              arg_locs_[fr.arg_loc_base + s.index], s.type};
    case SrcKind::Const:
      return {s.bits, kNoLoc, s.type};
    case SrcKind::None:
      break;
  }
  return {};
}

void Vm::push_dframe(const DecodedInstr& call_ins, const DFrame& caller) {
  const auto func = static_cast<std::uint32_t>(call_ins.aux);
  const DecodedFunction& callee = prog_->function(func);
  DFrame fr;
  fr.func = func;
  fr.activation = next_activation_++;
  fr.pc = callee.entry_pc;
  fr.reg_base = slot_top_;
  fr.arg_base = slot_top_ + callee.num_regs;
  fr.arg_loc_base = arg_loc_top_;
  fr.nargs = call_ins.src_count;
  fr.saved_sp = sp_;
  fr.ret_reg = call_ins.result;

  const std::uint32_t new_top = fr.arg_base + fr.nargs;
  if (slots_.size() < new_top) slots_.resize(new_top);
  if (arg_locs_.size() < arg_loc_top_ + fr.nargs) {
    arg_locs_.resize(arg_loc_top_ + fr.nargs);
  }
  std::fill(slots_.begin() + fr.reg_base, slots_.begin() + fr.arg_base, 0);

  const Src* const args = prog_->srcs() + call_ins.src_begin;
  for (std::uint32_t i = 0; i < fr.nargs; ++i) {
    const OpVal v = eval_src(args[i], caller);
    slots_[fr.arg_base + i] = v.bits;
    arg_locs_[fr.arg_loc_base + i] = v.loc;
  }
  slot_top_ = new_top;
  arg_loc_top_ += fr.nargs;
  dframes_.push_back(fr);
}

// ---------------------------------------------------------------------------
// Decoded hot loop: the only interpreter of the decoded engine. Every
// campaign trial, every traced run and the lockstep diff's windows
// (acl/diff.cpp) run here; the JIT steps through it at deopt sites. Machine
// state (retired count, current frame, code/operand base pointers) lives in
// locals; dispatch is computed goto where the toolchain supports
// labels-as-values (each opcode body ends in its own indirect jump, so the
// branch predictor learns per-opcode successor patterns), with a
// dense-opcode switch fallback elsewhere.
//
// Two instantiations:
//   * Traced == false — the campaign path (nothing recorded);
//   * Traced == true  — direct emission into VmOptions::column_sink: each
//     fetched instruction opens a columnar record (pc, activation, packed
//     operand bits), results land via set_result at commit time, and a
//     record whose instruction traps mid-flight is rolled back at `done`.
//     No DynInstr is materialized and no virtual observer dispatch runs.
//
// Semantics must stay identical to the legacy engine's step_legacy —
// tests/decode_test.cpp pins the column trace and the untraced results
// against the legacy observer stream for all ten workloads, clean and
// faulted, and tests/column_trace_test.cpp pins the materialized records
// (crashing runs included).
// ---------------------------------------------------------------------------

#if !defined(FT_VM_NO_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define FT_VM_COMPUTED_GOTO 1
#else
#define FT_VM_COMPUTED_GOTO 0
#endif

template <bool Traced>
void Vm::run_decoded_hot() {
  if (status_ != Status::Running) return;

  const DecodedInstr* const code = prog_->code();
  const Src* const srcs_all = prog_->srcs();
  const std::uint64_t max_instr = opts_.max_instructions;
  // One compare serves both the hang budget and run_until()'s pause mark;
  // which of the two was hit is decided once, at `limit_reached`.
  const std::uint64_t stop_limit = std::min(max_instr, stop_at_);
  const bool fault_rb = opts_.fault.kind == FaultPlan::Kind::ResultBit;
  const bool track_writes = !dirty_.empty();
  // Dispatch counters (VmOptions::count_opcodes): one increment per fetch,
  // kept out of the common path by the null check.
  std::uint64_t* const opcount =
      opcode_counts_.empty() ? nullptr : opcode_counts_.data();
  std::uint64_t retired = n_retired_;
  DFrame* fr = &dframes_.back();
  const DecodedInstr* ins = nullptr;
  const Src* srcs = nullptr;
  trace::ColumnTrace* const sink = opts_.column_sink;
  (void)sink;  // only the Traced instantiation reads it
  // Retired count of the sink's row 0: zero on a fresh run, the resume
  // point when a run_until()-paused traced machine continues.
  std::uint64_t trace_base = 0;
  if constexpr (Traced) trace_base = retired - sink->size();
  (void)trace_base;

  // Operand value (bits only — locations are derived or escaped at emit
  // time). Const and None read the pre-computed bits; None carries 0,
  // matching the legacy engine's empty evaluation of absent operands.
  const auto val = [&](const Src& s) -> std::uint64_t {
    switch (s.kind) {
      case SrcKind::Reg: return slots_[fr->reg_base + s.index];
      case SrcKind::Arg: return slots_[fr->arg_base + s.index];
      default: return s.bits;
    }
  };
  // Fault application at commit time; `retired` is this instruction's
  // dynamic index (pre-increment), exactly as maybe_flip_result sees it.
  const auto flip = [&](std::uint64_t& bits) {
    if (fault_rb && !fault_fired_ && retired == opts_.fault.dyn_index) {
      bits = util::flip_bit(bits, opts_.fault.bit);
      fault_fired_ = true;
    }
  };
  // Commit a register-defining result (every defining opcode flips here,
  // mirroring the has_res path of the legacy engine). Traced: the
  // committed bits are the record's result column.
  const auto commit = [&](std::uint64_t bits) {
    flip(bits);
    slots_[fr->reg_base + ins->result] = bits;
    if constexpr (Traced) sink->set_result(bits);
  };
  // Open the columnar record of the fetched instruction: pc + activation
  // fixed columns, operand values into the packed pool, caller-provided
  // Arg locations into the escape list. Runs before the handler, so
  // operand values are read pre-commit (a = add a, b records the old a).
  const auto emit_record = [&] {
    if constexpr (Traced) {
      sink->begin_record(fr->pc, fr->activation);
      const auto nrec = std::min<unsigned>(ins->src_count, kMaxTracedOps);
      for (unsigned i = 0; i < nrec; ++i) {
        const Src& s = srcs[i];
        if (s.kind == SrcKind::None) continue;
        sink->push_op(val(s));
        if (s.kind == SrcKind::Arg) {
          sink->push_op_loc(static_cast<std::uint8_t>(i),
                            arg_locs_[fr->arg_loc_base + s.index]);
        }
      }
    }
  };

  static_assert(static_cast<int>(Opcode::CheckTrap) == 49,
                "opcode set changed: update the hot-loop dispatch table");

#if FT_VM_COMPUTED_GOTO
  static const void* const kOpTable[] = {
      &&op_Add, &&op_Sub, &&op_Mul, &&op_SDiv, &&op_SRem,
      &&op_And, &&op_Or, &&op_Xor, &&op_Shl, &&op_LShr, &&op_AShr,
      &&op_FAdd, &&op_FSub, &&op_FMul, &&op_FDiv,
      &&op_FNeg, &&op_FSqrt, &&op_FAbs, &&op_FFloor,
      &&op_ICmp, &&op_FCmp, &&op_Select,
      &&op_Trunc, &&op_SExt, &&op_ZExt, &&op_FPTrunc, &&op_FPExt,
      &&op_FPToSI, &&op_SIToFP, &&op_Bitcast,
      &&op_Alloca, &&op_Load, &&op_Store, &&op_Gep,
      &&op_Br, &&op_CondBr, &&op_Ret, &&op_Call,
      &&op_Rand, &&op_Emit, &&op_EmitTrunc, &&op_RegionEnter, &&op_RegionExit,
      &&op_MpiRank, &&op_MpiSize, &&op_MpiSend, &&op_MpiRecv,
      &&op_MpiAllreduce, &&op_MpiBarrier,
      &&op_CheckTrap,
  };
#define FT_OP(name) op_##name
#define FT_NEXT()                                            \
  do {                                                       \
    if (++retired >= stop_limit) goto limit_reached;         \
    ins = &code[fr->pc];                                     \
    srcs = srcs_all + ins->src_begin;                        \
    if (opcount) ++opcount[static_cast<std::uint8_t>(ins->op)]; \
    emit_record();                                           \
    goto* kOpTable[static_cast<std::uint8_t>(ins->op)];      \
  } while (0)

  if (retired >= stop_limit) goto limit_reached;
  ins = &code[fr->pc];
  srcs = srcs_all + ins->src_begin;
  if (opcount) ++opcount[static_cast<std::uint8_t>(ins->op)];
  emit_record();
  goto* kOpTable[static_cast<std::uint8_t>(ins->op)];
#else
#define FT_OP(name) case Opcode::name
#define FT_NEXT()                                            \
  {                                                          \
    ++retired;                                               \
    break;                                                   \
  }

  for (;;) {
    if (retired >= stop_limit) goto limit_reached;
    ins = &code[fr->pc];
    srcs = srcs_all + ins->src_begin;
    if (opcount) ++opcount[static_cast<std::uint8_t>(ins->op)];
    emit_record();
    switch (ins->op) {
#endif

  FT_OP(Add) : {
    commit(canon_int(val(srcs[0]) + val(srcs[1]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Sub) : {
    commit(canon_int(val(srcs[0]) - val(srcs[1]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Mul) : {
    commit(canon_int(val(srcs[0]) * val(srcs[1]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(SDiv) : FT_OP(SRem) : {
    const auto ia = static_cast<std::int64_t>(val(srcs[0]));
    const auto ib = static_cast<std::int64_t>(val(srcs[1]));
    if (ib == 0) {
      set_trap(TrapKind::DivByZero);
      goto done;
    }
    if (ia == std::numeric_limits<std::int64_t>::min() && ib == -1) {
      set_trap(TrapKind::IntOverflowDiv);
      goto done;
    }
    const std::int64_t r = ins->op == Opcode::SDiv ? ia / ib : ia % ib;
    commit(canon_int(static_cast<std::uint64_t>(r), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(And) : {
    commit(canon_int(val(srcs[0]) & val(srcs[1]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Or) : {
    commit(canon_int(val(srcs[0]) | val(srcs[1]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Xor) : {
    commit(canon_int(val(srcs[0]) ^ val(srcs[1]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Shl) : FT_OP(LShr) : FT_OP(AShr) : {
    const unsigned width = bit_width(ins->type);
    const std::uint64_t x = val(srcs[0]);
    const std::uint64_t amt = val(srcs[1]);
    if (amt >= width) {
      set_trap(TrapKind::BadShift);
      goto done;
    }
    std::uint64_t r;
    if (ins->op == Opcode::Shl) {
      r = canon_int(x << amt, ins->type);
    } else if (ins->op == Opcode::LShr) {
      r = canon_int(util::truncate_to(x, width) >> amt, ins->type);
    } else {
      r = canon_int(static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(x) >> amt),
                    ins->type);
    }
    commit(r);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(FAdd) : FT_OP(FSub) : FT_OP(FMul) : FT_OP(FDiv) : {
    const std::uint64_t xb = val(srcs[0]), yb = val(srcs[1]);
    std::uint64_t rb;
    if (ins->type == Type::F32) {
      const float x = bits_to_f32(xb), y = bits_to_f32(yb);
      float r = 0;
      switch (ins->op) {
        case Opcode::FAdd: r = x + y; break;
        case Opcode::FSub: r = x - y; break;
        case Opcode::FMul: r = x * y; break;
        default: r = x / y; break;
      }
      rb = f32_to_bits(r);
    } else {
      const double x = bits_to_f64(xb), y = bits_to_f64(yb);
      double r = 0;
      switch (ins->op) {
        case Opcode::FAdd: r = x + y; break;
        case Opcode::FSub: r = x - y; break;
        case Opcode::FMul: r = x * y; break;
        default: r = x / y; break;
      }
      rb = f64_to_bits(r);
    }
    commit(rb);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(FNeg) : FT_OP(FSqrt) : FT_OP(FAbs) : FT_OP(FFloor) : {
    const std::uint64_t xb = val(srcs[0]);
    std::uint64_t rb;
    if (ins->type == Type::F32) {
      const float x = bits_to_f32(xb);
      float r = 0;
      switch (ins->op) {
        case Opcode::FNeg: r = -x; break;
        case Opcode::FSqrt: r = std::sqrt(x); break;
        case Opcode::FAbs: r = std::fabs(x); break;
        default: r = std::floor(x); break;
      }
      rb = f32_to_bits(r);
    } else {
      const double x = bits_to_f64(xb);
      double r = 0;
      switch (ins->op) {
        case Opcode::FNeg: r = -x; break;
        case Opcode::FSqrt: r = std::sqrt(x); break;
        case Opcode::FAbs: r = std::fabs(x); break;
        default: r = std::floor(x); break;
      }
      rb = f64_to_bits(r);
    }
    commit(rb);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(ICmp) : {
    const auto ia = static_cast<std::int64_t>(val(srcs[0]));
    const auto ib = static_cast<std::int64_t>(val(srcs[1]));
    bool r = false;
    switch (ins->pred) {
      case CmpPred::Eq: r = ia == ib; break;
      case CmpPred::Ne: r = ia != ib; break;
      case CmpPred::Lt: r = ia < ib; break;
      case CmpPred::Le: r = ia <= ib; break;
      case CmpPred::Gt: r = ia > ib; break;
      case CmpPred::Ge: r = ia >= ib; break;
      case CmpPred::None: break;
    }
    commit(r ? 1 : 0);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(FCmp) : {
    const double x = srcs[0].type == Type::F32
                         ? static_cast<double>(bits_to_f32(val(srcs[0])))
                         : bits_to_f64(val(srcs[0]));
    const double y = srcs[1].type == Type::F32
                         ? static_cast<double>(bits_to_f32(val(srcs[1])))
                         : bits_to_f64(val(srcs[1]));
    bool r = false;
    switch (ins->pred) {
      case CmpPred::Eq: r = x == y; break;
      case CmpPred::Ne: r = x != y; break;
      case CmpPred::Lt: r = x < y; break;
      case CmpPred::Le: r = x <= y; break;
      case CmpPred::Gt: r = x > y; break;
      case CmpPred::Ge: r = x >= y; break;
      case CmpPred::None: break;
    }
    commit(r ? 1 : 0);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Select) : {
    commit((val(srcs[0]) & 1) ? val(srcs[1]) : val(srcs[2]));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Trunc) : {
    commit(canon_int(val(srcs[0]), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(SExt) : {
    commit(val(srcs[0]));  // canonical form is already sign-extended
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(ZExt) : {
    commit(util::truncate_to(val(srcs[0]), bit_width(srcs[0].type)));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(FPTrunc) : {
    commit(f32_to_bits(static_cast<float>(bits_to_f64(val(srcs[0])))));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(FPExt) : {
    commit(f64_to_bits(static_cast<double>(bits_to_f32(val(srcs[0])))));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(FPToSI) : {
    const double x = srcs[0].type == Type::F32
                         ? static_cast<double>(bits_to_f32(val(srcs[0])))
                         : bits_to_f64(val(srcs[0]));
    if (std::isnan(x) || x < -9.3e18 || x > 9.3e18) {
      set_trap(TrapKind::FpDomain);
      goto done;
    }
    commit(canon_int(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(x)), ins->type));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(SIToFP) : {
    const auto x =
        static_cast<double>(static_cast<std::int64_t>(val(srcs[0])));
    commit(ins->type == Type::F32 ? f32_to_bits(static_cast<float>(x))
                                  : f64_to_bits(x));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Bitcast) : {
    const std::uint64_t x = val(srcs[0]);
    std::uint64_t r;
    if (ins->type == Type::I32) {
      r = canon_int(x, ins->type);  // keep I32 canonical (sign-extended)
    } else {
      r = bit_width(ins->type) == 32 ? util::truncate_to(x, 32) : x;
    }
    commit(r);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Alloca) : {
    const auto size = static_cast<std::uint64_t>(ins->aux);
    const std::uint64_t aligned = (sp_ + 7) & ~std::uint64_t{7};
    if (aligned + size > mem_.size()) {
      set_trap(TrapKind::StackOverflow);
      goto done;
    }
    sp_ = aligned + size;
    commit(aligned);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Load) : {
    const std::uint64_t addr = val(srcs[0]);
    const auto size = store_size(ins->type);
    if (!mem_ok(addr, size)) {
      set_trap(TrapKind::OutOfBounds);
      goto done;
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, &mem_[addr], size);
    const std::uint64_t loaded =
        is_int(ins->type) ? canon_int(bits, ins->type) : bits;
    commit(loaded);
    if constexpr (Traced) {
      // Rare escape: a result-bit fault on this very load makes the
      // recorded memory-cell operand (pre-flip) differ from the result.
      if (slots_[fr->reg_base + ins->result] != loaded) {
        sink->set_load_value(loaded);
      }
    }
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Store) : {
    const std::uint64_t addr = val(srcs[1]);
    const auto size = store_size(srcs[0].type);
    if (!mem_ok(addr, size)) {
      set_trap(TrapKind::OutOfBounds);
      goto done;
    }
    std::uint64_t bits = val(srcs[0]);
    flip(bits);
    std::memcpy(&mem_[addr], &bits, size);
    if (track_writes) mark_dirty(addr, size);
    if constexpr (Traced) sink->set_result(bits);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Gep) : {
    // Unsigned multiply: a fault-corrupted index can overflow, and two's
    // complement wraparound (not signed-overflow UB) is the semantic all
    // three engines share.
    const std::uint64_t base = val(srcs[0]);
    commit(base + val(srcs[1]) * static_cast<std::uint64_t>(ins->aux));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Br) : {
    fr->pc = ins->target_taken;
    FT_NEXT();
  }
  FT_OP(CondBr) : {
    fr->pc = (val(srcs[0]) & 1) != 0 ? ins->target_taken : ins->target_fall;
    FT_NEXT();
  }
  FT_OP(Ret) : {
    const std::uint64_t ret_bits = ins->src_count > 0 ? val(srcs[0]) : 0;
    if (dframes_.size() == 1) {
      status_ = Status::Finished;
      ++retired;
      goto done;
    }
    sp_ = fr->saved_sp;
    const std::uint32_t dest_reg = fr->ret_reg;
    slot_top_ = fr->reg_base;
    arg_loc_top_ = fr->arg_loc_base;
    dframes_.pop_back();
    fr = &dframes_.back();
    if (dest_reg != ir::kNoReg) {
      std::uint64_t bits = ret_bits;
      flip(bits);
      slots_[fr->reg_base + dest_reg] = bits;
      if constexpr (Traced) {
        sink->set_result(bits);
        sink->set_result_loc(reg_loc(fr->activation, dest_reg));
      }
    }
    FT_NEXT();
  }
  FT_OP(Call) : {
    if (dframes_.size() >= opts_.max_call_depth) {
      set_trap(TrapKind::CallDepth);
      goto done;
    }
    fr->pc++;  // resume point after return
    push_dframe(*ins, *fr);
    fr = &dframes_.back();
    FT_NEXT();
  }
  FT_OP(Rand) : {
    commit(f64_to_bits(randlc_.next()));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(Emit) : {
    const std::uint64_t bits = val(srcs[0]);
    outputs_.push_back({bits, srcs[0].type});
    // The emitted bits are the record's comparable result (no location).
    if constexpr (Traced) sink->set_result(bits);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(EmitTrunc) : {
    const double x = srcs[0].type == Type::F32
                         ? static_cast<double>(bits_to_f32(val(srcs[0])))
                         : bits_to_f64(val(srcs[0]));
    const double r = detail::round_to_digits(x, static_cast<int>(ins->aux));
    outputs_.push_back({f64_to_bits(r), Type::F64});
    if constexpr (Traced) sink->set_result(f64_to_bits(r));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(RegionEnter) : {
    const auto rid = static_cast<std::uint32_t>(ins->aux);
    apply_region_entry_fault(rid);
    region_counts_[rid]++;
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(RegionExit) : {
    fr->pc++;
    FT_NEXT();
  }
  // MiniMPI: a null endpoint is a single-rank world (interp_shared.h states
  // the exact semantics once for all engines).
  FT_OP(MpiRank) : {
    commit(static_cast<std::uint64_t>(detail::mpi_rank_of(opts_.mpi)));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(MpiSize) : {
    commit(static_cast<std::uint64_t>(detail::mpi_size_of(opts_.mpi)));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(MpiSend) : {
    detail::mpi_send_on(opts_.mpi, static_cast<std::int64_t>(val(srcs[0])),
                        bits_to_f64(val(srcs[1])));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(MpiRecv) : {
    commit(f64_to_bits(detail::mpi_recv_on(
        opts_.mpi, static_cast<std::int64_t>(val(srcs[0])))));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(MpiAllreduce) : {
    commit(f64_to_bits(detail::mpi_allreduce_on(
        opts_.mpi, bits_to_f64(val(srcs[0])),
        static_cast<ir::ReduceOp>(ins->aux))));
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(MpiBarrier) : {
    detail::mpi_barrier_on(opts_.mpi);
    fr->pc++;
    FT_NEXT();
  }
  FT_OP(CheckTrap) : {
    // Hardening detector: the trapping instruction never retires, so a
    // firing detector rolls its partial record back like every other trap.
    if ((val(srcs[0]) & 1) != 0) {
      set_trap(TrapKind::DetectedFault);
      goto done;
    }
    fr->pc++;
    FT_NEXT();
  }

#if !FT_VM_COMPUTED_GOTO
    }
  }
#endif
#undef FT_OP
#undef FT_NEXT

limit_reached:
  // Reaching run_until()'s pause mark is not a trap: the machine stays
  // Running and a later run resumes here. Only the hang budget traps.
  if (retired >= max_instr) set_trap(TrapKind::Hang);
done:
  n_retired_ = retired;
  // A record is opened per *fetched* instruction; an instruction that
  // trapped mid-execution did not retire, so its partial record rolls back.
  // Rows are counted relative to the sink (a resumed machine appends its
  // suffix to whatever the sink already holds).
  if constexpr (Traced) sink->truncate_to(retired - trace_base);
}

template void Vm::run_decoded_hot<true>();
template void Vm::run_decoded_hot<false>();

void Vm::run_until(std::uint64_t target) {
  assert(prog_ && "run_until drives the decoded engine only");
  stop_at_ = target;
  if (opts_.column_sink) {
    run_decoded_hot<true>();
  } else if (opts_.jit && opcode_counts_.empty()) {
    run_jit();
  } else {
    run_decoded_hot<false>();
  }
  stop_at_ = ~std::uint64_t{0};
}

}  // namespace ft::vm
