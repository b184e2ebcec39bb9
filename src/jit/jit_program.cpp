// Template compiler: one fixed x86-64 sequence per decoded instruction.
//
// Register conventions inside compiled code (established by the prologue,
// preserved across every template):
//   rbx = JitContext*          r12 = memory image base
//   r13 = frame_base           r14 = retired count
//   r15 = stop_limit
// rax/rcx/rdx/rsi/rdi and xmm0/xmm1 are template scratch. Values live in
// the interpreter's canonical in-register form (vm::canon_int), so slots
// written natively are bit-identical to interpreter-written slots.
//
// The native frame holds three qwords at [rsp], [rsp+8] and [rsp+16]: for
// access sizes 1, 4 and 8, the number of valid start offsets above
// kGlobalBase (memory_size - size - kGlobalBase + 1, clamped at 0). The
// prologue fills them, so a bounds check is one unsigned compare of
// addr - kGlobalBase against its slot.
//
// Every pc's code begins with the pause guard (cmp r14, r15; jae — the hot
// loop's stop check) so entries()[pc] is a valid resume point and branch
// targets need no special casing. Bodies retire by inc r14 and fall
// through (or rel32-jump) to the next pc's guard. Trapping paths exit
// BEFORE the inc — a trapping instruction does not retire, exactly as in
// the interpreter.
//
// The path of an instruction that does not trap falls straight through:
// every exit (pause, trap, top-level Ret) and every rare case (a store that
// crosses a page, a division by -1) is a jcc rel32 to an out-of-line thunk
// emitted after the last pc's code. A thunk that does not exit jumps back.
#include "jit/jit_program.h"

#include <cstdlib>
#include <cstring>
#include <functional>

#include "ir/type.h"
#include "jit/x64_emitter.h"
#include "util/bits.h"
#include "vm/decode.h"
#include "vm/trap.h"

namespace ft::jit {

namespace {

using ir::CmpPred;
using ir::Opcode;
using ir::Type;
using vm::DecodedInstr;
using vm::Src;
using vm::SrcKind;
using vm::TrapKind;

// JitContext field displacements (pinned by the static_asserts in
// jit_runtime.h), named for readability at the emission sites.
constexpr std::int32_t kCtxMem = 0x08;
constexpr std::int32_t kCtxMemSize = 0x10;
constexpr std::int32_t kCtxStopLimit = 0x18;
constexpr std::int32_t kCtxRetired = 0x20;
constexpr std::int32_t kCtxFrameBase = 0x28;
constexpr std::int32_t kCtxEntryPc = 0x30;
constexpr std::int32_t kCtxExitPc = 0x38;
constexpr std::int32_t kCtxExitReason = 0x3c;
constexpr std::int32_t kCtxExitTrap = 0x40;
constexpr std::int32_t kCtxTrackWrites = 0x44;
constexpr std::int32_t kCtxDirty = 0x48;
constexpr std::int32_t kCtxEntries = 0x50;

/// Frame slot holding the bounds limit of a `size`-byte access.
constexpr std::int32_t limit_slot(std::uint32_t size) noexcept {
  return size == 1 ? 0 : size == 4 ? 8 : 16;
}
constexpr std::int8_t kFrameBytes = 24;  // three limits; keeps rsp%16 == 0

template <typename F>
std::uint64_t fn_addr(F* fn) {
  return reinterpret_cast<std::uint64_t>(fn);
}

/// Emission state threaded through the per-opcode templates.
struct Compiler {
  X64Emitter a;
  const vm::DecodedProgram& prog;
  std::vector<std::size_t> pc_offset;          // code offset of each pc's guard
  std::vector<std::pair<std::size_t, std::uint32_t>> pc_fixups;  // rel32 -> pc
  std::vector<std::pair<std::size_t, std::uint32_t>> pause_exits;  // rel32 -> pc
  /// A trap exit: rel32 of the jcc, trapping pc, and the kind to record
  /// (None when a helper already stored ctx->exit_trap).
  struct TrapExit {
    std::size_t fixup;
    std::uint32_t pc;
    TrapKind kind;
  };
  std::vector<TrapExit> trap_exits;
  /// A rare case: rel32 of the jcc, the fall-through offset it may return
  /// to, and the code to emit out of line.
  struct ColdPath {
    std::size_t fixup;
    std::size_t resume;
    std::function<void(std::size_t resume)> body;
  };
  std::vector<ColdPath> cold_paths;
  std::size_t pause_stub = 0;
  std::size_t trap_stub = 0;
  std::size_t finish_stub = 0;
  std::size_t deopt_stub = 0;

  explicit Compiler(const vm::DecodedProgram& p) : prog(p) {}

  /// rel32 jump to the guard of `pc` (target offset patched after emission).
  void jmp_pc(std::uint32_t pc) {
    pc_fixups.emplace_back(a.jmp32(0), pc);
  }
  void jcc_pc(Cc cc, std::uint32_t pc) {
    pc_fixups.emplace_back(a.jcc32(cc, 0), pc);
  }

  /// Load operand `s` of an instruction in function `func` into `dst`.
  void load_src(const Src& s, Reg dst, std::uint32_t func) {
    switch (s.kind) {
      case SrcKind::Reg:
        a.load64(dst, R13, static_cast<std::int32_t>(s.index) * 8);
        break;
      case SrcKind::Arg: {
        const std::uint32_t num_regs = prog.function(func).num_regs;
        a.load64(dst, R13,
                 static_cast<std::int32_t>(num_regs + s.index) * 8);
        break;
      }
      case SrcKind::Const:
        a.mov_ri64(dst, s.bits);
        break;
      case SrcKind::None:
        a.alu_rr(ALU_XOR, dst, dst);
        break;
    }
  }

  /// Canonicalize rax to the in-register form of integer type `t`.
  void canon(Type t) {
    if (t == Type::I32) {
      a.movsxd(RAX, RAX);
    } else if (t == Type::I1) {
      a.alu_ri8(ALU_AND, RAX, 1);
    }
  }

  /// Store rax into the instruction's result register and retire.
  void commit(const DecodedInstr& ins) {
    if (ins.result != ir::kNoReg) {
      a.store64(R13, static_cast<std::int32_t>(ins.result) * 8, RAX);
    }
    a.inc_r(R14);
  }

  /// Exit through the trap stub when `cc` holds, recording `kind` and the
  /// trapping pc: a jcc to a thunk emitted after the code; rax is clobbered
  /// on the way out.
  void trap_if(Cc cc, std::uint32_t pc, TrapKind kind) {
    trap_exits.push_back({a.jcc32(cc, 0), pc, kind});
  }
  /// Same, for paths where a helper already stored ctx->exit_trap.
  void trap_if_preset(Cc cc, std::uint32_t pc) {
    trap_if(cc, pc, TrapKind::None);
  }
  /// Run `body` out of line when `cc` holds; it receives the fall-through
  /// offset to jump back to (or exits).
  void cold_if(Cc cc, std::function<void(std::size_t)> body) {
    const std::size_t fixup = a.jcc32(cc, 0);
    cold_paths.push_back({fixup, a.size(), std::move(body)});
  }

  void call_helper(std::uint64_t fn) {
    a.mov_ri64(RAX, fn);
    a.call_r(RAX);
  }

  /// mem_ok(addr in `addr`, size): addr >= kGlobalBase, addr+size doesn't
  /// wrap, addr+size <= mem_size — all three at once as the 64-bit unsigned
  /// addr - kGlobalBase < (the frame's valid-offset count for `size`): an
  /// address below kGlobalBase wraps to a huge offset. Clobbers tmp only.
  void bounds_check(Reg addr, Reg tmp, std::uint32_t size, std::uint32_t pc) {
    a.lea(tmp, addr, -static_cast<std::int32_t>(ir::kGlobalBase));
    a.cmp_r_mem64(tmp, RSP, limit_slot(size));
    trap_if(CC_AE, pc, TrapKind::OutOfBounds);
  }

  /// Set the dirty-bitmap bit of the page holding byte `addr`; `bitmap`
  /// holds ctx->dirty. Plain ALU on one word: load, bts, store back.
  /// Clobbers rax, rdx, rdi.
  void mark_page(Reg bitmap, Reg addr, std::int32_t disp) {
    a.lea(RDX, addr, disp);
    a.shr_imm(RDX, 12);  // Vm::kDirtyPageShift
    a.mov_rr(RDI, RDX);
    a.shr_imm(RDI, 6);
    a.load64_bi8(RAX, bitmap, RDI);
    a.bts_rr(RAX, RDX);
    a.store64_bi8(bitmap, RDI, RAX);
  }

  /// Load the value bits of `s` (by type) into xmm as a double.
  void to_double(const Src& s, Reg gpr, Xmm x, std::uint32_t func) {
    load_src(s, gpr, func);
    if (s.type == Type::F32) {
      a.movd_xr(x, gpr);
      a.cvtss2sd(x, x);
    } else {
      a.movq_xr(x, gpr);
    }
  }
};

constexpr Cc icmp_cc(CmpPred p) noexcept {
  switch (p) {
    case CmpPred::Eq: return CC_E;
    case CmpPred::Ne: return CC_NE;
    case CmpPred::Lt: return CC_L;
    case CmpPred::Le: return CC_LE;
    case CmpPred::Gt: return CC_G;
    case CmpPred::Ge: return CC_GE;
    case CmpPred::None: break;
  }
  return CC_E;
}

void emit_prologue(Compiler& c) {
  X64Emitter& a = c.a;
  a.push(RBP);
  a.mov_rr(RBP, RSP);
  a.push(RBX);
  a.push(R12);
  a.push(R13);
  a.push(R14);
  a.push(R15);
  a.alu_ri8(ALU_SUB, RSP, kFrameBytes);  // helper calls see rsp%16 == 8
  a.mov_rr(RBX, RDI);
  // Bounds limits: max(0, memory_size - size - kGlobalBase + 1) per size.
  a.load64(RAX, RBX, kCtxMemSize);
  a.alu_rr(ALU_XOR, RDX, RDX);
  for (const std::uint32_t size : {1u, 4u, 8u}) {
    a.mov_rr(RCX, RAX);
    a.alu_ri8(ALU_SUB, RCX,
              static_cast<std::int8_t>(size + ir::kGlobalBase - 1));
    a.cmovcc(CC_B, RCX, RDX);  // fewer bytes than one access: none valid
    a.store64(RSP, limit_slot(size), RCX);
  }
  a.load64(R12, RBX, kCtxMem);
  a.load64(R13, RBX, kCtxFrameBase);
  a.load64(R14, RBX, kCtxRetired);
  a.load64(R15, RBX, kCtxStopLimit);
  a.load64(RAX, RBX, kCtxEntryPc);
  a.load64(RCX, RBX, kCtxEntries);
  a.jmp_mem_bi8(RCX, RAX);
}

void emit_stubs(Compiler& c) {
  X64Emitter& a = c.a;
  // Common exit first, so every stub's jump to it is backward and final.
  const std::size_t common_exit = a.size();
  a.store64(RBX, kCtxRetired, R14);
  a.alu_ri8(ALU_ADD, RSP, kFrameBytes);
  a.pop(R15);
  a.pop(R14);
  a.pop(R13);
  a.pop(R12);
  a.pop(RBX);
  a.pop(RBP);
  a.ret();

  // Each stub: eax carries the stopping pc; store it + the reason, leave.
  const auto stub = [&](ExitReason reason) {
    const std::size_t off = a.size();
    a.store32(RBX, kCtxExitPc, RAX);
    a.store32_imm(RBX, kCtxExitReason, static_cast<std::uint32_t>(reason));
    a.jmp32(common_exit);
    return off;
  };
  c.pause_stub = stub(ExitReason::Limit);
  c.trap_stub = stub(ExitReason::Trap);
  c.finish_stub = stub(ExitReason::Finished);
  c.deopt_stub = stub(ExitReason::Deopt);
}

/// Emit every out-of-line thunk after the last pc's code and point its jcc
/// at it: pause exits, then rare cases (which may add trap exits), then trap
/// exits. Consecutive trap exits of one pc and kind share a thunk.
void emit_thunks(Compiler& c) {
  X64Emitter& a = c.a;
  for (const auto& [fixup, pc] : c.pause_exits) {
    a.patch_rel32(fixup, a.size());
    a.mov_ri32(RAX, pc);
    a.jmp32(c.pause_stub);
  }
  for (const auto& cp : c.cold_paths) {
    a.patch_rel32(cp.fixup, a.size());
    cp.body(cp.resume);
  }
  std::size_t thunk = 0;
  for (std::size_t i = 0; i < c.trap_exits.size(); ++i) {
    const auto& e = c.trap_exits[i];
    if (i == 0 || e.pc != c.trap_exits[i - 1].pc ||
        e.kind != c.trap_exits[i - 1].kind) {
      thunk = a.size();
      if (e.kind != TrapKind::None) {
        a.store32_imm(RBX, kCtxExitTrap, static_cast<std::uint32_t>(e.kind));
      }
      a.mov_ri32(RAX, e.pc);
      a.jmp32(c.trap_stub);
    }
    a.patch_rel32(e.fixup, thunk);
  }
}

/// Emit the template of the instruction at `pc`. Returns false when the
/// opcode has no template (a deopt exit was emitted instead).
bool emit_instr(Compiler& c, std::uint32_t pc) {
  X64Emitter& a = c.a;
  const DecodedInstr& ins = c.prog.code()[pc];
  const Src* const srcs = c.prog.srcs() + ins.src_begin;
  const std::uint32_t func = ins.func;
  const Type t = ins.type;
  const auto s = [&](unsigned i) -> const Src& { return srcs[i]; };
  const auto load = [&](unsigned i, Reg dst) { c.load_src(s(i), dst, func); };

  switch (ins.op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor: {
      load(0, RAX);
      load(1, RCX);
      switch (ins.op) {
        case Opcode::Add: a.alu_rr(ALU_ADD, RAX, RCX); break;
        case Opcode::Sub: a.alu_rr(ALU_SUB, RAX, RCX); break;
        case Opcode::Mul: a.imul_rr(RAX, RCX); break;
        case Opcode::And: a.alu_rr(ALU_AND, RAX, RCX); break;
        case Opcode::Or: a.alu_rr(ALU_OR, RAX, RCX); break;
        default: a.alu_rr(ALU_XOR, RAX, RCX); break;
      }
      c.canon(t);
      c.commit(ins);
      return true;
    }

    case Opcode::SDiv:
    case Opcode::SRem: {
      load(0, RAX);
      load(1, RCX);
      a.test_rr(RCX, RCX);
      c.trap_if(CC_E, pc, TrapKind::DivByZero);
      a.alu_ri8(ALU_CMP, RCX, -1);
      c.cold_if(CC_E, [&c, pc](std::size_t resume) {
        // INT64_MIN / -1 overflows idiv; any other dividend is fine.
        c.a.mov_ri64(RDX, 0x8000000000000000ull);
        c.a.alu_rr(ALU_CMP, RAX, RDX);
        c.trap_if(CC_E, pc, TrapKind::IntOverflowDiv);
        c.a.jmp32(resume);
      });
      a.cqo();
      a.idiv_r(RCX);
      if (ins.op == Opcode::SRem) a.mov_rr(RAX, RDX);
      c.canon(t);
      c.commit(ins);
      return true;
    }

    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr: {
      const unsigned width = bit_width(t);
      load(0, RAX);
      load(1, RCX);
      a.alu_ri8(ALU_CMP, RCX, static_cast<std::int8_t>(width));
      c.trap_if(CC_AE, pc, TrapKind::BadShift);
      if (ins.op == Opcode::LShr) {
        // truncate_to(x, width) before the logical shift.
        if (t == Type::I32) a.mov_rr32(RAX, RAX);
        if (t == Type::I1) a.alu_ri8(ALU_AND, RAX, 1);
      }
      a.shift_cl(ins.op == Opcode::Shl   ? 4
                 : ins.op == Opcode::LShr ? 5
                                          : 7,
                 RAX);
      c.canon(t);
      c.commit(ins);
      return true;
    }

    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      load(0, RAX);
      load(1, RCX);
      if (t == Type::F32) {
        a.movd_xr(XMM0, RAX);
        a.movd_xr(XMM1, RCX);
        switch (ins.op) {
          case Opcode::FAdd: a.addss(XMM0, XMM1); break;
          case Opcode::FSub: a.subss(XMM0, XMM1); break;
          case Opcode::FMul: a.mulss(XMM0, XMM1); break;
          default: a.divss(XMM0, XMM1); break;
        }
        a.movd_rx(RAX, XMM0);
      } else {
        a.movq_xr(XMM0, RAX);
        a.movq_xr(XMM1, RCX);
        switch (ins.op) {
          case Opcode::FAdd: a.addsd(XMM0, XMM1); break;
          case Opcode::FSub: a.subsd(XMM0, XMM1); break;
          case Opcode::FMul: a.mulsd(XMM0, XMM1); break;
          default: a.divsd(XMM0, XMM1); break;
        }
        a.movq_rx(RAX, XMM0);
      }
      c.commit(ins);
      return true;
    }

    case Opcode::FNeg:
    case Opcode::FAbs: {
      // IEEE sign-bit ops, done as integer masking (how compilers lower
      // -x / fabs(x); NaN payloads pass through bit-exactly).
      load(0, RAX);
      const bool neg = ins.op == Opcode::FNeg;
      if (t == Type::F32) {
        if (neg) {
          a.alu32_ri32(ALU_XOR, RAX, 0x80000000u);
        } else {
          a.alu32_ri32(ALU_AND, RAX, 0x7fffffffu);
        }
      } else {
        a.mov_ri64(RCX, neg ? 0x8000000000000000ull : 0x7fffffffffffffffull);
        a.alu_rr(neg ? ALU_XOR : ALU_AND, RAX, RCX);
      }
      c.commit(ins);
      return true;
    }

    case Opcode::FSqrt: {
      load(0, RAX);
      if (t == Type::F32) {
        a.movd_xr(XMM0, RAX);
        a.sqrtss(XMM0, XMM0);
        a.movd_rx(RAX, XMM0);
      } else {
        a.movq_xr(XMM0, RAX);
        a.sqrtsd(XMM0, XMM0);
        a.movq_rx(RAX, XMM0);
      }
      c.commit(ins);
      return true;
    }

    case Opcode::FFloor: {
      load(0, RDI);
      c.call_helper(fn_addr(t == Type::F32 ? &ft_jit_helper_floor32 : &ft_jit_helper_floor64));
      c.commit(ins);
      return true;
    }

    case Opcode::ICmp: {
      if (ins.pred == CmpPred::None) {
        a.alu_rr(ALU_XOR, RAX, RAX);
      } else {
        load(0, RAX);
        load(1, RCX);
        a.alu_rr(ALU_CMP, RAX, RCX);
        a.setcc(icmp_cc(ins.pred), RAX);
        a.movzx8(RAX, RAX);
      }
      c.commit(ins);
      return true;
    }

    case Opcode::FCmp: {
      if (ins.pred == CmpPred::None) {
        a.alu_rr(ALU_XOR, RAX, RAX);
        c.commit(ins);
        return true;
      }
      c.to_double(s(0), RAX, XMM0, func);
      c.to_double(s(1), RCX, XMM1, func);
      // Ordered C comparisons: unordered (NaN) compares false everywhere
      // except Ne. Lt/Le compare operands swapped so the one NaN-aware
      // flag pattern (CF) decides.
      switch (ins.pred) {
        case CmpPred::Eq:
          a.ucomisd(XMM0, XMM1);
          a.setcc(CC_E, RAX);
          a.setcc(CC_NP, RCX);
          a.movzx8(RAX, RAX);
          a.movzx8(RCX, RCX);
          a.alu_rr(ALU_AND, RAX, RCX);
          break;
        case CmpPred::Ne:
          a.ucomisd(XMM0, XMM1);
          a.setcc(CC_NE, RAX);
          a.setcc(CC_P, RCX);
          a.movzx8(RAX, RAX);
          a.movzx8(RCX, RCX);
          a.alu_rr(ALU_OR, RAX, RCX);
          break;
        case CmpPred::Lt:
          a.ucomisd(XMM1, XMM0);
          a.setcc(CC_A, RAX);
          a.movzx8(RAX, RAX);
          break;
        case CmpPred::Le:
          a.ucomisd(XMM1, XMM0);
          a.setcc(CC_AE, RAX);
          a.movzx8(RAX, RAX);
          break;
        case CmpPred::Gt:
          a.ucomisd(XMM0, XMM1);
          a.setcc(CC_A, RAX);
          a.movzx8(RAX, RAX);
          break;
        default:  // Ge
          a.ucomisd(XMM0, XMM1);
          a.setcc(CC_AE, RAX);
          a.movzx8(RAX, RAX);
          break;
      }
      c.commit(ins);
      return true;
    }

    case Opcode::Select: {
      load(0, RAX);
      load(1, RCX);
      load(2, RDX);
      a.test_al_imm8(1);
      a.mov_rr(RAX, RDX);          // default: the false arm
      a.cmovcc(CC_NE, RAX, RCX);   // cond bit set: the true arm
      c.commit(ins);
      return true;
    }

    case Opcode::Trunc: {
      load(0, RAX);
      c.canon(t);
      c.commit(ins);
      return true;
    }
    case Opcode::SExt: {
      load(0, RAX);  // canonical form is already sign-extended
      c.commit(ins);
      return true;
    }
    case Opcode::ZExt: {
      load(0, RAX);
      const Type st = s(0).type;
      if (st == Type::I1) {
        a.alu_ri8(ALU_AND, RAX, 1);
      } else if (st == Type::I32) {
        a.mov_rr32(RAX, RAX);
      }
      c.commit(ins);
      return true;
    }
    case Opcode::FPTrunc: {
      load(0, RAX);
      a.movq_xr(XMM0, RAX);
      a.cvtsd2ss(XMM0, XMM0);
      a.movd_rx(RAX, XMM0);
      c.commit(ins);
      return true;
    }
    case Opcode::FPExt: {
      load(0, RAX);
      a.movd_xr(XMM0, RAX);
      a.cvtss2sd(XMM0, XMM0);
      a.movq_rx(RAX, XMM0);
      c.commit(ins);
      return true;
    }
    case Opcode::FPToSI: {
      c.to_double(s(0), RAX, XMM0, func);
      a.ucomisd(XMM0, XMM0);
      c.trap_if(CC_P, pc, TrapKind::FpDomain);  // NaN
      a.mov_ri64(RCX, util::f64_to_bits(-9.3e18));
      a.movq_xr(XMM1, RCX);
      a.ucomisd(XMM0, XMM1);
      c.trap_if(CC_B, pc, TrapKind::FpDomain);  // x < -9.3e18
      a.mov_ri64(RCX, util::f64_to_bits(9.3e18));
      a.movq_xr(XMM1, RCX);
      a.ucomisd(XMM0, XMM1);
      c.trap_if(CC_A, pc, TrapKind::FpDomain);  // x > 9.3e18
      a.cvttsd2si(RAX, XMM0);
      c.canon(t);
      c.commit(ins);
      return true;
    }
    case Opcode::SIToFP: {
      load(0, RAX);
      a.cvtsi2sd(XMM0, RAX);
      if (t == Type::F32) {
        // int64 -> double -> float, exactly the interpreter's two-step
        // rounding (a direct cvtsi2ss would round once, not twice).
        a.cvtsd2ss(XMM0, XMM0);
        a.movd_rx(RAX, XMM0);
      } else {
        a.movq_rx(RAX, XMM0);
      }
      c.commit(ins);
      return true;
    }
    case Opcode::Bitcast: {
      load(0, RAX);
      if (t == Type::I32) {
        a.movsxd(RAX, RAX);  // keep I32 canonical (sign-extended)
      } else if (bit_width(t) == 32) {
        a.mov_rr32(RAX, RAX);
      }
      c.commit(ins);
      return true;
    }

    case Opcode::Alloca: {
      a.mov_rr(RDI, RBX);
      a.mov_ri64(RSI, static_cast<std::uint64_t>(ins.aux));
      c.call_helper(fn_addr(&ft_jit_helper_alloca));
      a.alu_ri8(ALU_CMP, RAX, -1);
      c.trap_if_preset(CC_E, pc);  // helper stored StackOverflow
      c.commit(ins);
      return true;
    }

    case Opcode::Load: {
      const std::uint32_t size = store_size(t);
      load(0, RAX);
      c.bounds_check(RAX, RCX, size, pc);
      if (size == 8) {
        a.load64_bi(RAX, R12, RAX);
      } else if (t == Type::I32) {
        a.load32_sx_bi(RAX, R12, RAX);
      } else if (t == Type::F32) {
        a.load32_zx_bi(RAX, R12, RAX);
      } else {  // I1
        a.load8_zx_bi(RAX, R12, RAX);
        a.alu_ri8(ALU_AND, RAX, 1);
      }
      c.commit(ins);
      return true;
    }

    case Opcode::Store: {
      const std::uint32_t size = store_size(s(0).type);
      load(0, RAX);  // value
      load(1, RCX);  // address
      c.bounds_check(RCX, RDX, size, pc);
      if (size == 8) {
        a.store64_bi(R12, RCX, RAX);
      } else if (size == 4) {
        a.store32_bi(R12, RCX, RAX);
      } else {
        a.store8_bi(R12, RCX, RAX);
      }
      // Dirty-page tracking: dirty[page >> 6] |= 1 << (page & 63) for the
      // first byte's page. Only a misaligned store can reach a second page;
      // that case marks the last byte's page out of line (the same page
      // again when it does not actually cross — the mark is idempotent).
      a.cmp_mem32_imm8(RBX, kCtxTrackWrites, 0);
      const auto skip = a.jcc8_fixup(CC_E);
      a.load64(RSI, RBX, kCtxDirty);
      c.mark_page(RSI, RCX, 0);
      if (size > 1) {
        a.test_r8_imm8(RCX, static_cast<std::uint8_t>(size - 1));
        c.cold_if(CC_NE, [&c, size](std::size_t resume) {
          c.mark_page(RSI, RCX, static_cast<std::int32_t>(size) - 1);
          c.a.jmp32(resume);
        });
      }
      a.patch_rel8(skip);
      a.inc_r(R14);
      return true;
    }

    case Opcode::Gep: {
      load(0, RAX);
      load(1, RCX);
      // Unsigned multiply-add with two's complement wraparound — the
      // shared overflow semantic of all three engines.
      a.mov_ri64(RDX, static_cast<std::uint64_t>(ins.aux));
      a.imul_rr(RCX, RDX);
      a.alu_rr(ALU_ADD, RAX, RCX);
      c.commit(ins);
      return true;
    }

    case Opcode::Br: {
      a.inc_r(R14);
      if (ins.target_taken != pc + 1) c.jmp_pc(ins.target_taken);
      return true;
    }
    case Opcode::CondBr: {
      load(0, RAX);
      a.inc_r(R14);
      a.test_al_imm8(1);
      c.jcc_pc(CC_NE, ins.target_taken);
      if (ins.target_fall != pc + 1) c.jmp_pc(ins.target_fall);
      return true;
    }
    case Opcode::Ret: {
      if (ins.src_count > 0) {
        load(0, RSI);
      } else {
        a.alu_rr(ALU_XOR, RSI, RSI);
      }
      a.mov_rr(RDI, RBX);
      c.call_helper(fn_addr(&ft_jit_helper_ret));
      a.alu_ri8(ALU_CMP, RAX, -1);
      c.cold_if(CC_E, [&c, pc](std::size_t) {
        c.a.inc_r(R14);  // the top-level Ret retires before Finished
        c.a.mov_ri32(RAX, pc);
        c.a.jmp32(c.finish_stub);
      });
      a.inc_r(R14);
      a.load64(R13, RBX, kCtxFrameBase);  // frame popped
      a.load64(RCX, RBX, kCtxEntries);
      a.jmp_mem_bi8(RCX, RAX);  // resume at the caller's pc
      return true;
    }
    case Opcode::Call: {
      a.mov_rr(RDI, RBX);
      a.mov_ri64(RSI, pc);
      c.call_helper(fn_addr(&ft_jit_helper_call));
      a.test_rr(RAX, RAX);
      c.trap_if_preset(CC_NE, pc);  // helper stored CallDepth
      a.inc_r(R14);
      a.load64(R13, RBX, kCtxFrameBase);  // frame pushed
      const auto callee = static_cast<std::uint32_t>(ins.aux);
      c.jmp_pc(c.prog.function(callee).entry_pc);
      return true;
    }

    case Opcode::Rand: {
      a.mov_rr(RDI, RBX);
      c.call_helper(fn_addr(&ft_jit_helper_rand));
      c.commit(ins);
      return true;
    }
    case Opcode::Emit: {
      load(0, RSI);
      a.mov_ri32(RDX, static_cast<std::uint32_t>(s(0).type));
      a.mov_rr(RDI, RBX);
      c.call_helper(fn_addr(&ft_jit_helper_emit));
      a.inc_r(R14);
      return true;
    }
    case Opcode::EmitTrunc: {
      load(0, RSI);
      a.mov_ri32(RDX, s(0).type == Type::F32 ? 1 : 0);
      a.mov_ri32(RCX, static_cast<std::uint32_t>(ins.aux));
      a.mov_rr(RDI, RBX);
      c.call_helper(fn_addr(&ft_jit_helper_emit_trunc));
      a.inc_r(R14);
      return true;
    }
    case Opcode::RegionEnter: {
      a.mov_rr(RDI, RBX);
      a.mov_ri64(RSI, static_cast<std::uint64_t>(ins.aux));
      c.call_helper(fn_addr(&ft_jit_helper_region_enter));
      a.inc_r(R14);
      return true;
    }
    case Opcode::RegionExit: {
      a.inc_r(R14);
      return true;
    }

    case Opcode::CheckTrap: {
      // Hardening detector: trap-before-retire on a set I1 operand, so a
      // firing detector leaves the retired count exactly where the
      // interpreters leave it (the recovery driver keys off that).
      load(0, RAX);
      a.test_al_imm8(1);
      c.trap_if(CC_NE, pc, TrapKind::DetectedFault);
      a.inc_r(R14);
      return true;
    }

    case Opcode::MpiRank:
    case Opcode::MpiSize:
    case Opcode::MpiSend:
    case Opcode::MpiRecv:
    case Opcode::MpiAllreduce:
    case Opcode::MpiBarrier:
      // No template: exit to the driver, which interprets this one
      // instruction and re-enters native code after it.
      a.mov_ri32(RAX, pc);
      a.jmp32(c.deopt_stub);
      return false;
  }
  a.mov_ri32(RAX, pc);  // unreachable with a dense opcode enum
  a.jmp32(c.deopt_stub);
  return false;
}

}  // namespace

bool JitProgram::supported() noexcept {
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return true;
#else
  return false;
#endif
}

bool JitProgram::runtime_enabled() noexcept {
  if (!supported()) return false;
  const char* const e = std::getenv("FT_VM_NO_JIT");
  return e == nullptr || *e == '\0' || std::strcmp(e, "0") == 0;
}

bool JitProgram::opcode_compiled(ir::Opcode op) noexcept {
  return !(op >= Opcode::MpiRank && op <= Opcode::MpiBarrier);
}

std::shared_ptr<const JitProgram> JitProgram::compile(
    const vm::DecodedProgram& p) {
  if (!supported() || p.code_size() == 0) return nullptr;

  Compiler c(p);
  emit_prologue(c);
  emit_stubs(c);

  const auto n = static_cast<std::uint32_t>(p.code_size());
  c.pc_offset.resize(n);
  Stats stats;
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    c.pc_offset[pc] = c.a.size();
    // Pause guard: every entry point checks the retired count against the
    // stop limit before executing, mirroring the hot loop's loop-top check.
    c.a.alu_rr(ALU_CMP, R14, R15);
    c.pause_exits.emplace_back(c.a.jcc32(CC_AE, 0), pc);
    if (emit_instr(c, pc)) {
      ++stats.compiled;
    } else {
      ++stats.deopt;
    }
  }
  emit_thunks(c);
  for (const auto& [pos, pc] : c.pc_fixups) {
    c.a.patch_rel32(pos, c.pc_offset[pc]);
  }

  auto jp = std::shared_ptr<JitProgram>(new JitProgram());
  if (!jp->buf_.install(c.a.data(), c.a.size())) return nullptr;
  jp->prog_ = &p;
  stats.code_bytes = c.a.size();
  jp->stats_ = stats;
  jp->entries_.resize(n);
  const auto base = reinterpret_cast<std::uint64_t>(jp->buf_.base());
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    jp->entries_[pc] = base + c.pc_offset[pc];
  }
  return jp;
}

}  // namespace ft::jit
