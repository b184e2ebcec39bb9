// The pre-decoded execution engine's program representation.
//
// A campaign runs thousands of trials of one module, but the tree-walking
// interpreter re-discovers the same static facts on every retired
// instruction: three levels of vector indirection to reach the
// ir::Instruction, an operand-kind switch per operand, immediate
// canonicalization, global-address lookups, and a heap-allocated register
// file per call frame. DecodedProgram lowers a laid-out ir::Module ONCE
// into a flat, cache-friendly instruction array:
//
//   * one contiguous DecodedInstr per static instruction, in function/block
//     order, addressed by a single flat pc (no per-block vectors);
//   * operands pre-resolved into Src descriptors — integer immediates are
//     pre-canonicalized (canon_int), float immediates pre-encoded to their
//     IEEE bit patterns, global operands pre-folded to their laid-out
//     addresses — so the hot loop never touches ir::Operand again;
//   * branch targets pre-resolved to dense flat pcs (target_taken /
//     target_fallthrough), so Br/CondBr are a single assignment;
//   * per-function frame metadata (register/param counts, entry pc) sized
//     for the Vm's single contiguous register/argument stack, eliminating
//     the per-frame std::vector allocations of the legacy engine.
//
// Dispatch over the decoded stream is computed goto (or a dense-opcode
// switch where labels-as-values are unavailable); see Vm::run_decoded_hot
// in interp_decoded.cpp.
//
// A DecodedProgram is immutable after decode() and holds only pointers into
// the module it was decoded from: share one instance (e.g. behind a
// shared_ptr, as core::AnalysisSession does) across any number of
// concurrent Vms. The decoded engine is record-by-record bit-identical to
// the legacy tree-walking engine (pinned by tests/decode_test.cpp), so
// traces, lockstep diffing and every downstream analysis are unaffected by
// which engine produced them.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/module.h"

namespace ft::vm {

/// Canonical in-register form shared by both engines: I1 is 0/1, I32 is
/// sign-extended to 64 bits, I64/Ptr are raw, floats are their IEEE
/// patterns (F32 zero-extended).
[[nodiscard]] constexpr std::uint64_t canon_int(std::uint64_t bits,
                                                ir::Type t) noexcept {
  switch (t) {
    case ir::Type::I1: return bits & 1;
    case ir::Type::I32:
      return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int32_t>(bits)));
    default: return bits;
  }
}

/// A pre-resolved operand. Reg/Arg keep their frame-relative slot index;
/// immediates and globals collapse to Const with the bits fully computed at
/// decode time. None marks block operands (branch targets live in
/// DecodedInstr) and absent operands, and evaluates to the empty value.
enum class SrcKind : std::uint8_t { None, Reg, Arg, Const };

struct Src {
  SrcKind kind = SrcKind::None;
  ir::Type type = ir::Type::Void;
  std::uint32_t index = 0;     // register / argument slot
  std::uint64_t bits = 0;      // pre-computed constant bits
};

/// One decoded instruction. Static record coordinates (func/block/instr)
/// ride along so DynInstr emission needs no reverse mapping.
struct DecodedInstr {
  ir::Opcode op = ir::Opcode::Br;
  ir::CmpPred pred = ir::CmpPred::None;
  ir::Type type = ir::Type::Void;
  std::uint8_t nops = 0;       // record operand count: min(#ops, kMaxTracedOps)
  std::uint32_t result = ir::kNoReg;
  std::uint32_t src_begin = 0;     // into DecodedProgram::srcs()
  std::uint16_t src_count = 0;     // full operand count (Call: argument count)
  std::uint16_t reserved = 0;
  std::uint32_t target_taken = 0;  // Br: target pc; CondBr: taken-branch pc
  std::uint32_t target_fall = 0;   // CondBr: not-taken-branch pc
  std::int64_t aux = 0;
  std::uint32_t func = 0;
  std::uint32_t block = 0;
  std::uint32_t instr = 0;         // index within block
  std::uint32_t line = 0;
};

/// Frame metadata of one function: everything the Vm needs to push a frame
/// onto its contiguous register/argument stack.
struct DecodedFunction {
  std::uint32_t entry_pc = 0;
  std::uint32_t num_regs = 0;
  std::uint32_t num_params = 0;
};

class DecodedProgram {
 public:
  /// Lower a laid-out module (Module::layout(), done by
  /// ProgramBuilder::finish()). The module must outlive the program.
  [[nodiscard]] static DecodedProgram decode(const ir::Module& m);

  [[nodiscard]] const ir::Module& module() const noexcept { return *mod_; }
  [[nodiscard]] const DecodedInstr* code() const noexcept {
    return code_.data();
  }
  [[nodiscard]] std::size_t code_size() const noexcept { return code_.size(); }
  [[nodiscard]] const Src* srcs() const noexcept { return srcs_.data(); }
  [[nodiscard]] const DecodedFunction& function(std::uint32_t f) const {
    return funcs_[f];
  }
  [[nodiscard]] std::size_t num_functions() const noexcept {
    return funcs_.size();
  }
  [[nodiscard]] std::uint32_t entry_pc() const noexcept {
    return funcs_[entry_].entry_pc;
  }
  [[nodiscard]] std::uint32_t entry_function() const noexcept { return entry_; }

 private:
  const ir::Module* mod_ = nullptr;
  std::vector<DecodedInstr> code_;
  std::vector<Src> srcs_;
  std::vector<DecodedFunction> funcs_;
  std::uint32_t entry_ = 0;
};

}  // namespace ft::vm
