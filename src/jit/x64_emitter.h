/// @file
/// Minimal x86-64 instruction emitter for the baseline template JIT.
///
/// Append-only byte buffer plus one method per instruction form the
/// per-opcode templates need (jit_program.cpp) — not a general assembler.
/// Memory operands handle the SIB/disp encoding quirks (RSP/R12 force a
/// SIB byte; RBP/R13 force an explicit displacement); everything emitted
/// is position-independent (branches are rel8/rel32, patched against code
/// offsets, never absolute addresses), so the finished byte vector can be
/// copied into an executable mapping at any base.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ft::jit {

/// x86-64 general-purpose register numbers (REX-extended encoding).
enum Reg : std::uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/// XMM register numbers (only 0/1 are used by the templates).
enum Xmm : std::uint8_t { XMM0 = 0, XMM1 = 1 };

/// Condition codes in hardware encoding order: `Jcc`/`SETcc`/`CMOVcc` are
/// all `base + cc`. The negation of any condition is `cc ^ 1`.
enum Cc : std::uint8_t {
  CC_O = 0, CC_NO = 1, CC_B = 2, CC_AE = 3, CC_E = 4, CC_NE = 5,
  CC_BE = 6, CC_A = 7, CC_S = 8, CC_NS = 9, CC_P = 10, CC_NP = 11,
  CC_L = 12, CC_GE = 13, CC_LE = 14, CC_G = 15,
};

/// ALU /r and /digit encodings share one ordering: opcode = op*8 + form,
/// immediate forms use the value as the ModRM reg digit.
enum Alu : std::uint8_t {
  ALU_ADD = 0, ALU_OR = 1, ALU_ADC = 2, ALU_SBB = 3,
  ALU_AND = 4, ALU_SUB = 5, ALU_XOR = 6, ALU_CMP = 7,
};

class X64Emitter {
 public:
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  // --- raw appends -----------------------------------------------------------
  void u8(std::uint8_t b) { buf_.push_back(b); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  // --- stack / moves ---------------------------------------------------------
  void push(Reg r) {
    if (r >= R8) u8(0x41);
    u8(0x50 + (r & 7));
  }
  void pop(Reg r) {
    if (r >= R8) u8(0x41);
    u8(0x58 + (r & 7));
  }
  /// mov dst, src (64-bit).
  void mov_rr(Reg dst, Reg src) {
    rex_rr(true, src, dst);
    u8(0x89);
    modrm(3, src, dst);
  }
  /// movabs dst, imm64 — or the shorter zero/sign-extending forms when the
  /// immediate allows. The templates lean on this for constants, helper
  /// addresses, and 64-bit masks.
  void mov_ri64(Reg dst, std::uint64_t imm) {
    if (imm <= 0xffffffffull) {
      mov_ri32(dst, static_cast<std::uint32_t>(imm));  // B8+r zero-extends
    } else if (static_cast<std::int64_t>(imm) ==
               static_cast<std::int32_t>(imm)) {
      rex_rr(true, static_cast<Reg>(0), dst);  // C7 /0 sign-extends imm32
      u8(0xC7);
      modrm(3, static_cast<Reg>(0), dst);
      u32(static_cast<std::uint32_t>(imm));
    } else {
      if (dst >= R8) u8(0x49); else u8(0x48);
      u8(0xB8 + (dst & 7));
      u64(imm);
    }
  }
  /// mov dst32, imm32 (zero-extends to 64).
  void mov_ri32(Reg dst, std::uint32_t imm) {
    if (dst >= R8) u8(0x41);
    u8(0xB8 + (dst & 7));
    u32(imm);
  }

  // --- loads / stores, [base + disp] -----------------------------------------
  /// mov dst, qword [base + disp].
  void load64(Reg dst, Reg base, std::int32_t disp) {
    rex_rr(true, dst, base);
    u8(0x8B);
    mem(dst, base, disp);
  }
  /// mov qword [base + disp], src.
  void store64(Reg base, std::int32_t disp, Reg src) {
    rex_rr(true, src, base);
    u8(0x89);
    mem(src, base, disp);
  }
  /// mov dword [base + disp], src32.
  void store32(Reg base, std::int32_t disp, Reg src) {
    rex_rr(false, src, base);
    u8(0x89);
    mem(src, base, disp);
  }
  /// mov dword [base + disp], imm32.
  void store32_imm(Reg base, std::int32_t disp, std::uint32_t imm) {
    rex_rr(false, static_cast<Reg>(0), base);
    u8(0xC7);
    mem(static_cast<Reg>(0), base, disp);
    u32(imm);
  }
  /// cmp reg, qword [base + disp].
  void cmp_r_mem64(Reg reg, Reg base, std::int32_t disp) {
    rex_rr(true, reg, base);
    u8(0x3B);
    mem(reg, base, disp);
  }
  /// cmp dword [base + disp], imm8 (sign-extended).
  void cmp_mem32_imm8(Reg base, std::int32_t disp, std::int8_t imm) {
    rex_rr(false, static_cast<Reg>(7), base);
    u8(0x83);
    mem(static_cast<Reg>(7), base, disp);
    u8(static_cast<std::uint8_t>(imm));
  }

  // --- loads / stores, [base + index] (byte-scaled) --------------------------
  /// mov dst, qword [base + index].
  void load64_bi(Reg dst, Reg base, Reg index) {
    rex_rxb(true, dst, index, base);
    u8(0x8B);
    sib_mem(dst, base, index, 0);
  }
  /// movsxd dst, dword [base + index].
  void load32_sx_bi(Reg dst, Reg base, Reg index) {
    rex_rxb(true, dst, index, base);
    u8(0x63);
    sib_mem(dst, base, index, 0);
  }
  /// mov dst32, dword [base + index] (zero-extends).
  void load32_zx_bi(Reg dst, Reg base, Reg index) {
    rex_rxb(false, dst, index, base);
    u8(0x8B);
    sib_mem(dst, base, index, 0);
  }
  /// movzx dst32, byte [base + index].
  void load8_zx_bi(Reg dst, Reg base, Reg index) {
    rex_rxb(false, dst, index, base);
    u8(0x0F);
    u8(0xB6);
    sib_mem(dst, base, index, 0);
  }
  /// mov qword [base + index], src.
  void store64_bi(Reg base, Reg index, Reg src) {
    rex_rxb(true, src, index, base);
    u8(0x89);
    sib_mem(src, base, index, 0);
  }
  /// mov dword [base + index], src32.
  void store32_bi(Reg base, Reg index, Reg src) {
    rex_rxb(false, src, index, base);
    u8(0x89);
    sib_mem(src, base, index, 0);
  }
  /// mov byte [base + index], src8 (low byte of src).
  void store8_bi(Reg base, Reg index, Reg src) {
    // A REX prefix (even empty) selects SIL/DIL over AH-family encodings;
    // rex_rxb emits one whenever any extended register participates, and
    // the templates only store AL/CL here, so no forced REX is needed.
    rex_rxb(false, src, index, base);
    u8(0x88);
    sib_mem(src, base, index, 0);
  }
  /// jmp qword [base + index*8].
  void jmp_mem_bi8(Reg base, Reg index) {
    rex_rxb(false, static_cast<Reg>(4), index, base);
    u8(0xFF);
    sib_mem(static_cast<Reg>(4), base, index, 3);
  }
  /// mov dst, qword [base + index*8].
  void load64_bi8(Reg dst, Reg base, Reg index) {
    rex_rxb(true, dst, index, base);
    u8(0x8B);
    sib_mem(dst, base, index, 3);
  }
  /// mov qword [base + index*8], src.
  void store64_bi8(Reg base, Reg index, Reg src) {
    rex_rxb(true, src, index, base);
    u8(0x89);
    sib_mem(src, base, index, 3);
  }

  // --- ALU -------------------------------------------------------------------
  /// op dst, src (64-bit).
  void alu_rr(Alu op, Reg dst, Reg src) {
    rex_rr(true, src, dst);
    u8(static_cast<std::uint8_t>(op * 8 + 1));
    modrm(3, src, dst);
  }
  /// op dst, imm8 (sign-extended, 64-bit).
  void alu_ri8(Alu op, Reg dst, std::int8_t imm) {
    rex_rr(true, static_cast<Reg>(op), dst);
    u8(0x83);
    modrm(3, static_cast<Reg>(op), dst);
    u8(static_cast<std::uint8_t>(imm));
  }
  /// op dst32, imm32 (32-bit form — zero-extends the result).
  void alu32_ri32(Alu op, Reg dst, std::uint32_t imm) {
    rex_rr(false, static_cast<Reg>(op), dst);
    u8(0x81);
    modrm(3, static_cast<Reg>(op), dst);
    u32(imm);
  }
  /// test dst, src (64-bit).
  void test_rr(Reg a, Reg b) {
    rex_rr(true, b, a);
    u8(0x85);
    modrm(3, b, a);
  }
  /// test al, imm8.
  void test_al_imm8(std::uint8_t imm) {
    u8(0xA8);
    u8(imm);
  }
  /// test low byte of reg, imm8 (AL..BL only — no REX handling for SPL/DIL).
  void test_r8_imm8(Reg r, std::uint8_t imm) {
    assert(r <= RBX && "byte tests only target AL..BL");
    u8(0xF6);
    modrm(3, static_cast<Reg>(0), r);
    u8(imm);
  }
  /// bts dst, bit (64-bit register form: sets bit `bit & 63` of dst).
  void bts_rr(Reg dst, Reg bit) {
    rex_rr(true, bit, dst);
    u8(0x0F);
    u8(0xAB);
    modrm(3, bit, dst);
  }
  /// imul dst, src (64-bit).
  void imul_rr(Reg dst, Reg src) {
    rex_rr(true, dst, src);
    u8(0x0F);
    u8(0xAF);
    modrm(3, dst, src);
  }
  /// inc reg (64-bit).
  void inc_r(Reg r) {
    rex_rr(true, static_cast<Reg>(0), r);
    u8(0xFF);
    modrm(3, static_cast<Reg>(0), r);
  }
  void cqo() {
    u8(0x48);
    u8(0x99);
  }
  /// idiv reg (64-bit; rdx:rax / reg).
  void idiv_r(Reg r) {
    rex_rr(true, static_cast<Reg>(7), r);
    u8(0xF7);
    modrm(3, static_cast<Reg>(7), r);
  }
  /// shl/shr/sar reg, cl (64-bit). digit: 4 = shl, 5 = shr, 7 = sar.
  void shift_cl(std::uint8_t digit, Reg r) {
    rex_rr(true, static_cast<Reg>(digit), r);
    u8(0xD3);
    modrm(3, static_cast<Reg>(digit), r);
  }
  /// shr reg, imm8 (64-bit logical right).
  void shr_imm(Reg r, std::uint8_t imm) {
    rex_rr(true, static_cast<Reg>(5), r);
    u8(0xC1);
    modrm(3, static_cast<Reg>(5), r);
    u8(imm);
  }
  /// movsxd dst, src32 (sign-extend the low 32 bits of src).
  void movsxd(Reg dst, Reg src) {
    rex_rr(true, dst, src);
    u8(0x63);
    modrm(3, dst, src);
  }
  /// mov dst32, src32 (zero-extends to 64).
  void mov_rr32(Reg dst, Reg src) {
    rex_rr(false, src, dst);
    u8(0x89);
    modrm(3, src, dst);
  }
  /// setcc low byte of reg (AL/CL only — no REX handling for SPL/DIL).
  void setcc(Cc cc, Reg r) {
    assert(r <= RBX && "setcc templates only target AL..BL");
    u8(0x0F);
    u8(0x90 + cc);
    modrm(3, static_cast<Reg>(0), r);
  }
  /// movzx dst32, low byte of src (AL/CL only).
  void movzx8(Reg dst, Reg src) {
    assert(src <= RBX && "movzx templates only read AL..BL");
    rex_rr(false, dst, src);
    u8(0x0F);
    u8(0xB6);
    modrm(3, dst, src);
  }
  /// cmovcc dst, src (64-bit).
  void cmovcc(Cc cc, Reg dst, Reg src) {
    rex_rr(true, dst, src);
    u8(0x0F);
    u8(0x40 + cc);
    modrm(3, dst, src);
  }
  /// lea dst, [base + disp].
  void lea(Reg dst, Reg base, std::int32_t disp) {
    rex_rr(true, dst, base);
    u8(0x8D);
    mem(dst, base, disp);
  }

  // --- SSE scalar ------------------------------------------------------------
  /// movq xmm, reg64.
  void movq_xr(Xmm x, Reg r) {
    u8(0x66);
    rex_rr(true, static_cast<Reg>(x), r);
    u8(0x0F);
    u8(0x6E);
    modrm(3, static_cast<Reg>(x), r);
  }
  /// movq reg64, xmm.
  void movq_rx(Reg r, Xmm x) {
    u8(0x66);
    rex_rr(true, static_cast<Reg>(x), r);
    u8(0x0F);
    u8(0x7E);
    modrm(3, static_cast<Reg>(x), r);
  }
  /// movd xmm, reg32.
  void movd_xr(Xmm x, Reg r) {
    u8(0x66);
    rex_rr(false, static_cast<Reg>(x), r);
    u8(0x0F);
    u8(0x6E);
    modrm(3, static_cast<Reg>(x), r);
  }
  /// movd reg32, xmm (zero-extends to 64).
  void movd_rx(Reg r, Xmm x) {
    u8(0x66);
    rex_rr(false, static_cast<Reg>(x), r);
    u8(0x0F);
    u8(0x7E);
    modrm(3, static_cast<Reg>(x), r);
  }
  /// Two-operand scalar SSE op: prefix 0F opcode /r (prefix 0 = none).
  void sse_op(std::uint8_t prefix, std::uint8_t opcode, Xmm dst, Xmm src) {
    if (prefix != 0) u8(prefix);
    u8(0x0F);
    u8(opcode);
    modrm(3, static_cast<Reg>(dst), static_cast<Reg>(src));
  }
  void addsd(Xmm d, Xmm s) { sse_op(0xF2, 0x58, d, s); }
  void subsd(Xmm d, Xmm s) { sse_op(0xF2, 0x5C, d, s); }
  void mulsd(Xmm d, Xmm s) { sse_op(0xF2, 0x59, d, s); }
  void divsd(Xmm d, Xmm s) { sse_op(0xF2, 0x5E, d, s); }
  void addss(Xmm d, Xmm s) { sse_op(0xF3, 0x58, d, s); }
  void subss(Xmm d, Xmm s) { sse_op(0xF3, 0x5C, d, s); }
  void mulss(Xmm d, Xmm s) { sse_op(0xF3, 0x59, d, s); }
  void divss(Xmm d, Xmm s) { sse_op(0xF3, 0x5E, d, s); }
  void sqrtsd(Xmm d, Xmm s) { sse_op(0xF2, 0x51, d, s); }
  void sqrtss(Xmm d, Xmm s) { sse_op(0xF3, 0x51, d, s); }
  void ucomisd(Xmm d, Xmm s) { sse_op(0x66, 0x2E, d, s); }
  void cvtss2sd(Xmm d, Xmm s) { sse_op(0xF3, 0x5A, d, s); }
  void cvtsd2ss(Xmm d, Xmm s) { sse_op(0xF2, 0x5A, d, s); }
  /// cvtsi2sd xmm, reg64.
  void cvtsi2sd(Xmm x, Reg r) {
    u8(0xF2);
    rex_rr(true, static_cast<Reg>(x), r);
    u8(0x0F);
    u8(0x2A);
    modrm(3, static_cast<Reg>(x), r);
  }
  /// cvttsd2si reg64, xmm (truncating).
  void cvttsd2si(Reg r, Xmm x) {
    u8(0xF2);
    rex_rr(true, r, static_cast<Reg>(x));
    u8(0x0F);
    u8(0x2C);
    modrm(3, r, static_cast<Reg>(x));
  }

  // --- control flow ----------------------------------------------------------
  /// jcc rel8 with the displacement unknown: returns the offset of the rel8
  /// byte; patch with patch_rel8() once the target is emitted.
  [[nodiscard]] std::size_t jcc8_fixup(Cc cc) {
    u8(0x70 + cc);
    u8(0);
    return size() - 1;
  }
  /// Resolve a jcc8_fixup to jump to the current position.
  void patch_rel8(std::size_t fixup_pos) {
    const std::ptrdiff_t rel = static_cast<std::ptrdiff_t>(size()) -
                               static_cast<std::ptrdiff_t>(fixup_pos) - 1;
    assert(rel >= -128 && rel <= 127 && "rel8 branch target out of range");
    buf_[fixup_pos] = static_cast<std::uint8_t>(rel);
  }
  /// jmp rel32 to the (possibly not yet emitted) code offset `target`;
  /// returns the offset of the rel32 field for deferred patching.
  std::size_t jmp32(std::size_t target) {
    u8(0xE9);
    return rel32_to(target);
  }
  /// jcc rel32 to code offset `target`.
  std::size_t jcc32(Cc cc, std::size_t target) {
    u8(0x0F);
    u8(0x80 + cc);
    return rel32_to(target);
  }
  /// Re-point the rel32 at `fixup_pos` to code offset `target` (used for
  /// forward branches whose target offset is known only after emission).
  void patch_rel32(std::size_t fixup_pos, std::size_t target) {
    const auto rel = static_cast<std::int64_t>(target) -
                     (static_cast<std::int64_t>(fixup_pos) + 4);
    for (int i = 0; i < 4; ++i) {
      buf_[fixup_pos + i] =
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(rel) >> (8 * i));
    }
  }
  /// call reg.
  void call_r(Reg r) {
    if (r >= R8) u8(0x41);
    u8(0xFF);
    modrm(3, static_cast<Reg>(2), r);
  }
  void ret() { u8(0xC3); }

 private:
  void modrm(std::uint8_t mod, Reg reg, Reg rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  /// REX for reg/rm (or reg/base) encodings; emitted only when needed.
  void rex_rr(bool w, Reg reg, Reg rm) {
    const std::uint8_t rex = 0x40 | (w ? 8 : 0) | (reg >= R8 ? 4 : 0) |
                             (rm >= R8 ? 1 : 0);
    if (rex != 0x40) u8(rex);
  }
  /// REX covering an index register as well (SIB encodings).
  void rex_rxb(bool w, Reg reg, Reg index, Reg base) {
    const std::uint8_t rex = 0x40 | (w ? 8 : 0) | (reg >= R8 ? 4 : 0) |
                             (index >= R8 ? 2 : 0) | (base >= R8 ? 1 : 0);
    if (rex != 0x40) u8(rex);
  }
  /// ModRM(+SIB)+disp for [base + disp]. RSP/R12 need a SIB byte; RBP/R13
  /// cannot use the disp-less mod=00 form.
  void mem(Reg reg, Reg base, std::int32_t disp) {
    const bool need_sib = (base & 7) == RSP;
    const bool need_disp = disp != 0 || (base & 7) == RBP;
    const std::uint8_t mod =
        !need_disp ? 0 : (disp >= -128 && disp <= 127 ? 1 : 2);
    modrm(mod, reg, need_sib ? RSP : base);
    if (need_sib) {
      u8(static_cast<std::uint8_t>((RSP << 3) | (base & 7)));  // no index
    }
    if (mod == 1) {
      u8(static_cast<std::uint8_t>(disp));
    } else if (mod == 2) {
      u32(static_cast<std::uint32_t>(disp));
    }
  }
  /// ModRM+SIB for [base + index*2^scale] (no displacement). RSP cannot be
  /// an index; RBP/R13 as base force the disp8=0 form.
  void sib_mem(Reg reg, Reg base, Reg index, std::uint8_t scale) {
    assert((index & 7) != RSP && "RSP cannot encode as a SIB index");
    const bool need_disp = (base & 7) == RBP;
    modrm(need_disp ? 1 : 0, reg, RSP);
    u8(static_cast<std::uint8_t>((scale << 6) | ((index & 7) << 3) |
                                 (base & 7)));
    if (need_disp) u8(0);
  }
  std::size_t rel32_to(std::size_t target) {
    const std::size_t pos = size();
    u32(0);
    patch_rel32(pos, target);
    return pos;
  }

  std::vector<std::uint8_t> buf_;
};

}  // namespace ft::jit
