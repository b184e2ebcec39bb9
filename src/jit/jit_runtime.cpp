// Runtime half of the JIT: the helpers emitted code calls for anything that
// touches interpreter-owned state. All Vm access funnels through VmAccess
// (the one friend the Vm declares for the JIT).
#include "jit/jit_runtime.h"

#include <cmath>

#include "util/bits.h"
#include "vm/interp.h"
#include "vm/interp_shared.h"

namespace ft::jit {

struct VmAccess {
  static std::uint64_t call(JitContext* ctx, std::uint64_t pc) {
    vm::Vm& vm = *ctx->vm;
    if (vm.dframes_.size() >= vm.opts_.max_call_depth) {
      ctx->exit_trap = static_cast<std::uint32_t>(vm::TrapKind::CallDepth);
      return 1;
    }
    const vm::DecodedInstr& ins = ctx->prog->code()[pc];
    vm::Vm::DFrame& caller = vm.dframes_.back();
    caller.pc = static_cast<std::uint32_t>(pc) + 1;  // resume point
    // push_dframe reads `caller` only before its final push_back, so the
    // reference staying valid through the call is guaranteed.
    vm.push_dframe(ins, caller);
    ctx->slots = vm.slots_.data();  // the slot stack may have grown
    ctx->frame_base = ctx->slots + vm.dframes_.back().reg_base;
    return 0;
  }

  static std::uint64_t ret(JitContext* ctx, std::uint64_t ret_bits) {
    vm::Vm& vm = *ctx->vm;
    if (vm.dframes_.size() == 1) return ~std::uint64_t{0};  // entry frame
    const vm::Vm::DFrame fr = vm.dframes_.back();
    vm.sp_ = fr.saved_sp;
    vm.slot_top_ = fr.reg_base;
    vm.arg_loc_top_ = fr.arg_loc_base;
    vm.dframes_.pop_back();
    const vm::Vm::DFrame& caller = vm.dframes_.back();
    if (fr.ret_reg != ir::kNoReg) {
      vm.slots_[caller.reg_base + fr.ret_reg] = ret_bits;
    }
    ctx->frame_base = ctx->slots + caller.reg_base;
    return caller.pc;
  }

  static std::uint64_t alloca_bytes(JitContext* ctx, std::uint64_t size) {
    vm::Vm& vm = *ctx->vm;
    const std::uint64_t aligned = (vm.sp_ + 7) & ~std::uint64_t{7};
    if (aligned + size > vm.mem_.size()) {
      ctx->exit_trap = static_cast<std::uint32_t>(vm::TrapKind::StackOverflow);
      return ~std::uint64_t{0};
    }
    vm.sp_ = aligned + size;
    return aligned;
  }

  static std::uint64_t rand_bits(JitContext* ctx) {
    return util::f64_to_bits(ctx->vm->randlc_.next());
  }

  static void emit(JitContext* ctx, std::uint64_t bits, ir::Type type) {
    ctx->vm->outputs_.push_back({bits, type});
  }

  static void emit_trunc(JitContext* ctx, std::uint64_t bits, bool is_f32,
                         int digits) {
    const double x = is_f32
                         ? static_cast<double>(util::bits_to_f32(bits))
                         : util::bits_to_f64(bits);
    const double r = vm::detail::round_to_digits(x, digits);
    ctx->vm->outputs_.push_back({util::f64_to_bits(r), ir::Type::F64});
  }

  static void region_enter(JitContext* ctx, std::uint32_t rid) {
    vm::Vm& vm = *ctx->vm;
    vm.apply_region_entry_fault(rid);
    vm.region_counts_[rid]++;
  }
};

}  // namespace ft::jit

using ft::jit::JitContext;
using ft::jit::VmAccess;

extern "C" {

std::uint64_t ft_jit_helper_call(JitContext* ctx, std::uint64_t pc) {
  return VmAccess::call(ctx, pc);
}

std::uint64_t ft_jit_helper_ret(JitContext* ctx, std::uint64_t ret_bits) {
  return VmAccess::ret(ctx, ret_bits);
}

std::uint64_t ft_jit_helper_alloca(JitContext* ctx, std::uint64_t size) {
  return VmAccess::alloca_bytes(ctx, size);
}

std::uint64_t ft_jit_helper_rand(JitContext* ctx) {
  return VmAccess::rand_bits(ctx);
}

void ft_jit_helper_emit(JitContext* ctx, std::uint64_t bits,
                        std::uint32_t type) {
  VmAccess::emit(ctx, bits, static_cast<ft::ir::Type>(type));
}

void ft_jit_helper_emit_trunc(JitContext* ctx, std::uint64_t bits,
                              std::uint32_t is_f32, std::uint32_t digits) {
  VmAccess::emit_trunc(ctx, bits, is_f32 != 0, static_cast<int>(digits));
}

void ft_jit_helper_region_enter(JitContext* ctx, std::uint64_t rid) {
  VmAccess::region_enter(ctx, static_cast<std::uint32_t>(rid));
}

std::uint64_t ft_jit_helper_floor64(std::uint64_t bits) {
  return ft::util::f64_to_bits(std::floor(ft::util::bits_to_f64(bits)));
}

std::uint64_t ft_jit_helper_floor32(std::uint64_t bits) {
  return ft::util::f32_to_bits(std::floor(ft::util::bits_to_f32(bits)));
}

}  // extern "C"
