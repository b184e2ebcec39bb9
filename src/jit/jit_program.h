/// @file
/// Baseline template JIT over a vm::DecodedProgram.
///
/// compile() walks the flat decoded instruction stream once and emits one
/// fixed x86-64 template per instruction into a W^X code buffer
/// (jit/code_buffer.h) — no IR, no register allocation, no optimization.
/// A dense flat-pc → native-address table (entries()) makes every branch a
/// direct rel32 jump and gives the driver (Vm::run_jit) a resume point at
/// any pc, which is what lets run_until() stop marks, snapshots and
/// fork_from() work unchanged: the machine state layout is exactly the
/// interpreter's, and native execution can pause/resume at any retired-
/// instruction boundary.
///
/// Code layout: the path of an instruction that does not trap or pause
/// falls straight through. Each pc's pause guard and each trap check is one
/// jcc rel32 to a thunk emitted after the last pc's code; a Load/Store's
/// bounds check is a single unsigned compare; a tracked Store marks its
/// dirty page with plain ALU ops and reaches a second page only out of line.
///
/// Compile-what-you-can: instructions without a template (the MiniMPI ops)
/// compile to a deopt exit — the driver interprets that one instruction
/// and re-enters native code at the next pc. stats() reports the split.
///
/// Execution is bit-for-bit identical to the interpreter engines (pinned
/// by tests/engine_fuzz_test.cpp across 200 generated programs and by
/// tests/jit_test.cpp across the workload suite).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/opcode.h"
#include "jit/code_buffer.h"
#include "jit/jit_runtime.h"

namespace ft::vm {
class DecodedProgram;
}  // namespace ft::vm

namespace ft::jit {

class JitProgram {
 public:
  /// Signature of the installed entry: execute from ctx->entry_pc until a
  /// stub exits (filling the ctx out fields).
  using EntryFn = void (*)(JitContext*);

  /// Compile `p` (which must outlive the returned program). Returns null
  /// when native execution is unavailable (non-x86-64 target or the
  /// executable mapping failed) — callers fall back to the interpreter.
  [[nodiscard]] static std::shared_ptr<const JitProgram> compile(
      const vm::DecodedProgram& p);

  /// True when this build can emit and run native code (x86-64 with
  /// executable mappings).
  [[nodiscard]] static bool supported() noexcept;

  /// supported() and not disabled by the FT_VM_NO_JIT environment variable
  /// — the one switch that forces every engine user back to the
  /// interpreter (CI runs the full suite once with it set).
  [[nodiscard]] static bool runtime_enabled() noexcept;

  /// Whether `op` has a native template (false => its instructions deopt).
  [[nodiscard]] static bool opcode_compiled(ir::Opcode op) noexcept;

  /// Per-program compilation stats.
  struct Stats {
    std::uint32_t compiled = 0;    ///< instructions with a native template
    std::uint32_t deopt = 0;       ///< instructions that exit to the interpreter
    std::size_t code_bytes = 0;    ///< installed native code size
  };

  [[nodiscard]] EntryFn entry() const noexcept {
    return reinterpret_cast<EntryFn>(
        reinterpret_cast<std::uintptr_t>(buf_.base()));
  }
  /// Per-pc absolute native addresses (indexed by flat pc).
  [[nodiscard]] const std::uint64_t* entries() const noexcept {
    return entries_.data();
  }
  [[nodiscard]] const vm::DecodedProgram& program() const noexcept {
    return *prog_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  JitProgram() = default;

  const vm::DecodedProgram* prog_ = nullptr;
  CodeBuffer buf_;
  std::vector<std::uint64_t> entries_;
  Stats stats_;
};

}  // namespace ft::jit
