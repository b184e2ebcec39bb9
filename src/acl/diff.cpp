#include "acl/diff.h"

#include <algorithm>
#include <limits>

namespace ft::acl {

namespace {

/// Rows both machines run and record between two pc comparisons. Past the
/// record cap the diff holds one window of scratch rows per machine, and
/// after the divergence each machine has run at most one window traced.
constexpr std::uint64_t kWindowRows = 8192;

/// Append the clean-side columns of `n` lockstep rows: rows [0, n) of
/// `clean` pair with rows [fbase, fbase + n) of `out.faulty`. Operand bits
/// follow the slot layout of ColumnTrace::materialize. A row differs when
/// its result columns differ: a record without a comparable result (no
/// result location and not an Emit/EmitTrunc) keeps result bits 0 on both
/// sides, and because the pc prefixes match, both call stacks match too, so
/// a Ret commits to a caller register on both sides or on neither.
void append_clean_columns(const trace::ColumnTrace& clean, std::size_t fbase,
                          std::size_t n, ColumnDiff& out) {
  const vm::DecodedProgram& prog = clean.program();
  const auto c = clean.raw();
  const auto f = out.faulty.raw();
  for (std::size_t i = 0; i < n; ++i) {
    const vm::DecodedInstr& ins = prog.code()[c.pc[i]];
    const std::uint64_t* const pool = c.op_bits + c.ops_offset[i];
    std::array<std::uint64_t, vm::kMaxTracedOps> ops{};
    if (ins.op == ir::Opcode::Load) {
      // The clean run flips nothing, so its loaded value is its result.
      ops[0] = c.result_bits[i];
      ops[1] = pool[0];
    } else {
      const vm::Src* const srcs = prog.srcs() + ins.src_begin;
      const auto nrec = std::min<unsigned>(ins.src_count, vm::kMaxTracedOps);
      unsigned k = 0;
      for (unsigned s = 0; s < nrec; ++s) {
        if (srcs[s].kind != vm::SrcKind::None) ops[s] = pool[k++];
      }
    }
    out.clean_bits.push_back(c.result_bits[i]);
    out.clean_op_bits.push_back(ops);
    out.differs.push_back(f.result_bits[fbase + i] != c.result_bits[i]);
  }
}

}  // namespace

ColumnDiff diff_run_columnar(
    std::shared_ptr<const vm::DecodedProgram> program,
    const DiffOptions& opts) {
  const std::uint64_t cap = opts.max_records != 0
                                ? opts.max_records
                                : std::numeric_limits<std::uint64_t>::max();
  ColumnDiff out;
  out.faulty = trace::ColumnTrace(program);
  trace::ColumnTrace clean_window(program);
  clean_window.reserve(kWindowRows);
  if (opts.reserve_records != 0) {
    const auto n = std::min<std::uint64_t>(opts.reserve_records, cap);
    out.faulty.reserve(n + kWindowRows);
    out.clean_bits.reserve(n);
    out.clean_op_bits.reserve(n);
    out.differs.reserve(n);
  }

  vm::VmOptions clean_opts = opts.base;
  clean_opts.observer = nullptr;
  clean_opts.fault = vm::FaultPlan::none();
  clean_opts.column_sink = &clean_window;
  vm::VmOptions faulty_opts = clean_opts;
  faulty_opts.fault = opts.fault;
  faulty_opts.column_sink = &out.faulty;
  vm::Vm clean(*program, clean_opts);
  vm::Vm faulty(*program, faulty_opts);

  // Each window starts with both machines `lockstep` instructions in, the
  // faulty trace holding the recorded rows [0, min(lockstep, cap)) and the
  // clean window empty. With one shared decoded program the flat pc
  // identifies the static site, so "same site" is a pc compare.
  std::uint64_t lockstep = 0;
  bool mismatch = false;
  for (;;) {
    const std::size_t fbase = out.faulty.size();
    clean.run_until(lockstep + kWindowRows);
    faulty.run_until(lockstep + kWindowRows);
    const auto c = clean_window.raw();
    const auto f = out.faulty.raw();
    const std::size_t both = std::min(c.rows, f.rows - fbase);
    const auto same = static_cast<std::size_t>(
        std::mismatch(c.pc, c.pc + both, f.pc + fbase).first - c.pc);
    if (lockstep < cap) {
      append_clean_columns(clean_window, fbase,
                           std::min<std::uint64_t>(same, cap - lockstep), out);
    }
    lockstep += same;
    out.faulty.truncate_to(std::min(lockstep, cap));
    clean_window.truncate_to(0);
    if (same < both) {
      mismatch = true;
      break;
    }
    if (clean.status() != vm::Vm::Status::Running ||
        faulty.status() != vm::Vm::Status::Running) {
      break;  // one run ended: the shorter stream is fully compared
    }
  }
  out.truncated = lockstep >= cap;

  // Drive both runs to completion, untraced, for outcome classification.
  clean.detach_column_sink();
  faulty.detach_column_sink();
  out.clean_result = clean.run();
  out.faulty_result = faulty.run();
  if (mismatch) {
    out.divergence_index = lockstep;
  } else if (!out.faulty_result.completed()) {
    out.divergence_index = out.faulty_result.instructions;  // the trap row
  }
  return out;
}

}  // namespace ft::acl
