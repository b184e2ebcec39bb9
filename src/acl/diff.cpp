#include "acl/diff.h"

#include <algorithm>

namespace ft::acl {

namespace {

/// The lockstep core: both VMs are already constructed on the same decoded
/// program (clean vs faulty fault plan) and are stepped side by side; the
/// faulty stream is appended straight into `out.faulty`.
void diff_between(vm::Vm& clean, vm::Vm& faulty, const DiffOptions& opts,
                  ColumnDiff& out) {
  if (opts.reserve_records != 0) {
    const auto n = opts.max_records != 0
                       ? std::min(opts.reserve_records, opts.max_records)
                       : opts.reserve_records;
    out.faulty.reserve(n);
    out.clean_bits.reserve(n);
    out.clean_op_bits.reserve(n);
    out.differs.reserve(n);
  }

  vm::DynInstr crec, frec;
  bool recording = true;
  while (clean.status() == vm::Vm::Status::Running &&
         faulty.status() == vm::Vm::Status::Running) {
    // With one shared decoded program the flat pc identifies the static
    // site, so "same site" is a pc compare.
    const std::uint32_t fpc = faulty.next_pc();
    const std::uint32_t cpc = clean.next_pc();
    const auto cs = clean.step(&crec);
    const auto fs = faulty.step(&frec);
    const bool clean_retired = cs != vm::Vm::Status::Trapped;
    const bool faulty_retired = fs != vm::Vm::Status::Trapped;
    if (!clean_retired || !faulty_retired) {
      // One side trapped mid-instruction: streams end here.
      if (!faulty_retired && out.divergence_index == kNoIndex) {
        out.divergence_index = frec.index;
      }
      break;
    }

    if (cpc != fpc) {
      out.divergence_index = frec.index;
      break;
    }

    if (recording) {
      out.faulty.append(frec, fpc);
      out.clean_bits.push_back(crec.result_bits);
      out.clean_op_bits.push_back(crec.op_bits);
      // Register defs, memory stores, and emitted output values are
      // comparable; Emit/EmitTrunc carry the emitted bits in result_bits
      // with no result location.
      const bool comparable = frec.result_loc != vm::kNoLoc ||
                              frec.op == ir::Opcode::Emit ||
                              frec.op == ir::Opcode::EmitTrunc;
      out.differs.push_back(comparable &&
                            frec.result_bits != crec.result_bits);
      if (opts.max_records != 0 && out.faulty.size() >= opts.max_records) {
        recording = false;
        out.truncated = true;
      }
    }

    // When the streams have finished in the same step, stop cleanly.
    if (cs == vm::Vm::Status::Finished || fs == vm::Vm::Status::Finished) {
      if ((cs == vm::Vm::Status::Finished) !=
          (fs == vm::Vm::Status::Finished)) {
        out.divergence_index = frec.index;
      }
      break;
    }
  }

  // Drive both runs to completion for outcome classification; past the
  // divergence (or trap) point there is nothing more to record.
  while (clean.status() == vm::Vm::Status::Running) clean.step(nullptr);
  while (faulty.status() == vm::Vm::Status::Running) faulty.step(nullptr);

  out.clean_result = clean.take_result();
  out.faulty_result = faulty.take_result();
}

}  // namespace

ColumnDiff diff_run_columnar(
    std::shared_ptr<const vm::DecodedProgram> program,
    const DiffOptions& opts) {
  vm::VmOptions clean_opts = opts.base;
  clean_opts.program = program.get();
  clean_opts.observer = nullptr;
  clean_opts.column_sink = nullptr;
  clean_opts.fault = vm::FaultPlan::none();
  vm::VmOptions faulty_opts = clean_opts;
  faulty_opts.fault = opts.fault;
  vm::Vm clean(*program, clean_opts);
  vm::Vm faulty(*program, faulty_opts);
  ColumnDiff out;
  out.faulty = trace::ColumnTrace(std::move(program));
  diff_between(clean, faulty, opts, out);
  return out;
}

}  // namespace ft::acl
