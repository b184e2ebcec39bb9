// Lockstep differential execution.
//
// FlipTracker's analyses compare a faulty run against a matching fault-free
// run (§III-D: "we compare the values of input and output locations ...
// between faulty and fault-free runs"). Because the VM is deterministic, the
// two instruction streams are identical record-by-record until either the
// fault alters control flow (a corrupted branch) or the faulty run traps.
// diff_run_columnar() steps two decoded-engine VMs over one shared program
// in lockstep and records the faulty stream into a columnar
// trace::ColumnTrace, the matching clean result and operand values per
// record, and the first divergence point if any. The ACL sweep, the pattern
// detectors and the region tolerance classifier read the result through
// ColumnDiff::records() without materializing the stream; this is what
// core::AnalysisSession::column_diff_with and patterns_for run on.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/column.h"
#include "util/bitset.h"
#include "vm/fault_plan.h"
#include "vm/interp.h"

namespace ft::acl {

struct DiffOptions {
  vm::VmOptions base;     // seed / mpi / budget; observer & fault ignored
  vm::FaultPlan fault;    // the injection for the faulty run
  std::size_t max_records = 0;  // cap on materialized records (0 = no cap)
  /// Expected record count (e.g. the session's golden-trace size): the
  /// faulty stream and the per-record clean columns reserve this up front
  /// instead of growing through a dozen reallocations.
  std::size_t reserve_records = 0;
};

inline constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

/// Differential result: the faulty stream on the columnar substrate plus the
/// per-record clean-side columns.
struct ColumnDiff {
  trace::ColumnTrace faulty;               // faulty-run record stream
  std::vector<std::uint64_t> clean_bits;   // clean result bits per record
  // Clean operand bits per record (aligned with DynInstr::op_bits); lets
  // region-boundary analyses compare input values between the two runs.
  std::vector<std::array<std::uint64_t, vm::kMaxTracedOps>> clean_op_bits;
  util::Bitset differs;                    // result differs at record i
  std::uint64_t divergence_index = kNoIndex;  // first control-flow divergence
  bool truncated = false;                  // record cap reached
  vm::RunResult faulty_result;             // full-run outcomes (always valid)
  vm::RunResult clean_result;

  [[nodiscard]] bool diverged() const noexcept {
    return divergence_index != kNoIndex;
  }
  /// Records in [0, usable_records()) have trustworthy clean/differs data.
  [[nodiscard]] std::size_t usable_records() const noexcept {
    return clean_bits.size();
  }
  /// The usable lockstep prefix as a zero-copy view.
  [[nodiscard]] trace::TraceView records() const noexcept {
    return faulty.view().prefix(usable_records());
  }
};

/// Lockstep diff on the decoded engine. Both VMs execute the shared
/// pre-decoded program, so callers that diff many plans against one program
/// (core::AnalysisSession) pay the decode cost once, not per diff. The
/// faulty stream lands in a ColumnTrace that shares `program` (the
/// shared_ptr keeps the decoded form alive past the call). Its rows
/// materialize bit-identically to a plain traced run under the same fault
/// plan, and its clean columns to the fault-free traced run (pinned by
/// tests/acl_test.cpp against those two runs).
[[nodiscard]] ColumnDiff diff_run_columnar(
    std::shared_ptr<const vm::DecodedProgram> program,
    const DiffOptions& opts);

}  // namespace ft::acl
