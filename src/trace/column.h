/// @file
/// Columnar trace substrate.
///
/// The legacy Trace is an array-of-structs vector of ~128-byte vm::DynInstr
/// records, and every record duplicates static facts (func/block/instr,
/// opcode, predicate, type, operand count, line, aux) that the decoded
/// program already holds once per flat pc. ColumnTrace stores one traced
/// execution as structure-of-arrays *dynamic* columns keyed by flat pc:
///
///   pc          u32  flat pc into DecodedProgram::code() — resolves every
///                    static field of the record
///   activation  u32  frame instance executing the instruction — resolves
///                    register locations (reg_loc(activation, reg))
///   result_bits u64  the committed/stored/emitted value (0 when none)
///   ops_offset  u32  per-record start into the packed operand-bits pool
///   op_bits     u64  pool: one entry per non-empty recorded operand
///
/// plus a rare-escape side list (`extras`) for the few locations that are
/// not derivable from the columns: Arg-operand locations (they flow in from
/// the caller) and the caller-side register a Ret commits to. Everything
/// else a DynInstr carries is reconstructed: memory effective addresses are
/// the recorded pointer/address operand values, the branch bit is bit 0 of
/// the recorded condition, operand types come from the pre-resolved Src
/// descriptors, and record indices are row numbers (a ColumnTrace always
/// holds one contiguous stream from dynamic instruction 0).
///
/// Net effect (the "memory of a trace"): ~20 fixed bytes + 8 bytes per
/// recorded operand instead of 128, a 3-4x resident-size reduction on the
/// paper workloads, measured by bench/trace_substrate_ab.cpp.
///
/// The decoded engine appends into a ColumnTrace directly (the direct-emit
/// instantiation of the hot loop, vm/interp.cpp) — no DynInstr is
/// materialized and no virtual observer dispatch runs per record. Analyses
/// read through TraceView, a zero-copy span whose cursor materializes a
/// bit-identical vm::DynInstr on demand (pinned against the legacy observer
/// path by tests/column_trace_test.cpp).
///
/// A ColumnTrace either OWNS its columns (the appending form above) or
/// BORROWS them from externally managed memory — the zero-copy load path of
/// the persistent store (store/trace_io.h), which mmaps the on-disk
/// structure-of-arrays segments and adopts them without touching a byte.
/// Borrowed traces are read-only (appending asserts); every reader —
/// materialize, TraceView, the columnar scans — works identically on both
/// forms, so a golden trace produced in one process serves analyses and
/// campaigns in any number of later processes.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "vm/decode.h"
#include "vm/observer.h"

namespace ft::trace {

class TraceView;

class ColumnTrace {
 public:
  ColumnTrace() = default;
  /// The trace resolves static record fields through `program`; holding the
  /// shared_ptr keeps the decoded form (not the module it points into)
  /// alive for the trace's lifetime.
  explicit ColumnTrace(std::shared_ptr<const vm::DecodedProgram> program)
      : prog_(std::move(program)) {}

  [[nodiscard]] const vm::DecodedProgram& program() const noexcept {
    return *prog_;
  }
  [[nodiscard]] const std::shared_ptr<const vm::DecodedProgram>&
  program_ptr() const noexcept {
    return prog_;
  }

  /// Escape-list entry: a location (or raw bits) that cannot be derived
  /// from the columns. Deliberately padding-free (three u64 fields) so the
  /// in-memory array IS the on-disk segment — the store writes it verbatim
  /// and the mmap loader adopts it back without translation.
  struct Extra {
    std::uint64_t row;
    std::uint64_t loc;   // a Location, or raw bits for kLoadValueSlot
    std::uint64_t slot;  // operand slot, kResultSlot, or kLoadValueSlot
  };
  static_assert(sizeof(Extra) == 24, "Extra is the on-disk escape record");

  /// Raw structure-of-arrays view of the dynamic columns: the serialization
  /// surface of the persistent store (store/trace_io.h) and the adoption
  /// point of its zero-copy mmap loader.
  struct RawColumns {
    const std::uint32_t* pc = nullptr;
    const std::uint32_t* activation = nullptr;
    const std::uint32_t* ops_offset = nullptr;
    const std::uint64_t* result_bits = nullptr;
    const std::uint64_t* op_bits = nullptr;
    const Extra* extras = nullptr;
    std::size_t rows = 0;
    std::size_t ops = 0;
    std::size_t num_extras = 0;
  };

  [[nodiscard]] RawColumns raw() const noexcept {
    if (borrowed_) return bor_;
    RawColumns c;
    c.pc = pc_.data();
    c.activation = activation_.data();
    c.ops_offset = ops_offset_.data();
    c.result_bits = result_bits_.data();
    c.op_bits = op_bits_.data();
    c.extras = extras_.data();
    c.rows = pc_.size();
    c.ops = op_bits_.size();
    c.num_extras = extras_.size();
    return c;
  }

  /// Construct a read-only trace over externally owned columns (an mmap'd
  /// store segment). The memory behind `cols` must outlive the trace — the
  /// store loader guarantees it with an aliasing shared_ptr that pins the
  /// mapping to the returned trace.
  [[nodiscard]] static ColumnTrace adopt(
      std::shared_ptr<const vm::DecodedProgram> program,
      const RawColumns& cols) {
    ColumnTrace t(std::move(program));
    t.borrowed_ = true;
    t.bor_ = cols;
    return t;
  }
  /// True for mmap-adopted traces (read-only; appending asserts).
  [[nodiscard]] bool borrowed() const noexcept { return borrowed_; }

  [[nodiscard]] std::size_t size() const noexcept {
    return borrowed_ ? bor_.rows : pc_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  // --- appending (inlined into the Vm's direct-emit hot loop) ----------------
  /// Open record `row == size()` for the instruction at `pc`, executed by
  /// frame instance `activation`. Operand bits (and escapes) follow via
  /// push_op/push_op_loc; the result is filled by set_result and defaults
  /// to "none".
  void begin_record(std::uint32_t pc, std::uint64_t activation) {
    assert(!borrowed_ && "mmap-adopted traces are read-only");
    assert(activation <= ~std::uint32_t{0} &&
           "columnar traces index frames with 32-bit activations");
    pc_.push_back(pc);
    activation_.push_back(static_cast<std::uint32_t>(activation));
    ops_offset_.push_back(static_cast<std::uint32_t>(op_bits_.size()));
    result_bits_.push_back(0);
  }
  /// Append the value of the next non-empty recorded operand.
  void push_op(std::uint64_t bits) { op_bits_.push_back(bits); }
  /// Escape: record slot `slot` holds a location that cannot be derived
  /// from the columns (an Arg operand's caller-provided location).
  void push_op_loc(std::uint8_t slot, vm::Location loc) {
    extras_.push_back(Extra{pc_.size() - 1, loc, slot});
  }
  void set_result(std::uint64_t bits) { result_bits_.back() = bits; }
  /// Escape: the open record commits its result outside the executing frame
  /// (Ret writing the caller's destination register).
  void set_result_loc(vm::Location loc) {
    extras_.push_back(Extra{pc_.size() - 1, loc, kResultSlot});
  }
  /// Escape: a result-bit fault flipped this Load's committed value, so the
  /// recorded memory-cell operand (pre-flip) no longer equals the result
  /// column. At most one record per faulty run takes this path.
  void set_load_value(std::uint64_t bits) {
    extras_.push_back(Extra{pc_.size() - 1, bits, kLoadValueSlot});
  }
  /// Drop rows >= `rows` — the direct-emit loop pre-opens a record per
  /// fetched instruction and rolls the last one back if it traps mid-flight.
  void truncate_to(std::uint64_t rows) {
    assert(!borrowed_ && "mmap-adopted traces are read-only");
    if (rows >= size()) return;
    op_bits_.resize(ops_offset_[rows]);
    pc_.resize(rows);
    activation_.resize(rows);
    ops_offset_.resize(rows);
    result_bits_.resize(rows);
    while (!extras_.empty() && extras_.back().row >= rows) extras_.pop_back();
  }
  void reserve(std::size_t records) {
    pc_.reserve(records);
    activation_.reserve(records);
    ops_offset_.reserve(records);
    result_bits_.reserve(records);
    op_bits_.reserve(records * 2);
  }

  /// Writable tails of the owned columns, handed out by extend().
  struct ColumnTail {
    std::uint32_t* pc = nullptr;
    std::uint32_t* activation = nullptr;
    std::uint32_t* ops_offset = nullptr;
    std::uint64_t* result_bits = nullptr;
    std::uint64_t* op_bits = nullptr;
    Extra* extras = nullptr;
  };
  /// Grow the owned columns by `rows` records, `ops` operand-pool entries
  /// and `extras` escapes (zero-filled) and return the new tails, to be
  /// filled in place with columns copied from a stored trace: a lineage
  /// root's prefix, then a derived trace's suffix (store/lineage.h reads
  /// both straight into them). The filler leaves the columns as the
  /// appending path would: `ops_offset` indexes this trace's pool and
  /// `Extra::row` this trace's rows, both non-decreasing. A Vm that
  /// retired exactly size() instructions of the same execution can then
  /// continue appending (Vm::attach_column_sink).
  ColumnTail extend(std::size_t rows, std::size_t ops, std::size_t extras) {
    assert(!borrowed_ && "mmap-adopted traces are read-only");
    const std::size_t r0 = pc_.size();
    const std::size_t o0 = op_bits_.size();
    const std::size_t e0 = extras_.size();
    pc_.resize(r0 + rows);
    activation_.resize(r0 + rows);
    ops_offset_.resize(r0 + rows);
    result_bits_.resize(r0 + rows);
    op_bits_.resize(o0 + ops);
    extras_.resize(e0 + extras);
    return ColumnTail{pc_.data() + r0,          activation_.data() + r0,
                      ops_offset_.data() + r0,  result_bits_.data() + r0,
                      op_bits_.data() + o0,     extras_.data() + e0};
  }

  /// Append one already-materialized record (the lockstep diff path, which
  /// steps two VMs and records the faulty side). `pc` is the record's flat
  /// pc (Vm::next_pc() before the step). Reconstructs to a record
  /// bit-identical to `d`.
  void append(const vm::DynInstr& d, std::uint32_t pc);

  // --- reading ---------------------------------------------------------------
  /// Reconstruct row `row` into `out`, bit-identical to the DynInstr the
  /// observer path would have delivered.
  void materialize(std::size_t row, vm::DynInstr& out) const;
  [[nodiscard]] vm::DynInstr record(std::size_t row) const {
    vm::DynInstr d;
    materialize(row, d);
    return d;
  }

  /// Cheap static peeks that skip materialization (columnar scans).
  [[nodiscard]] ir::Opcode opcode_at(std::size_t row) const noexcept {
    return prog_->code()[pc_col()[row]].op;
  }
  [[nodiscard]] std::int64_t aux_at(std::size_t row) const noexcept {
    return prog_->code()[pc_col()[row]].aux;
  }

  [[nodiscard]] TraceView view() const noexcept;
  /// Records with dynamic index in [begin, end) — same contract as
  /// Trace::slice; indices equal rows here.
  [[nodiscard]] TraceView slice(std::uint64_t begin, std::uint64_t end) const
      noexcept;

  /// Resident bytes of the dynamic columns (capacity-independent: what the
  /// records themselves occupy). The sizing note in README.md and the
  /// bytes/record gate in scripts/bench_smoke.sh are computed from this.
  /// For a borrowed trace this equals the mapped segment payload.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    const auto c = raw();
    return c.rows * (2 * sizeof(std::uint32_t) + sizeof(std::uint32_t) +
                     sizeof(std::uint64_t)) +
           c.ops * sizeof(std::uint64_t) + c.num_extras * sizeof(Extra);
  }
  [[nodiscard]] double bytes_per_record() const noexcept {
    return empty() ? 0.0
                   : static_cast<double>(resident_bytes()) /
                         static_cast<double>(size());
  }

  /// Extra::slot sentinels (public: the store loader validates slots of a
  /// mapped escape list against them before serving the trace).
  static constexpr std::uint64_t kResultSlot = 0xFF;
  static constexpr std::uint64_t kLoadValueSlot = 0xFE;

 private:
  // Column read accessors: one predictable branch selects owned vectors or
  // the borrowed (mmap'd) arrays. Readers are analysis paths; the direct-
  // emit hot loop only appends and never pays it.
  [[nodiscard]] const std::uint32_t* pc_col() const noexcept {
    return borrowed_ ? bor_.pc : pc_.data();
  }
  [[nodiscard]] const std::uint32_t* activation_col() const noexcept {
    return borrowed_ ? bor_.activation : activation_.data();
  }
  [[nodiscard]] const std::uint32_t* ops_offset_col() const noexcept {
    return borrowed_ ? bor_.ops_offset : ops_offset_.data();
  }
  [[nodiscard]] const std::uint64_t* result_bits_col() const noexcept {
    return borrowed_ ? bor_.result_bits : result_bits_.data();
  }
  [[nodiscard]] const std::uint64_t* op_bits_col() const noexcept {
    return borrowed_ ? bor_.op_bits : op_bits_.data();
  }
  [[nodiscard]] const Extra* extras_col() const noexcept {
    return borrowed_ ? bor_.extras : extras_.data();
  }
  [[nodiscard]] std::size_t num_extras() const noexcept {
    return borrowed_ ? bor_.num_extras : extras_.size();
  }

  /// Location of operand slot `i` (descriptor `s`) of a record executed by
  /// `activation`; escapes are resolved by the caller.
  [[nodiscard]] static vm::Location derived_src_loc(
      const vm::Src& s, std::uint64_t activation) noexcept {
    return s.kind == vm::SrcKind::Reg ? vm::reg_loc(activation, s.index)
                                      : vm::kNoLoc;
  }
  /// First escape entry of `row` (extras are appended in row order).
  [[nodiscard]] std::size_t extras_lower_bound(std::uint64_t row) const;

  std::shared_ptr<const vm::DecodedProgram> prog_;
  std::vector<std::uint32_t> pc_;
  std::vector<std::uint32_t> activation_;
  std::vector<std::uint32_t> ops_offset_;
  std::vector<std::uint64_t> result_bits_;
  std::vector<std::uint64_t> op_bits_;
  std::vector<Extra> extras_;
  bool borrowed_ = false;
  RawColumns bor_;  // valid only when borrowed_
};

/// Zero-copy span over a ColumnTrace: [begin, end) rows. Iteration
/// materializes each record into a cursor-owned DynInstr, so analyses can
/// range-for a TraceView exactly as they range-for a record span.
class TraceView {
 public:
  TraceView() = default;
  TraceView(const ColumnTrace* t, std::size_t begin, std::size_t end)
      : trace_(t), begin_(begin), end_(end) {}

  [[nodiscard]] std::size_t size() const noexcept { return end_ - begin_; }
  [[nodiscard]] bool empty() const noexcept { return begin_ == end_; }
  [[nodiscard]] const ColumnTrace& trace() const noexcept { return *trace_; }

  /// i-th record of the view (relative).
  [[nodiscard]] vm::DynInstr record(std::size_t i) const {
    return trace_->record(begin_ + i);
  }

  /// Records with dynamic index in [begin, end), intersected with this
  /// view (same contract as Trace::slice; indices equal rows).
  [[nodiscard]] TraceView slice(std::uint64_t begin, std::uint64_t end) const
      noexcept {
    const auto lo = std::max<std::uint64_t>(begin, begin_);
    const auto hi = std::min<std::uint64_t>(end, end_);
    return lo < hi ? TraceView(trace_, lo, hi) : TraceView(trace_, end_, end_);
  }
  /// First `n` records of the view.
  [[nodiscard]] TraceView prefix(std::size_t n) const noexcept {
    return TraceView(trace_, begin_, begin_ + std::min(n, size()));
  }

  class iterator {
   public:
    iterator(const ColumnTrace* t, std::size_t row) : trace_(t), row_(row) {}
    const vm::DynInstr& operator*() const {
      if (!filled_) {
        trace_->materialize(row_, rec_);
        filled_ = true;
      }
      return rec_;
    }
    iterator& operator++() {
      ++row_;
      filled_ = false;
      return *this;
    }
    bool operator!=(const iterator& o) const noexcept {
      return row_ != o.row_;
    }
    bool operator==(const iterator& o) const noexcept {
      return row_ == o.row_;
    }

   private:
    const ColumnTrace* trace_;
    std::size_t row_;
    mutable vm::DynInstr rec_;
    mutable bool filled_ = false;
  };

  [[nodiscard]] iterator begin() const { return iterator(trace_, begin_); }
  [[nodiscard]] iterator end() const { return iterator(trace_, end_); }

 private:
  const ColumnTrace* trace_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

inline TraceView ColumnTrace::view() const noexcept {
  return TraceView(this, 0, size());
}

inline TraceView ColumnTrace::slice(std::uint64_t begin,
                                    std::uint64_t end) const noexcept {
  return view().slice(begin, end);
}

}  // namespace ft::trace
