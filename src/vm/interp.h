/// @file
/// The MiniIR interpreter.
///
/// One Vm executes one module deterministically: same module + same options
/// (seed, fault plan) => bit-identical instruction stream. Determinism is
/// what lets FlipTracker match faulty runs against fault-free runs
/// record-by-record (the paper relies on record-and-replay for this, §V-B;
/// our VM is deterministic by construction).
///
/// Two execution engines, bit-identical by construction and pinned so by
/// tests/decode_test.cpp; the constructor picks the engine:
///   * decoded — constructed from a vm::DecodedProgram (vm/decode.h): flat
///     pre-resolved instruction stream dispatched over a dense-opcode jump
///     table, with one contiguous register/argument stack shared by all
///     frames (no per-frame heap allocation). This is the hot engine every
///     campaign trial runs on; decode once per program, execute thousands
///     of times. One interpreter loop serves it, untraced or recording into
///     a columnar trace (VmOptions::column_sink), beside the JIT
///     (VmOptions::jit).
///   * legacy — constructed from an ir::Module directly: walks the nested
///     ir::Instruction/ir::Operand representation. Kept as the reference
///     implementation the decoded engine is checked against, and the only
///     engine that feeds an ExecObserver.
///
/// Two driving styles:
///   * Vm::run()  — run to completion. On the decoded engine with
///                  VmOptions::column_sink set, the hot loop appends every
///                  record directly into the columnar trace — no DynInstr,
///                  no virtual dispatch; without one nothing is
///                  materialized (the campaign fast path). On the legacy
///                  engine with VmOptions::observer set, records stream
///                  through the ExecObserver hook (the gating/selective
///                  path).
///   * Vm::run_until() — run the decoded hot loop up to a target retired
///                  count and stop with the machine still Running. Paired
///                  with save()/restore()/fork_from() (Vm::Snapshot) this
///                  is what the snapshot-forked campaign scheduler
///                  (src/fault/) builds on: execute the golden prefix
///                  once (a cursor machine, resumed site to site, never
///                  from zero) and fork every injection trial at exactly
///                  its site instead of replaying the prefix. The lockstep
///                  differential engine (src/acl/) advances a clean and a
///                  faulty traced machine window by window with it and
///                  compares their pc columns.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ir/module.h"
#include "util/rng.h"
#include "vm/decode.h"
#include "vm/fault_plan.h"
#include "vm/mpi_endpoint.h"
#include "vm/observer.h"
#include "vm/trap.h"

namespace ft::trace {
class ColumnTrace;
}  // namespace ft::trace

namespace ft::jit {
class JitProgram;
struct VmAccess;
}  // namespace ft::jit

namespace ft::vm {

struct OutputValue {
  std::uint64_t bits = 0;
  ir::Type type = ir::Type::F64;

  [[nodiscard]] double as_f64() const noexcept;
  [[nodiscard]] std::int64_t as_i64() const noexcept;

  bool operator==(const OutputValue&) const = default;
};

struct VmOptions {
  std::uint64_t max_instructions = std::uint64_t{1} << 31;
  double rand_seed = 314159265.0;  // NAS randlc default
  /// Per-record hook (legacy engine only: a decoded Vm built with one is
  /// rejected). Decoded runs record through `column_sink` instead.
  ExecObserver* observer = nullptr;
  FaultPlan fault{};
  MpiEndpoint* mpi = nullptr;
  std::uint32_t max_call_depth = 256;
  /// When set (decoded engine only, must be empty, built over the same
  /// program), run() and run_until() execute the direct-emit hot loop:
  /// every retired record is appended straight into the columnar trace — no
  /// DynInstr is materialized and no observer dispatch runs. Each call
  /// appends after the sink's current end, so between run_until() calls a
  /// caller may truncate rows it has consumed (ColumnTrace::truncate_to).
  trace::ColumnTrace* column_sink = nullptr;
  /// Track which memory pages the machine writes (decoded engine): enables
  /// the incremental state transfers of the campaign scheduler —
  /// Vm::restore_dirty() (re-restore a snapshot copying only the pages
  /// dirtied since) and Vm::fork_from() (sync a trial machine to the
  /// golden cursor through the union of both machines' dirty pages).
  /// Costs a couple of ALU ops per retired Store.
  bool track_writes = false;
  /// When set (decoded engine, untraced runs only), run()/run_until()
  /// execute natively through this pre-compiled form of the program instead
  /// of the interpreter hot loop — golden-cursor advances, trial tails and
  /// convergence probes all go native. Must be compiled from the same
  /// DecodedProgram the Vm executes, and must outlive the Vm. Ignored by
  /// the legacy engine, on column-sink runs (those need per-instruction
  /// recording) and when `count_opcodes` is set. The machine state layout
  /// is shared with the interpreter, so snapshots, fork_from() and
  /// run_until() stop marks behave identically; tests/engine_fuzz_test.cpp
  /// pins the equivalence.
  const jit::JitProgram* jit = nullptr;
  /// Count per-opcode dynamic dispatches in the decoded interpreter
  /// (Vm::opcode_counts()). Forces the interpreter even when `jit` is set —
  /// the counters are how the JIT's opcode coverage is ranked by
  /// retired-instruction share (core/analysis.h reports them per app).
  bool count_opcodes = false;
};

struct RunResult {
  TrapKind trap = TrapKind::None;
  std::uint64_t instructions = 0;
  bool fault_fired = false;
  std::vector<OutputValue> outputs;

  [[nodiscard]] bool completed() const noexcept {
    return trap == TrapKind::None;
  }
};

class Vm {
 public:
  enum class Status : std::uint8_t { Running, Finished, Trapped };

  /// The decoded engine's machine state mid-run, memory held as shared
  /// copy-on-write pages (defined after the class; it names private frame
  /// types). See save()/restore().
  struct Snapshot;

  /// Run the legacy tree-walking engine over `m`. The module must outlive
  /// the Vm and must be laid out (Module::layout(), done by
  /// ProgramBuilder::finish()).
  explicit Vm(const ir::Module& m, VmOptions opts = {});

  /// Execute the decoded engine over `p` (which must outlive the Vm, as
  /// must the module it was decoded from). `opts.observer` must be unset.
  explicit Vm(const DecodedProgram& p, VmOptions opts = {});

  /// Construct the decoded engine directly in a snapshotted state: cheaper
  /// than construct-then-restore() because the golden memory image is never
  /// zeroed and re-initialized first (one full-image write per campaign
  /// trial on the snapshot-forked path). The snapshot must come from a Vm
  /// over the same program.
  Vm(const DecodedProgram& p, const Snapshot& s, VmOptions opts = {});

  /// Run to completion (or trap), feeding opts.observer if present.
  RunResult run();

  /// One-shot conveniences.
  static RunResult run(const ir::Module& m, VmOptions opts = {});
  static RunResult run(const DecodedProgram& p, VmOptions opts = {});

  // --- snapshot / resume (decoded engine only) -------------------------------
  /// Run the decoded hot loop until `target` instructions have retired in
  /// total (n_retired() == target), the program finishes/traps, or the
  /// hang budget (VmOptions::max_instructions) classifies the run as hung.
  /// Stopping at the target leaves status() == Running; calling again (or
  /// run()) resumes exactly where execution stopped. Honors an attached
  /// column sink; incompatible with an observer.
  void run_until(std::uint64_t target);

  /// Start recording into `sink` mid-run (decoded engine).
  /// `sink` must be built over this program and already hold exactly the
  /// records of the instructions retired so far (size() ==
  /// instructions_retired()), e.g. a golden prefix copied from the stored
  /// trace of an identical execution (trace::ColumnTrace::extend). Later
  /// run()/run_until() calls append the following records after it, so the
  /// finished sink equals a trace recorded from instruction 0 — while the
  /// prefix itself ran untraced (natively, when VmOptions::jit is set).
  void attach_column_sink(trace::ColumnTrace& sink);

  /// Stop recording: later run()/run_until() calls execute untraced
  /// (natively, when VmOptions::jit is set). The sink keeps its rows.
  void detach_column_sink() noexcept { opts_.column_sink = nullptr; }

  /// Capture the full machine state (memory image, frame stack, live
  /// register/argument slots, stack pointer, RNG, outputs, region counts,
  /// retired count) into `out`, reusing its buffers. Everything execution
  /// depends on is captured: restore() followed by any run is bit-identical
  /// to an execution that never snapshotted (pinned by
  /// tests/snapshot_test.cpp). The memory image is stored as a table of
  /// immutable 4 KiB pages: a page byte-equal to the same page of `prev`
  /// (a snapshot of a Vm over the same program, typically this machine's
  /// previous save) shares it, an all-zero page shares the process-wide
  /// zero page, and only the remaining pages are copied. Chained saves along
  /// one golden run therefore store only the pages each step changed.
  void save(Snapshot& out, const Snapshot* prev = nullptr) const;
  [[nodiscard]] Snapshot snapshot() const;

  /// Overwrite the machine state with `s` (taken from a Vm over the same
  /// decoded program with the same options). The fault plan is NOT part of
  /// the snapshot — arm the trial's plan afterwards with set_fault().
  void restore(const Snapshot& s);

  /// Incremental restore (requires VmOptions::track_writes): copy back only
  /// the memory pages written since the last (full or incremental) restore,
  /// then restore the cheap non-memory state as restore() does.
  /// PRECONDITION: the machine's memory last equaled the image of `s` (it was
  /// constructed from or restored to this same snapshot) and has since been
  /// mutated only through tracked execution — restoring to a *different*
  /// snapshot must go through restore().
  void restore_dirty(const Snapshot& s);

  /// Become a copy of `golden` (both machines over the same program with
  /// track_writes on). With `full`, the whole memory image is copied; with
  /// `full == false` only the pages either machine dirtied since the two
  /// last had identical memory are copied — the exact-fork step of the
  /// campaign scheduler, where `golden` is a cursor crawling the fault-free
  /// prefix and this machine reruns trial after trial. Clears BOTH
  /// machines' dirty bitmaps (they are in sync again).
  void fork_from(Vm& golden, bool full);

  /// True when the live machine state equals `s` bit for bit (memory,
  /// frames, live slots, sp, RNG, outputs, region counts, retired count,
  /// status). Deliberately ignores the fault-fired flag: the forked-trial
  /// convergence probe guards on fault_fired() itself before trusting
  /// state equality (an armed-but-unfired plan could still diverge later).
  [[nodiscard]] bool state_equals(const Snapshot& s) const;

  /// state_equals minus the memory image and emitted outputs: frames, live
  /// slots, sp, RNG, region counts, retired count and status all equal.
  /// The compositional engine (src/compose/) uses this to decide whether a
  /// faulty section exit differs from golden ONLY in data — in which case
  /// the difference is expressible as a (memory words, output slots) delta
  /// and eligible for symbolic propagation. Ignores fault_fired, like
  /// state_equals.
  [[nodiscard]] bool control_equals(const Snapshot& s) const;

  /// Re-arm the fault plan mid-life (clears the fired flag) and start a
  /// fresh write bitmap, so dirty_pages() then holds the armed run's writes
  /// only, as after fork_from(). Used by the campaign scheduler to reuse one
  /// forked machine for a new trial, or to turn a golden cursor into one.
  /// restore_dirty() copies back only the pages the bitmap names, so arm a
  /// plan only while memory equals the snapshot a later restore_dirty()
  /// targets (right after a restore, for instance).
  void set_fault(const FaultPlan& plan) noexcept;

  /// Checkpoint/rollback recovery re-entry (fault/campaign.h,
  /// RecoveryPolicy): restore `s` and disarm the fault plan, so the
  /// re-execution runs clean from the checkpoint. The contract is uniform
  /// across all three engines — the retired count rewinds to the
  /// checkpoint's while the hang budget stays the absolute
  /// VmOptions::max_instructions ceiling (the re-executed tail gets
  /// exactly the headroom the original execution had at the checkpoint),
  /// any pending run_until() pause mark is cleared, and the dirty-page
  /// bitmap is reset fully clean (a rolled-back machine shares no write
  /// history with any fork partner; the next fork_from must be full).
  /// Pinned cross-engine by tests/jit_test.cpp: a rollback from a
  /// native-cursor (JIT) run and from an interpreter run re-execute to
  /// state_equals-identical machines.
  void rollback(const Snapshot& s);

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] Status status() const noexcept { return status_; }
  [[nodiscard]] TrapKind trap() const noexcept { return trap_; }
  [[nodiscard]] std::uint64_t instructions_retired() const noexcept {
    return n_retired_;
  }
  [[nodiscard]] bool fault_fired() const noexcept { return fault_fired_; }
  [[nodiscard]] const std::vector<OutputValue>& outputs() const noexcept {
    return outputs_;
  }
  [[nodiscard]] RunResult take_result();

  /// Raw memory access (bounds-checked; aborts on misuse). Used by fault
  /// tooling and tests to read/poke program state.
  [[nodiscard]] std::uint64_t read_word(std::uint64_t addr,
                                        std::uint32_t size_bytes) const;
  void write_word(std::uint64_t addr, std::uint32_t size_bytes,
                  std::uint64_t bits);
  [[nodiscard]] std::span<const std::uint8_t> memory() const noexcept {
    return mem_;
  }
  /// Pages written since construction or the last restore(),
  /// restore_dirty(), fork_from(), set_fault() or rollback() (bit p % 64 of
  /// word p / 64, 4 KiB pages); empty unless VmOptions::track_writes is on.
  /// Every other page still holds the bytes it held then.
  [[nodiscard]] std::span<const std::uint64_t> dirty_pages() const noexcept {
    return dirty_;
  }

  /// How many instances of region `rid` have been entered so far.
  [[nodiscard]] std::uint32_t region_instances(std::uint32_t rid) const;

  /// Flat pc of the next instruction to retire (decoded engine only; on a
  /// trapped machine, the pc of the instruction that trapped).
  [[nodiscard]] std::uint32_t next_pc() const noexcept {
    return dframes_.back().pc;
  }

  /// Per-opcode dynamic dispatch counts (indexed by ir::Opcode), collected
  /// by the decoded interpreter when VmOptions::count_opcodes is set; empty
  /// otherwise. A fetched-but-trapping instruction is counted (it was
  /// dispatched), so on a clean run the sum equals instructions_retired().
  [[nodiscard]] std::span<const std::uint64_t> opcode_counts() const noexcept {
    return opcode_counts_;
  }

 private:
  /// The JIT runtime helpers (jit/jit_runtime.cpp) mutate machine state on
  /// behalf of emitted code — frame push/pop, RNG, outputs, region faults —
  /// through this single named door instead of N friend functions.
  friend struct jit::VmAccess;
  /// Shared construction: the decoded engine over `p` when non-null, the
  /// legacy engine over `m` otherwise.
  Vm(const ir::Module& m, const DecodedProgram* p, VmOptions opts);
  // --- legacy engine ---------------------------------------------------------
  struct Frame {
    std::uint32_t func = 0;
    std::uint64_t activation = 0;
    std::uint32_t block = 0;
    std::uint32_t pc = 0;
    std::vector<std::uint64_t> regs;
    std::vector<std::uint64_t> arg_bits;
    std::vector<Location> arg_locs;
    std::uint64_t saved_sp = 0;
    // Where the Call result goes when this frame returns.
    std::uint32_t ret_reg = ir::kNoReg;
  };

  // --- decoded engine --------------------------------------------------------
  // Frames index into one contiguous slot stack (`slots_`): registers at
  // [reg_base, arg_base), argument bits at [arg_base, arg_base + nargs).
  // Argument locations live on a parallel stack (`arg_locs_`). Pushing a
  // frame bumps the tops; popping restores them — no heap allocation after
  // the stacks reach their high-water mark.
  struct DFrame {
    std::uint32_t func = 0;
    std::uint64_t activation = 0;
    std::uint32_t pc = 0;  // flat index into DecodedProgram::code()
    std::uint32_t reg_base = 0;
    std::uint32_t arg_base = 0;
    std::uint32_t arg_loc_base = 0;
    std::uint32_t nargs = 0;
    std::uint64_t saved_sp = 0;
    std::uint32_t ret_reg = ir::kNoReg;

    bool operator==(const DFrame&) const = default;
  };

  struct OpVal {
    std::uint64_t bits = 0;
    Location loc = kNoLoc;
    ir::Type type = ir::Type::Void;
  };

  /// Keep an attached column sink consistent with a restore to
  /// `target_retired`: rows past the restore point roll back (the sink's
  /// rows are a contiguous suffix of the executed stream).
  void sync_sink_to(std::uint64_t target_retired);

  // --- write tracking (page-granular dirty bitmap) ---------------------------
  static constexpr std::uint64_t kDirtyPageShift = 12;  // 4 KiB pages
  void mark_dirty(std::uint64_t addr, std::uint32_t size) noexcept {
    const std::uint64_t first = addr >> kDirtyPageShift;
    const std::uint64_t last = (addr + size - 1) >> kDirtyPageShift;
    for (std::uint64_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
  }
  void restore_machine_state(const Snapshot& s);

  OpVal eval(const ir::Operand& o, const Frame& fr) const;
  OpVal eval_src(const Src& s, const DFrame& fr) const;
  void push_frame(std::uint32_t func, const ir::Instruction& call_ins,
                  Frame& caller, DynInstr* out);
  void push_dframe(const DecodedInstr& call_ins, const DFrame& caller);
  Status step_legacy(DynInstr* out);
  template <bool Traced>
  void run_decoded_hot();
  /// Native driver (interp_jit.cpp): alternates compiled-code bursts with
  /// single-instruction interpreter steps at deopt sites and the armed
  /// ResultBit flip index. Requires opts_.jit over prog_, untraced.
  void run_jit();
  [[nodiscard]] bool next_is_region_marker() const;
  [[nodiscard]] bool mem_ok(std::uint64_t addr, std::uint32_t size) const;
  void init_memory(const ir::Module& m);
  void set_trap(TrapKind t) noexcept;
  void maybe_flip_result(std::uint64_t& bits);
  void apply_region_entry_fault(std::uint32_t rid);

  const ir::Module* mod_;
  const DecodedProgram* prog_ = nullptr;  // non-null => decoded engine
  VmOptions opts_;
  std::vector<std::uint8_t> mem_;
  std::vector<std::uint64_t> dirty_;  // page bitmap; only with track_writes
  std::vector<Frame> frames_;
  std::vector<DFrame> dframes_;
  std::vector<std::uint64_t> slots_;  // contiguous regs+args, decoded engine
  std::vector<Location> arg_locs_;
  std::uint32_t slot_top_ = 0;
  std::uint32_t arg_loc_top_ = 0;
  /// Hot-loop stop mark for run_until(): execution pauses (status stays
  /// Running) once n_retired_ reaches this, independent of the hang budget.
  std::uint64_t stop_at_ = ~std::uint64_t{0};
  std::uint64_t sp_ = 0;
  std::uint64_t next_activation_ = 1;
  std::uint64_t n_retired_ = 0;
  std::vector<OutputValue> outputs_;
  std::vector<std::uint32_t> region_counts_;
  std::vector<std::uint64_t> opcode_counts_;  // only with count_opcodes
  util::Randlc randlc_;
  TrapKind trap_ = TrapKind::None;
  Status status_ = Status::Running;
  bool fault_fired_ = false;
};

/// The decoded engine's complete machine state at one retired-instruction
/// boundary. Snapshots are plain value types: copy/move them freely, reuse
/// one as a save() target across calls, and share a const snapshot across
/// threads — restore() only reads it.
///
/// The memory image is a table of immutable, reference-counted 4 KiB pages
/// (`pages`, one per page of the image; the last may extend past
/// `mem_size` and is zero there). Pages are shared, never written in place:
/// copying a snapshot copies the table, not the bytes; Vm::save() shares
/// every page equal to its `prev` snapshot's and maps all-zero pages to one
/// process-wide zero page; and copy-on-write (own_page) gives a snapshot a
/// private page before it is patched. A chain of boundary snapshots along
/// one golden run thus costs one image plus the pages each boundary
/// changed. Because pages are immutable and their reference counts atomic,
/// snapshots that share pages may be read, copied and destroyed on
/// different threads concurrently.
struct Vm::Snapshot {
  static constexpr std::size_t kPageBytes = std::size_t{1} << kDirtyPageShift;
  using Page = std::array<std::uint8_t, kPageBytes>;

  /// The shared all-zero page (one per process).
  [[nodiscard]] static const std::shared_ptr<const Page>& zero_page();

  std::vector<std::shared_ptr<const Page>> pages;
  std::uint64_t mem_size = 0;  // image bytes
  std::vector<DFrame> frames;
  std::vector<std::uint64_t> slots;       // live prefix [0, slot_top)
  std::vector<Location> arg_locs;         // live prefix [0, arg_loc_top)
  std::vector<OutputValue> outputs;
  std::vector<std::uint32_t> region_counts;
  std::uint64_t sp = 0;
  std::uint64_t next_activation = 1;
  std::uint64_t retired = 0;
  util::Randlc randlc;
  TrapKind trap = TrapKind::None;
  Status status = Status::Running;
  bool fault_fired = false;

  /// Image bytes held by page `p` (kPageBytes except for a partial last
  /// page).
  [[nodiscard]] std::size_t page_size(std::size_t p) const noexcept {
    return std::min<std::uint64_t>(kPageBytes, mem_size - p * kPageBytes);
  }

  /// Copy-on-write: replace page `p` with a private copy and return it for
  /// writing. Other snapshots that shared the old page are unaffected.
  /// Each call copies, so patch all words of one page through one call,
  /// and write through the pointer only before this snapshot is copied.
  [[nodiscard]] std::uint8_t* own_page(std::size_t p);

  /// Bytes addressable through the snapshot: every page-table entry counted
  /// at kPageBytes, plus the non-memory state. A page shared with other
  /// snapshots (or the zero page) is counted in each of them, so summing
  /// over a snapshot chain overstates the unique footprint; count distinct
  /// `pages` pointers for that. The campaign schedulers' waypoint caps
  /// still budget one full image per snapshot (fault/sampling.h), an upper
  /// bound known before any snapshot exists.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return pages.size() * kPageBytes + frames.size() * sizeof(DFrame) +
           slots.size() * sizeof(std::uint64_t) +
           arg_locs.size() * sizeof(Location) +
           outputs.size() * sizeof(OutputValue) +
           region_counts.size() * sizeof(std::uint32_t);
  }
};

}  // namespace ft::vm
