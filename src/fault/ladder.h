/// @file
/// The golden section ladder and the transport rule that closes trials on it.
///
/// A ladder cuts one fault-free execution into at most a few dozen SECTIONS
/// at region-instance boundaries and records, per section, the golden facts
/// every campaign over that execution can share: the boundary machine state
/// (chained, page-shared snapshots), the section's upward-exposed read
/// blocks, the blocks it fully overwrites, whether it communicates, and the
/// memory pages it writes. core::AnalysisSession builds one ladder from the
/// golden trace it already holds and hands it to every campaign through the
/// site population (SiteEnumerationResult::ladder → PreparedCampaign), so
/// the forked trial scheduler (fault/campaign.h) and the compositional
/// engine (compose/compose.h) probe and close trials on the same boundaries.
///
/// The transport rule (FastFlip, PAPERS.md), stated once for both engines.
/// Let a faulty machine whose fault has already fired stand at ladder
/// boundary k.
///   1. Bit-equal state. If it equals the golden boundary state bit for bit,
///      the remainder is the golden run: VerificationSuccess.
///   2. Dead-only delta. If it is control-equal to the golden boundary state
///      (same frames, live registers, stack pointer, RNG, region counts,
///      retired count and status) it differs from golden only in memory
///      words and emitted outputs: a DELTA. Golden execution from a
///      control-equal state reads only non-delta words as long as the delta
///      is disjoint from the upward-exposed read set of each section it
///      crosses, so it retires the identical instruction stream and writes
///      identical values; the delta survives verbatim minus the blocks a
///      section fully overwrites (induction over sections). Outputs are
///      append-only and never read back. A delta that crosses every
///      downstream section unread therefore finishes the run with the golden
///      outputs patched by the output delta, and the trial is classified
///      from those without executing its tail. A delta some section reads
///      (or a section that communicates) leaves the trial open.
/// FlipTracker's observation in these terms: a fault is masked once no
/// ALIVE corrupted location remains; a corrupted word nobody reads again is
/// dead, and rule 2 stops paying for it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fault/outcome.h"
#include "trace/column.h"
#include "trace/segment.h"
#include "vm/interp.h"

namespace ft::fault {

/// Golden-trace facts of one section: the dynamic-instruction span, the
/// functions and static pcs it executes, and its memory footprint. Blocks
/// are 8-aligned byte addresses (addr & ~7). `reads` is the upward-exposed
/// read set — blocks a load or partial store touches before the section
/// fully overwrites them (a partial store merges old bytes with new, so it
/// consumes the old content for delta purposes). `kills` is the blocks the
/// section fully overwrites with one aligned 8-byte store.
struct SectionInfo {
  std::uint64_t begin = 0;  // first dynamic instruction of the section
  std::uint64_t end = 0;    // one past the last
  std::vector<std::uint32_t> funcs;  // sorted unique executed function ids
  /// Sorted unique static pcs the golden run executes inside the section —
  /// the code footprint compose's summary keys hash (store::hash_section).
  std::vector<std::uint32_t> pcs;
  std::vector<std::uint64_t> reads;  // sorted unique upward-exposed blocks
  std::vector<std::uint64_t> kills;  // sorted unique fully-written blocks
  /// Memory pages (vm::Vm::Snapshot::kPageBytes) the golden run stores to
  /// inside the section, as a bitmap (bit p % 64 of word p / 64). A page
  /// outside it holds the same bytes at every point of the section.
  std::vector<std::uint64_t> written;
  /// Sections executing MiniMPI ops never transport a delta (communication
  /// makes the footprint non-local).
  bool opaque = false;

  bool operator==(const SectionInfo&) const = default;
};

/// One golden execution cut into sections, with the golden machine state at
/// every section begin. Immutable once built; shared read-only by every
/// campaign and worker that probes on it.
struct SectionLadder {
  std::vector<SectionInfo> sections;
  /// Golden machine state at sections[i].begin (snapshots.size() ==
  /// sections.size()); snapshots[0] is the pristine pre-run machine. Each
  /// boundary shares every memory page the golden run left unchanged since
  /// the previous one (vm::Vm::save).
  std::vector<vm::Vm::Snapshot> snapshots;
  std::uint64_t total_instructions = 0;  // golden retired count
  /// The section cap the ladder was cut with (ladder_cap): a campaign whose
  /// fork policy yields another cap builds its own ladder.
  std::size_t max_sections = 0;
  /// The program the ladder was built over. Trials of any other program
  /// ignore the ladder.
  const vm::DecodedProgram* program = nullptr;
  /// Sections whose facts were copied from a lineage root's (build_ladder's
  /// `root`) instead of scanned from the trace.
  std::size_t sections_reused = 0;

  [[nodiscard]] bool empty() const noexcept { return sections.empty(); }
  /// Index of the section whose span contains retired count `index` (the
  /// last section for indices past the end).
  [[nodiscard]] std::uint32_t section_of(std::uint64_t index) const noexcept;
  /// Unique bytes the ladder holds: distinct snapshot pages, the page
  /// tables and other snapshot state, and the per-section fact vectors.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;
};

/// Sections per ladder when nothing else bounds them.
inline constexpr std::size_t kLadderSections = 32;

/// Section cap for `program` under a snapshot byte budget: `max_sections`,
/// lowered so that one full memory image per boundary fits
/// `max_snapshot_bytes` (0 = no budget). An upper bound — boundaries share
/// unchanged pages.
[[nodiscard]] std::size_t ladder_cap(const vm::DecodedProgram& program,
                                     std::size_t max_snapshot_bytes,
                                     std::size_t max_sections = kLadderSections);

/// Everything a ladder reads from its golden trace, without the boundary
/// snapshots: the region instances the cuts come from, every section's
/// facts, and the section cap and row count they were computed for. A
/// lineage root publishes its facts to the store (store::BlobKind::Facts);
/// an edited module of the same lineage reuses them for the rows it shares
/// with the root (store/lineage.h).
struct LadderFacts {
  std::vector<trace::RegionInstance> instances;
  std::vector<SectionInfo> sections;
  std::size_t max_sections = 0;
  std::uint64_t rows = 0;
};

/// A lineage root's facts and the number of leading rows the trace being
/// laddered shares with the root's trace, row for row.
struct RootFacts {
  const LadderFacts* facts = nullptr;
  std::uint64_t shared_rows = 0;
};

/// Cut the golden trace at region-instance boundaries
/// (trace::section_boundaries, at most `max_sections` sections), run the
/// golden prefix once under `base` (fault, observer and column sink
/// cleared) to snapshot every boundary, and scan each section's rows for
/// its facts. A section whose span equals one of `root`'s sections and ends
/// within the shared rows copies that section's facts instead of scanning
/// (a section's facts depend only on its own rows). Returns an empty
/// ladder when the trace does not describe a completed run of `program`. A
/// boundary the golden run cannot pause at truncates the cut list; the
/// tail then becomes one long final section.
[[nodiscard]] SectionLadder build_ladder(
    const vm::DecodedProgram& program, const trace::ColumnTrace& trace,
    std::span<const trace::RegionInstance> instances,
    const vm::VmOptions& base, std::size_t max_sections,
    RootFacts root = {});

/// The facts of `ladder`, cut from `instances`: what a lineage root
/// publishes for its edited descendants.
[[nodiscard]] LadderFacts ladder_facts(
    const SectionLadder& ladder,
    std::span<const trace::RegionInstance> instances);

/// A data-only delta: differing 8-byte memory words as (8-aligned address,
/// faulty bits) ascending by address, and differing emitted outputs as
/// (output index, faulty bits) ascending by index. Values are absolute, so
/// a delta patches verbatim into any later boundary it survives to.
using MemDelta = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
using OutDelta = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/// Deltas larger than this many memory words are not transported.
inline constexpr std::size_t kMaxDeltaWords = 4096;

/// The data-only difference between machine `vm` and snapshot `s` (the
/// caller has established control equality). Memory is compared only on
/// the pages set in `pages` (bitmap as SectionInfo::written); an empty span
/// compares every page. Returns false when the difference is no delta:
/// output count or type mismatch, an image size that is not a whole number
/// of words, or more than `max_words` differing words. `mem` and `out` are
/// cleared first.
[[nodiscard]] bool data_delta(const vm::Vm& vm, const vm::Vm::Snapshot& s,
                              std::span<const std::uint64_t> pages,
                              std::size_t max_words, MemDelta& mem,
                              OutDelta& out);

/// True when `mem` / `out` can stand at a boundary whose state is `s`: every
/// word 8-aligned, inside the image and strictly ascending; every output
/// index below the boundary's output count and strictly ascending. A delta
/// served from a store is only ever used after this check.
[[nodiscard]] bool valid_delta(const vm::Vm::Snapshot& s, const MemDelta& mem,
                               const OutDelta& out);

/// Write a valid delta into `s` (copy-on-write: only the pages it touches
/// are copied). Returns false, leaving `s` untouched, when the delta is not
/// valid_delta for `s`.
[[nodiscard]] bool patch_snapshot(vm::Vm::Snapshot& s, const MemDelta& mem,
                                  const OutDelta& out);

/// Verdict of the transport rule for one delta.
struct Closure {
  enum class Kind : std::uint8_t {
    /// A downstream section reads the delta or communicates: execution
    /// must resume at boundary `consumed_at`, with `mem` transported there.
    Open,
    /// The delta was fully overwritten: the remainder replays the golden
    /// run (VerificationSuccess).
    Converged,
    /// The delta survives to the end unread: `outcome` classifies the
    /// golden outputs patched by the output delta.
    Dead,
    /// The delta does not fit the ladder (valid_delta failed, or an output
    /// index past the golden outputs): resolve by execution.
    Invalid,
  };
  Kind kind = Kind::Open;
  Outcome outcome = Outcome::VerificationSuccess;
  std::uint32_t consumed_at = 0;
  /// Sections the delta was transported through with zero execution.
  std::uint64_t sections_crossed = 0;
};

/// Rule 2: transport the delta standing at boundary `boundary` through the
/// downstream sections. `mem` is updated in place (killed words dropped) to
/// the delta as it stands at the boundary the walk stopped at. `golden` and
/// `verify` are the campaign's fault-free outputs and verifier.
[[nodiscard]] Closure close_delta(const SectionLadder& ladder,
                                  std::uint32_t boundary, MemDelta& mem,
                                  const OutDelta& out,
                                  const std::vector<vm::OutputValue>& golden,
                                  const Verifier& verify);

/// The page bitmap a probe at boundary `to` compares, for a machine that
/// equaled the golden run at some point of section `from` and has written
/// the pages in `dirty` since: those pages plus the pages the golden run
/// writes in sections [from, to). Left empty (compare every page) when
/// `dirty` is not a bitmap over the ladder's image.
void probe_pages(const SectionLadder& ladder,
                 std::span<const std::uint64_t> dirty, std::uint32_t from,
                 std::uint32_t to, std::vector<std::uint64_t>& out);

/// Verdict of one probe of a running machine at a ladder boundary.
struct Probe {
  enum class Kind : std::uint8_t {
    Open,       // neither rule applies: keep executing
    Converged,  // rule 1: bit-equal to golden
    DeadDelta,  // rule 2: closed by the transport rule
  };
  Kind kind = Kind::Open;
  Outcome outcome = Outcome::VerificationSuccess;
};

/// Both rules at ladder boundary `boundary` for machine `vm`, which stands
/// exactly there with its fault fired. `pages` is a page bitmap covering
/// every page where vm's memory may differ from the golden boundary state
/// (the rest are equal by construction); empty = compare every page.
/// `scratch_mem` / `scratch_out` are caller-owned buffers reused across
/// probes.
[[nodiscard]] Probe probe_boundary(const vm::Vm& vm,
                                   const SectionLadder& ladder,
                                   std::uint32_t boundary,
                                   std::span<const std::uint64_t> pages,
                                   const std::vector<vm::OutputValue>& golden,
                                   const Verifier& verify,
                                   MemDelta& scratch_mem,
                                   OutDelta& scratch_out);

}  // namespace ft::fault
