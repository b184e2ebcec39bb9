/// @file
/// Edit-proportional golden traces: lineage roots and derived traces.
///
/// An edit to a module rarely changes its shape: a constant tweak leaves
/// every function, block, instruction count, global and region where it
/// was. Two such modules run identically until the first time either
/// executes an instruction whose content differs, so the edited module's
/// golden trace equals its parent's up to that row. The store exploits
/// this with two artifacts:
///
///   * the **lineage root** (`blobs/<lineage key>.lineage`): keyed by
///     store::lineage_key (the module minus instruction contents, plus the
///     execution options), it names the first full trace segment published
///     under that key and holds one store::instruction_digests entry per pc
///     of that module, plus a content hash per kLineageChunkRows-row chunk
///     of the segment. The first publisher wins (link(2) create), and
///     only a full traced run publishes one, so a root is always a plain
///     trace segment. A record that could not serve (rejected, or its
///     segment missing or damaged) is replaced by the full traced run
///     that follows, so a damaged root costs one full trace, not the
///     lineage;
///   * the **derived trace** (`traces/<key>.ftderived`, DerivedTraceHeader
///     in store/format.h): an edited module's trace stored as "the root
///     segment's rows [0, R)" plus its own suffix columns. It never becomes
///     a root, so a derived trace is always one hop from a full segment;
///   * the **ladder facts** (`blobs/<trace key>.facts`, fault::LadderFacts):
///     a full trace's region instances and per-section ladder facts
///     (fault::SectionInfo, no snapshots), with its section cap, row count
///     and program hash. A session holding a full trace publishes them when
///     it builds its ladder. A session that spliced onto root K at row R
///     loads K's facts and keeps the instances that close before R
///     (segmentation resumes at the earliest instance still open there) and
///     the facts of every section whose span equals a root section's and
///     ends at or before R; every other section is scanned. The golden pass
///     that snapshots the boundaries always runs.
///
/// A session that misses its trace finds the changed pcs by comparing
/// digests, reads the root's rows up to the first one executing a changed
/// pc (read_root_prefix: one pass over the pc column, the chunks it spans
/// verified against the record), runs the edited program untraced to that
/// retired count, checks it stands at the row's pc, and traces only the
/// rest (core/analysis.cpp, AnalysisSession::fill_trace_locked).
///
/// Soundness, stated once: lineage keys equal and per-pc digests equal is
/// exactly store::hash_module equality — the key covers every field
/// hash_module hashes except instruction contents, and the digests cover
/// those contents in the same pc order. So two modules of one lineage
/// whose digests agree on a set of pcs execute those pcs identically:
/// same layout, same decoded operands and branch targets, same options.
/// The VM is deterministic, so by induction over retired instructions the
/// edited run's machine state and trace records equal the root's for as
/// long as only unchanged pcs execute — up to row R, the first row whose
/// pc is changed. Everything from R on is re-executed, never copied. The
/// prefix bytes themselves are checked against the record's chunk
/// hashes, so a damaged root is a counted miss, never spliced data.
/// The ladder facts follow from the same argument: rows before R, and the
/// decoded instructions their pcs name, equal the root's; a section's
/// facts are a function of its own rows and of those instructions; and an
/// instance that closes before R is a function of rows before R. So a
/// section inside [0, R) with the root section's exact span has the root
/// section's facts, and a closed instance is the root's. Section cuts are
/// thinned by index over all instances, so a section is matched by its
/// span, never by its position.
///
/// Every anomaly — a missing, truncated, corrupt or mismatched root
/// segment, lineage record, derived file or facts blob (another program,
/// row count or section cap) — is a counted miss, and the session falls
/// back to the full computation: a full traced run, or a full scan of the
/// spliced trace. A store without lineage records behaves exactly as
/// before they existed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/column.h"

namespace ft::store {

/// Rows per content-check chunk of a root segment. A prefix read verifies
/// only the chunks it spans, so late edits never hash the whole root.
inline constexpr std::uint64_t kLineageChunkRows = std::uint64_t{1} << 16;

[[nodiscard]] constexpr std::uint64_t lineage_chunks(
    std::uint64_t rows) noexcept {
  return (rows + kLineageChunkRows - 1) / kLineageChunkRows;
}

/// A root trace segment as its readers expect to find it: its store key
/// and the header fields checked before any of its columns are used.
struct RootSegment {
  std::uint64_t trace_key = 0;
  std::uint64_t program_hash = 0;  // hash_module of the root module
  std::uint64_t rows = 0;
  std::uint64_t ops = 0;
  std::uint64_t extras = 0;
};

/// The lineage record.
struct LineageRoot {
  RootSegment segment;
  /// store::instruction_digests of the root module, one per pc.
  std::vector<std::uint64_t> digests;
  /// trace_chunk_hashes of the root segment.
  std::vector<std::uint64_t> chunk_hashes;
};

/// Content hash of every kLineageChunkRows-row chunk of `cols`: each
/// covers the chunk's rows of every row column, the operand-pool entries
/// and the escapes of those rows.
[[nodiscard]] std::vector<std::uint64_t> trace_chunk_hashes(
    const trace::ColumnTrace::RawColumns& cols);

/// Where a root prefix read stopped.
struct RootPrefix {
  std::uint64_t rows = 0;      // R: rows copied
  std::uint32_t next_pc = 0;   // pc of root row R (when R < segment.rows)
};

/// Read into the empty owned trace `out` the rows of the root segment at
/// `path` before the first row executing a pc flagged in `changed`
/// (indexed by pc; empty flags none), and at most `limit` rows. The header
/// must match `seg`, every chunk spanning the copied rows must match
/// `chunk_hashes`, and the copy goes into `out`'s own buffers (no mapping
/// outlives the call). nullopt with `error` on any anomaly; `out` is then
/// unspecified.
[[nodiscard]] std::optional<RootPrefix> read_root_prefix(
    const std::string& path, const RootSegment& seg,
    std::span<const std::uint64_t> chunk_hashes,
    std::span<const std::uint8_t> changed, std::uint64_t limit,
    trace::ColumnTrace& out, std::uint64_t* bytes_read, std::string* error);

/// Write `t`, whose rows [0, prefix_rows) equal the root's, as a derived
/// trace file at `path` (overwriting; callers commit via tmp + rename).
bool save_derived_trace_file(const std::string& path, const LineageRoot& root,
                             std::uint64_t prefix_rows,
                             const trace::ColumnTrace& t,
                             std::uint64_t program_hash,
                             std::uint64_t* bytes_written = nullptr,
                             std::string* error = nullptr);

/// A derived trace loaded into one owned ColumnTrace (root prefix copied,
/// suffix appended). `trace == nullptr` means rejected; `found` tells an
/// absent file from a rejected one.
struct LoadedDerived {
  std::shared_ptr<const trace::ColumnTrace> trace;
  bool found = false;
  std::uint64_t bytes_read = 0;
  std::string error;
};

/// Load the derived trace at `path`; `root_path` maps a root trace key to
/// its segment's path.
[[nodiscard]] LoadedDerived load_derived_trace_file(
    const std::string& path,
    const std::function<std::string(std::uint64_t)>& root_path,
    std::shared_ptr<const vm::DecodedProgram> program,
    std::uint64_t program_hash);

}  // namespace ft::store
