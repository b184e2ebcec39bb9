/// @file
/// On-disk format of the persistent artifact store (spec: docs/architecture.md).
///
/// Three file kinds share the conventions below:
///
///   * trace segment files (`traces/<key>.fttrace`) — a 64-byte header
///     followed by the ColumnTrace structure-of-arrays columns, written
///     verbatim so a loader can mmap the file and adopt the column arrays
///     zero-copy (trace::ColumnTrace::adopt);
///   * derived trace files (`traces/<key>.ftderived`) — a 144-byte header
///     naming a lineage root's segment and the prefix of it the trace
///     shares, then only the trace's own suffix columns (store/lineage.h);
///   * result blobs (`blobs/<key>.<kind>`) — a 40-byte header followed by a
///     little-endian field stream (store/serial.h) holding a serialized
///     golden run, site enumeration, campaign outcome counts, section
///     summary, lineage record or ladder facts.
///
/// Shared rules:
///   * every file is little-endian and says so (`kEndianMark`, written
///     natively: a foreign-endian file fails the mark and is a miss);
///   * every header carries a magic, a version and an FNV-1a self-hash;
///     payloads carry their own content hash — any mismatch, short file or
///     unknown version is treated as a MISS, never an error and never data;
///   * versioning: bump the version when the layout changes in any way and
///     keep readers rejecting versions they do not know (old entries are
///     recomputed and republished — the store is a cache, not a database);
///   * writers commit atomically: write to `tmp/`, then rename(2) into
///     place, so a crashed or concurrent writer can leave only invisible
///     garbage in tmp/, never a torn visible entry. A lineage record is
///     the one write-once entry: it commits with link(2), which fails when
///     the name exists, so the first publisher of a lineage wins.
#pragma once

#include <cstdint>

namespace ft::store {

/// "FTCTRC01" / "FTBLOB01" / "FTDTRC01" read as little-endian u64s.
inline constexpr std::uint64_t kTraceMagic = 0x3130435254435446ull;
inline constexpr std::uint64_t kBlobMagic = 0x3130424F4C425446ull;
inline constexpr std::uint64_t kDerivedMagic = 0x3130435254445446ull;
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint32_t kDerivedVersion = 1;
/// v2: campaign blobs grew the detected_recovered / detected_unrecoverable
/// outcome counts (hardening + checkpoint/rollback recovery). Old-version
/// blobs are a counted miss — never reinterpreted under the new layout.
inline constexpr std::uint32_t kBlobVersion = 2;
/// Byte-order mark: written as a native u32, so a big-endian writer
/// produces 0x04030201 on disk and the (little-endian) reader rejects it.
inline constexpr std::uint32_t kEndianMark = 0x01020304u;

/// Kinds of result blob (BlobHeader::kind).
enum class BlobKind : std::uint32_t {
  GoldenRun = 1,   // serialized vm::RunResult of the fault-free run
  Sites = 2,       // serialized fault::SiteEnumerationResult
  Campaign = 3,    // serialized fault::CampaignResult outcome counts
  Summary = 4,     // serialized compose::SectionSummary (per-section sites)
  Lineage = 5,     // serialized store::LineageRoot (store/lineage.h)
  Facts = 6,       // serialized fault::LadderFacts of a full trace segment
};

/// Header of a trace segment file. 64 bytes, no padding; `header_hash` is
/// FNV-1a over the 56 bytes preceding it.
struct TraceFileHeader {
  std::uint64_t magic = kTraceMagic;
  std::uint32_t version = kTraceVersion;
  std::uint32_t endian = kEndianMark;
  /// Content hash of (laid-out module, execution options) the trace was
  /// produced from; the loader refuses to adopt a trace for a different
  /// program (wrong pc space — would serve garbage).
  std::uint64_t program_hash = 0;
  std::uint64_t rows = 0;    // records
  std::uint64_t ops = 0;     // packed operand-bits pool entries
  std::uint64_t extras = 0;  // escape-list entries
  std::uint64_t file_bytes = 0;  // expected total size (truncation check)
  std::uint64_t header_hash = 0;
};
static_assert(sizeof(TraceFileHeader) == 64);

/// Header of a derived trace file (`traces/<key>.ftderived`, store/lineage.h):
/// an edited module's golden trace stored as a reference to the first
/// `prefix_rows` rows of its lineage root's trace segment plus its own
/// suffix columns. 144 bytes, no padding; `header_hash` is FNV-1a over the
/// 136 bytes preceding it. The header is followed by `prefix_chunks` u64
/// content hashes of the root chunks the prefix spans, then the suffix
/// columns laid out by `trace_layout(rows, ops, extras, base)` with `base`
/// the offset right after those hashes.
/// Suffix `ops_offset` and escape rows keep their values in the whole
/// trace, so appended after the prefix they need no rebasing.
struct DerivedTraceHeader {
  std::uint64_t magic = kDerivedMagic;
  std::uint32_t version = kDerivedVersion;
  std::uint32_t endian = kEndianMark;
  std::uint64_t program_hash = 0;  // module the whole trace belongs to
  /// The root segment the prefix comes from (`traces/<root_key>.fttrace`)
  /// and its header counts, checked before a byte of it is used.
  std::uint64_t root_key = 0;
  std::uint64_t root_program_hash = 0;
  std::uint64_t root_rows = 0;
  std::uint64_t root_ops = 0;
  std::uint64_t root_extras = 0;
  std::uint64_t prefix_rows = 0;
  std::uint64_t prefix_ops = 0;
  std::uint64_t prefix_extras = 0;
  std::uint64_t rows = 0;    // suffix records
  std::uint64_t ops = 0;     // suffix operand-pool entries
  std::uint64_t extras = 0;  // suffix escape entries
  std::uint64_t prefix_chunks = 0;
  /// util::hash_words digest over the chunk hashes and the suffix columns.
  std::uint64_t body_hash = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t header_hash = 0;
};
static_assert(sizeof(DerivedTraceHeader) == 144);

/// Header of a result blob. 40 bytes, no padding; `payload_hash` is FNV-1a
/// over the `payload_bytes` bytes that follow the header.
struct BlobHeader {
  std::uint64_t magic = kBlobMagic;
  std::uint32_t version = kBlobVersion;
  std::uint32_t kind = 0;  // BlobKind
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_hash = 0;
  std::uint32_t endian = kEndianMark;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(BlobHeader) == 40);

/// Byte offsets of the trace columns within a segment file. Column arrays
/// start 8-byte aligned (u64 columns must be naturally aligned in the map);
/// both writer and loader derive the layout from the same counts, so no
/// offsets are stored.
struct TraceLayout {
  std::uint64_t pc = 0;
  std::uint64_t activation = 0;
  std::uint64_t ops_offset = 0;
  std::uint64_t result_bits = 0;
  std::uint64_t op_bits = 0;
  std::uint64_t extras = 0;
  std::uint64_t file_bytes = 0;
};

[[nodiscard]] constexpr std::uint64_t align8(std::uint64_t v) noexcept {
  return (v + 7) & ~std::uint64_t{7};
}

/// `base` is where the columns start: right after the header in a trace
/// segment, after the header and chunk hashes in a derived trace file.
[[nodiscard]] constexpr TraceLayout trace_layout(
    std::uint64_t rows, std::uint64_t ops, std::uint64_t extras,
    std::uint64_t base = sizeof(TraceFileHeader)) noexcept {
  TraceLayout l;
  l.pc = align8(base);
  l.activation = align8(l.pc + 4 * rows);
  l.ops_offset = align8(l.activation + 4 * rows);
  l.result_bits = align8(l.ops_offset + 4 * rows);
  l.op_bits = l.result_bits + 8 * rows;
  l.extras = l.op_bits + 8 * ops;
  l.file_bytes = l.extras + 24 * extras;
  return l;
}

}  // namespace ft::store
