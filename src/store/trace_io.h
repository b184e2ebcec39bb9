/// @file
/// On-disk ColumnTrace segments: write-once serialization + zero-copy
/// mmap loading.
///
/// A golden columnar trace is fully determined by (program, options), so it
/// is produced once and shared: save_trace_file() writes the trace's
/// structure-of-arrays columns verbatim behind a versioned header
/// (store/format.h), and load_trace_file() maps the file read-only and
/// adopts the column arrays in place (trace::ColumnTrace::adopt) — no
/// parse, no copy, no allocation proportional to the trace. Every reader of
/// the in-memory form (trace::TraceView, the columnar scans, site
/// enumeration, DDDGs, diffs) runs unchanged over the mapped segments,
/// which is what lets a campaign chunk in another process mmap the same
/// golden trace instead of re-tracing (docs/architecture.md, store layer).
///
/// Loading is defensive: bad magic/version/endianness, a short or oversized
/// file, a header or program-hash mismatch, and any internally inconsistent
/// column data (non-monotonic operand offsets, out-of-range pcs, unsorted
/// or invalid escape entries) reject the file with a diagnostic instead of
/// serving it. The artifact store treats every rejection as a cache miss.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace/column.h"

namespace ft::store {

/// Serialize `t` to `path` (overwriting). `program_hash` names the
/// (module, options) content the trace was recorded from and is verified
/// on load. Returns false (with `error`) on I/O failure. The write is NOT
/// atomic — callers that publish into a shared store must write to a
/// temporary name and rename, as store::ArtifactStore does.
bool save_trace_file(const std::string& path, const trace::ColumnTrace& t,
                     std::uint64_t program_hash, std::string* error = nullptr);

/// Structural check of `cols` against a program of `code_size` pcs: pcs in
/// range, operand offsets non-decreasing and inside the pool, escapes
/// sorted, in range and with valid slots. Empty when sound, else why not.
/// Columns that pass are safe to serve to every trace reader.
[[nodiscard]] std::string check_columns(
    const trace::ColumnTrace::RawColumns& cols, std::size_t code_size);

/// A zero-copy loaded trace: `trace` aliases a shared holder that owns the
/// mapping, so the mapping lives exactly as long as the last reference to
/// the trace. `trace == nullptr` means the file was rejected (missing,
/// torn, corrupt, wrong program/version) and `error` says why.
struct LoadedTrace {
  std::shared_ptr<const trace::ColumnTrace> trace;
  std::size_t mapped_bytes = 0;
  std::string error;
};

/// Map `path` read-only and adopt its columns as a ColumnTrace over
/// `program`. `program_hash` must match the header's (pass the same value
/// given to save_trace_file); the integrity sweep then validates the
/// columns against the program before a single record is served.
[[nodiscard]] LoadedTrace load_trace_file(
    const std::string& path,
    std::shared_ptr<const vm::DecodedProgram> program,
    std::uint64_t program_hash);

}  // namespace ft::store
