#include "store/lineage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "store/format.h"
#include "store/trace_io.h"
#include "util/hash.h"

namespace ft::store {

namespace {

using Raw = trace::ColumnTrace::RawColumns;
using Extra = trace::ColumnTrace::Extra;

bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// Owns one read-only file descriptor.
class Fd {
 public:
  explicit Fd(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t size() const {
    struct stat st{};
    return ::fstat(fd_, &st) == 0 && st.st_size > 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
  }
  /// Read exactly `n` bytes at `offset` into `dst`.
  bool read(void* dst, std::uint64_t n, std::uint64_t offset) const {
    auto* p = static_cast<char*>(dst);
    while (n > 0) {
      const ssize_t got = ::pread(fd_, p, n, static_cast<off_t>(offset));
      if (got <= 0) return false;
      p += got;
      n -= static_cast<std::uint64_t>(got);
      offset += static_cast<std::uint64_t>(got);
    }
    return true;
  }

 private:
  int fd_;
};

/// First escape of `cols` whose row is >= `row` (escapes are row-sorted).
std::uint64_t extras_before(const Raw& cols, std::uint64_t row) {
  const Extra* const end = cols.extras + cols.num_extras;
  return static_cast<std::uint64_t>(
      std::lower_bound(cols.extras, end, row,
                       [](const Extra& x, std::uint64_t r) { return x.row < r; }) -
      cols.extras);
}

/// Operand-pool entries recorded before row `row` of `cols`.
std::uint64_t ops_before(const Raw& cols, std::uint64_t row) {
  return row < cols.rows ? cols.ops_offset[row] : cols.ops;
}

/// Content hash of rows [a, b) of `cols`: those rows of every row column,
/// the operand-pool entries and the escapes they own.
std::uint64_t rows_hash(const Raw& cols, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t oa = ops_before(cols, a);
  const std::uint64_t ob = ops_before(cols, b);
  const std::uint64_t ea = extras_before(cols, a);
  const std::uint64_t eb = extras_before(cols, b);
  const std::uint64_t n = b - a;
  util::Hash64 h("ft.trace.rows.v1");
  h.u64(a).u64(b);
  h.u64(util::hash_words(cols.pc + a, 4 * n));
  h.u64(util::hash_words(cols.activation + a, 4 * n));
  h.u64(util::hash_words(cols.ops_offset + a, 4 * n));
  h.u64(util::hash_words(cols.result_bits + a, 8 * n));
  h.u64(util::hash_words(cols.op_bits + oa, 8 * (ob - oa)));
  h.u64(util::hash_words(cols.extras + ea, sizeof(Extra) * (eb - ea)));
  return h.digest();
}

std::uint64_t derived_header_hash(const DerivedTraceHeader& h) {
  return util::hash_bytes(&h, offsetof(DerivedTraceHeader, header_hash));
}

/// Hash over a derived file's body: the prefix chunk hashes, then the
/// suffix rows [prefix_rows, rows) of `cols`.
std::uint64_t derived_body_hash(std::span<const std::uint64_t> chunk_hashes,
                                const Raw& cols, std::uint64_t prefix_rows) {
  return util::Hash64("ft.trace.derived.v1")
      .u64(util::hash_words(chunk_hashes.data(), 8 * chunk_hashes.size()))
      .u64(rows_hash(cols, prefix_rows, cols.rows))
      .digest();
}

}  // namespace

// ---------------------------------------------------------------------------
// Root segments
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> trace_chunk_hashes(const Raw& cols) {
  std::vector<std::uint64_t> out;
  out.reserve(lineage_chunks(cols.rows));
  for (std::uint64_t a = 0; a < cols.rows; a += kLineageChunkRows) {
    out.push_back(
        rows_hash(cols, a, std::min(cols.rows, a + kLineageChunkRows)));
  }
  return out;
}

std::optional<RootPrefix> read_root_prefix(
    const std::string& path, const RootSegment& seg,
    std::span<const std::uint64_t> chunk_hashes,
    std::span<const std::uint8_t> changed, std::uint64_t limit,
    trace::ColumnTrace& out, std::uint64_t* bytes_read, std::string* error) {
  const auto fail = [&](std::string why) -> std::optional<RootPrefix> {
    set_error(error, std::move(why) + ": " + path);
    return std::nullopt;
  };
  std::uint64_t read_total = 0;
  const Fd fd(path);
  if (!fd.ok()) return fail("open failed");
  TraceFileHeader h;
  if (!fd.read(&h, sizeof(h), 0)) return fail("truncated header");
  read_total += sizeof(h);
  if (h.magic != kTraceMagic || h.endian != kEndianMark ||
      h.version != kTraceVersion ||
      h.header_hash !=
          util::hash_bytes(&h, offsetof(TraceFileHeader, header_hash))) {
    return fail("bad root header");
  }
  if (h.program_hash != seg.program_hash || h.rows != seg.rows ||
      h.ops != seg.ops || h.extras != seg.extras) {
    return fail("root segment does not match its lineage record");
  }
  const auto layout = trace_layout(h.rows, h.ops, h.extras);
  if (h.file_bytes != layout.file_bytes || fd.size() != layout.file_bytes) {
    return fail("root size mismatch (truncated or torn)");
  }

  // 1. R: the first row executing a changed pc — one pass over the pc
  //    column, a chunk at a time, stopping at the hit.
  std::uint64_t rows = std::min(limit, seg.rows);
  if (!changed.empty()) {
    std::vector<std::uint32_t> pcs(
        static_cast<std::size_t>(std::min(kLineageChunkRows, rows)));
    for (std::uint64_t a = 0; a < rows; a += kLineageChunkRows) {
      const std::uint64_t n = std::min(kLineageChunkRows, rows - a);
      if (!fd.read(pcs.data(), 4 * n, layout.pc + 4 * a)) {
        return fail("short read of the pc column");
      }
      read_total += 4 * n;
      const auto hit = std::find_if(
          pcs.begin(), pcs.begin() + static_cast<std::ptrdiff_t>(n),
          [&](std::uint32_t pc) { return pc >= changed.size() || changed[pc]; });
      if (hit != pcs.begin() + static_cast<std::ptrdiff_t>(n)) {
        rows = a + static_cast<std::uint64_t>(hit - pcs.begin());
        break;
      }
    }
  }

  // 2. Copy the chunks spanning rows [0, R) into the trace's own buffers.
  const std::uint64_t nchunks = lineage_chunks(rows);
  if (chunk_hashes.size() < nchunks) return fail("too few chunk hashes");
  const std::uint64_t span =
      std::min(seg.rows, nchunks * kLineageChunkRows);
  std::uint32_t span_ops = static_cast<std::uint32_t>(seg.ops);
  if (span < seg.rows &&
      !fd.read(&span_ops, 4, layout.ops_offset + 4 * span)) {
    return fail("short read of the offset column");
  }
  if (span_ops > seg.ops) return fail("operand offset out of range");
  std::vector<Extra> extras(static_cast<std::size_t>(seg.extras));
  if (!fd.read(extras.data(), sizeof(Extra) * seg.extras, layout.extras)) {
    return fail("short read of the escape list");
  }
  const auto span_extras = static_cast<std::uint64_t>(
      std::lower_bound(extras.begin(), extras.end(), span,
                       [](const Extra& x, std::uint64_t r) { return x.row < r; }) -
      extras.begin());
  const auto tail = out.extend(span, span_ops, span_extras);
  if (!fd.read(tail.pc, 4 * span, layout.pc) ||
      !fd.read(tail.activation, 4 * span, layout.activation) ||
      !fd.read(tail.ops_offset, 4 * span, layout.ops_offset) ||
      !fd.read(tail.result_bits, 8 * span, layout.result_bits) ||
      !fd.read(tail.op_bits, 8 * std::uint64_t{span_ops}, layout.op_bits)) {
    return fail("short read of the root columns");
  }
  std::copy_n(extras.begin(), span_extras, tail.extras);
  read_total += 20 * span + 8 * std::uint64_t{span_ops} +
                sizeof(Extra) * seg.extras + (span < seg.rows ? 4 : 0);

  // 3. Every chunk copied must be the one the record hashed. The chunk's
  //    pool range is bounds-checked first: hashing reads through it.
  const Raw cols = out.raw();
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    const std::uint64_t a = c * kLineageChunkRows;
    const std::uint64_t b = std::min(span, a + kLineageChunkRows);
    const std::uint64_t ob = ops_before(cols, b);
    if (ops_before(cols, a) > ob || ob > cols.ops ||
        rows_hash(cols, a, b) != chunk_hashes[c]) {
      return fail("root chunk " + std::to_string(c) + " content mismatch");
    }
  }

  RootPrefix prefix;
  prefix.rows = rows;
  if (rows < span) {
    prefix.next_pc = cols.pc[rows];
  } else if (rows < seg.rows) {
    // R sits on a chunk boundary: its pc is outside the copied chunks. The
    // caller cross-checks it against the edited machine's next pc.
    if (!fd.read(&prefix.next_pc, 4, layout.pc + 4 * rows)) {
      return fail("short read of the pc column");
    }
    read_total += 4;
  }
  out.truncate_to(rows);
  if (bytes_read) *bytes_read += read_total;
  return prefix;
}

// ---------------------------------------------------------------------------
// Derived trace files
// ---------------------------------------------------------------------------

bool save_derived_trace_file(const std::string& path, const LineageRoot& root,
                             std::uint64_t prefix_rows,
                             const trace::ColumnTrace& t,
                             std::uint64_t program_hash,
                             std::uint64_t* bytes_written, std::string* error) {
  const Raw cols = t.raw();
  if (prefix_rows > cols.rows || prefix_rows > root.segment.rows) {
    return set_error(error, "prefix longer than the trace: " + path);
  }
  const std::uint64_t first_op = ops_before(cols, prefix_rows);
  const std::uint64_t first_extra = extras_before(cols, prefix_rows);
  const std::uint64_t nchunks = lineage_chunks(prefix_rows);
  const std::span<const std::uint64_t> chunks(root.chunk_hashes.data(),
                                              nchunks);

  DerivedTraceHeader h;
  h.program_hash = program_hash;
  h.root_key = root.segment.trace_key;
  h.root_program_hash = root.segment.program_hash;
  h.root_rows = root.segment.rows;
  h.root_ops = root.segment.ops;
  h.root_extras = root.segment.extras;
  h.prefix_rows = prefix_rows;
  h.prefix_ops = first_op;
  h.prefix_extras = first_extra;
  h.rows = cols.rows - prefix_rows;
  h.ops = cols.ops - first_op;
  h.extras = cols.num_extras - first_extra;
  h.prefix_chunks = nchunks;
  h.body_hash = derived_body_hash(chunks, cols, prefix_rows);
  const auto layout =
      trace_layout(h.rows, h.ops, h.extras, sizeof(h) + 8 * nchunks);
  h.file_bytes = layout.file_bytes;
  h.header_hash = derived_header_hash(h);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return set_error(error, "open failed: " + path);
  bool ok = true;
  std::uint64_t written = 0;
  const auto put = [&](std::uint64_t at, const void* data, std::uint64_t n) {
    if (!ok || n == 0) return;
    static constexpr char kPad[8] = {};
    if (written < at) {
      ok = std::fwrite(kPad, 1, at - written, f) == at - written;
      written = at;
    }
    ok = ok && std::fwrite(data, 1, n, f) == n;
    written += n;
  };
  const std::uint64_t r = prefix_rows;
  put(0, &h, sizeof(h));
  put(sizeof(h), chunks.data(), 8 * nchunks);
  put(layout.pc, cols.pc + r, 4 * h.rows);
  put(layout.activation, cols.activation + r, 4 * h.rows);
  put(layout.ops_offset, cols.ops_offset + r, 4 * h.rows);
  put(layout.result_bits, cols.result_bits + r, 8 * h.rows);
  put(layout.op_bits, cols.op_bits + first_op, 8 * h.ops);
  put(layout.extras, cols.extras + first_extra, sizeof(Extra) * h.extras);
  ok = std::fclose(f) == 0 && ok && written == layout.file_bytes;
  if (!ok) {
    std::remove(path.c_str());
    return set_error(error, "short write: " + path);
  }
  if (bytes_written) *bytes_written += layout.file_bytes;
  return true;
}

LoadedDerived load_derived_trace_file(
    const std::string& path,
    const std::function<std::string(std::uint64_t)>& root_path,
    std::shared_ptr<const vm::DecodedProgram> program,
    std::uint64_t program_hash) {
  LoadedDerived out;
  const auto reject = [&](std::string why) {
    out.trace.reset();
    out.error = std::move(why) + ": " + path;
    return std::move(out);
  };
  const Fd fd(path);
  if (!fd.ok()) return reject("open failed");
  out.found = true;
  DerivedTraceHeader h;
  if (!fd.read(&h, sizeof(h), 0)) return reject("truncated header");
  if (h.magic != kDerivedMagic || h.endian != kEndianMark ||
      h.version != kDerivedVersion || h.header_hash != derived_header_hash(h)) {
    return reject("bad derived-trace header");
  }
  if (h.program_hash != program_hash) return reject("program hash mismatch");
  if (h.prefix_rows > h.root_rows ||
      h.prefix_chunks != lineage_chunks(h.prefix_rows)) {
    return reject("inconsistent prefix");
  }
  const auto layout =
      trace_layout(h.rows, h.ops, h.extras, sizeof(h) + 8 * h.prefix_chunks);
  if (h.file_bytes != layout.file_bytes || fd.size() != layout.file_bytes) {
    return reject("size mismatch (truncated or torn)");
  }
  std::vector<std::uint64_t> chunks(static_cast<std::size_t>(h.prefix_chunks));
  if (!fd.read(chunks.data(), 8 * h.prefix_chunks, sizeof(h))) {
    return reject("short read of the chunk hashes");
  }
  out.bytes_read = sizeof(h) + 8 * h.prefix_chunks;

  // The root prefix, verified chunk by chunk against the hashes the
  // derivation recorded.
  trace::ColumnTrace t(program);
  t.reserve(h.prefix_rows + h.rows);
  RootSegment seg;
  seg.trace_key = h.root_key;
  seg.program_hash = h.root_program_hash;
  seg.rows = h.root_rows;
  seg.ops = h.root_ops;
  seg.extras = h.root_extras;
  std::string why;
  const auto prefix = read_root_prefix(root_path(h.root_key), seg, chunks, {},
                                       h.prefix_rows, t, &out.bytes_read, &why);
  if (!prefix) return reject(std::move(why));
  Raw cols = t.raw();
  if (prefix->rows != h.prefix_rows || cols.ops != h.prefix_ops ||
      cols.num_extras != h.prefix_extras) {
    return reject("root prefix does not match the derivation");
  }

  // The suffix, appended in place: its offsets and escape rows already
  // count from the start of the whole trace.
  const auto tail = t.extend(h.rows, h.ops, h.extras);
  if (!fd.read(tail.pc, 4 * h.rows, layout.pc) ||
      !fd.read(tail.activation, 4 * h.rows, layout.activation) ||
      !fd.read(tail.ops_offset, 4 * h.rows, layout.ops_offset) ||
      !fd.read(tail.result_bits, 8 * h.rows, layout.result_bits) ||
      !fd.read(tail.op_bits, 8 * h.ops, layout.op_bits) ||
      !fd.read(tail.extras, sizeof(Extra) * h.extras, layout.extras)) {
    return reject("short read of the suffix columns");
  }
  out.bytes_read += layout.file_bytes - layout.pc;
  // Structure first: the body hash reads the pool through the offsets.
  cols = t.raw();
  if (auto bad = check_columns(cols, program->code_size()); !bad.empty()) {
    return reject(std::move(bad));
  }
  if (derived_body_hash(chunks, cols, h.prefix_rows) != h.body_hash) {
    return reject("suffix content mismatch");
  }
  out.trace = std::make_shared<const trace::ColumnTrace>(std::move(t));
  out.error.clear();
  return out;
}

}  // namespace ft::store
