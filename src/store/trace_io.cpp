#include "store/trace_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>

#include "store/format.h"
#include "util/hash.h"
#include "vm/observer.h"

namespace ft::store {

namespace {

std::uint64_t header_self_hash(const TraceFileHeader& h) {
  // The header is padding-free by construction (static_assert'd), so its
  // leading bytes are deterministic on the (little-endian) platforms the
  // format targets; foreign endianness is rejected by the mark anyway.
  return util::hash_bytes(&h, offsetof(TraceFileHeader, header_hash));
}

bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// Owns one read-only mapping plus the ColumnTrace adopted over it.
struct MappedTraceHolder {
  void* base = nullptr;
  std::size_t len = 0;
  trace::ColumnTrace trace;

  ~MappedTraceHolder() {
    if (base) ::munmap(base, len);
  }
};

}  // namespace

std::string check_columns(const trace::ColumnTrace::RawColumns& cols,
                          std::size_t code_size) {
  std::uint32_t prev_off = 0;
  for (std::uint64_t i = 0; i < cols.rows; ++i) {
    if (cols.pc[i] >= code_size) {
      return "pc out of range at row " + std::to_string(i);
    }
    if (cols.ops_offset[i] < prev_off || cols.ops_offset[i] > cols.ops) {
      return "operand offsets not monotonic at row " + std::to_string(i);
    }
    prev_off = cols.ops_offset[i];
  }
  std::uint64_t prev_row = 0;
  for (std::uint64_t e = 0; e < cols.num_extras; ++e) {
    const auto& x = cols.extras[e];
    if (x.row >= cols.rows || x.row < prev_row) {
      return "escape list unsorted or out of range at entry " +
             std::to_string(e);
    }
    if (x.slot >= vm::kMaxTracedOps &&
        x.slot != trace::ColumnTrace::kResultSlot &&
        x.slot != trace::ColumnTrace::kLoadValueSlot) {
      return "invalid escape slot at entry " + std::to_string(e);
    }
    prev_row = x.row;
  }
  return {};
}

bool save_trace_file(const std::string& path, const trace::ColumnTrace& t,
                     std::uint64_t program_hash, std::string* error) {
  const auto cols = t.raw();
  const auto layout = trace_layout(cols.rows, cols.ops, cols.num_extras);

  TraceFileHeader h;
  h.program_hash = program_hash;
  h.rows = cols.rows;
  h.ops = cols.ops;
  h.extras = cols.num_extras;
  h.file_bytes = layout.file_bytes;
  h.header_hash = header_self_hash(h);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return set_error(error, "open failed: " + path);
  bool ok = true;
  std::uint64_t written = 0;
  const auto put = [&](std::uint64_t at, const void* data, std::size_t n) {
    if (!ok || n == 0) return;
    // Zero-fill alignment gaps so file bytes are deterministic.
    static constexpr char kPad[8] = {};
    if (written < at) {
      ok = ok && std::fwrite(kPad, 1, at - written, f) == at - written;
      written = at;
    }
    ok = ok && std::fwrite(data, 1, n, f) == n;
    written += n;
  };
  put(0, &h, sizeof(h));
  put(layout.pc, cols.pc, 4 * cols.rows);
  put(layout.activation, cols.activation, 4 * cols.rows);
  put(layout.ops_offset, cols.ops_offset, 4 * cols.rows);
  put(layout.result_bits, cols.result_bits, 8 * cols.rows);
  put(layout.op_bits, cols.op_bits, 8 * cols.ops);
  put(layout.extras, cols.extras, 24 * cols.num_extras);
  ok = std::fclose(f) == 0 && ok && written == layout.file_bytes;
  if (!ok) {
    std::remove(path.c_str());
    return set_error(error, "short write: " + path);
  }
  return true;
}

LoadedTrace load_trace_file(const std::string& path,
                            std::shared_ptr<const vm::DecodedProgram> program,
                            std::uint64_t program_hash) {
  LoadedTrace out;
  const auto reject = [&](std::string why) {
    out.trace.reset();
    out.error = std::move(why);
    return out;
  };

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return reject("open failed: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return reject("stat failed: " + path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < sizeof(TraceFileHeader)) {
    ::close(fd);
    return reject("truncated header: " + path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) return reject("mmap failed: " + path);

  auto holder = std::make_shared<MappedTraceHolder>();
  holder->base = base;
  holder->len = size;

  TraceFileHeader h;
  std::memcpy(&h, base, sizeof(h));
  if (h.magic != kTraceMagic) return reject("bad magic: " + path);
  if (h.endian != kEndianMark) return reject("foreign endianness: " + path);
  if (h.version != kTraceVersion) {
    return reject("unknown version " + std::to_string(h.version) + ": " + path);
  }
  if (h.header_hash != header_self_hash(h)) {
    return reject("header hash mismatch: " + path);
  }
  if (h.program_hash != program_hash) {
    return reject("program hash mismatch: " + path);
  }
  const auto layout = trace_layout(h.rows, h.ops, h.extras);
  if (h.file_bytes != layout.file_bytes || h.file_bytes != size) {
    return reject("size mismatch (truncated or torn): " + path);
  }

  const auto* bytes = static_cast<const unsigned char*>(base);
  trace::ColumnTrace::RawColumns cols;
  cols.pc = reinterpret_cast<const std::uint32_t*>(bytes + layout.pc);
  cols.activation =
      reinterpret_cast<const std::uint32_t*>(bytes + layout.activation);
  cols.ops_offset =
      reinterpret_cast<const std::uint32_t*>(bytes + layout.ops_offset);
  cols.result_bits =
      reinterpret_cast<const std::uint64_t*>(bytes + layout.result_bits);
  cols.op_bits = reinterpret_cast<const std::uint64_t*>(bytes + layout.op_bits);
  cols.extras = reinterpret_cast<const trace::ColumnTrace::Extra*>(
      bytes + layout.extras);
  cols.rows = h.rows;
  cols.ops = h.ops;
  cols.num_extras = h.extras;

  // Integrity sweep before a single record is served: a well-formed header
  // can still front internally inconsistent columns (bit rot, a foreign
  // file renamed into place). Everything a reader would index with is
  // range-checked once here, so readers stay check-free.
  if (auto why = check_columns(cols, program->code_size()); !why.empty()) {
    return reject(std::move(why));
  }

  holder->trace = trace::ColumnTrace::adopt(std::move(program), cols);
  out.trace = std::shared_ptr<const trace::ColumnTrace>(holder,
                                                        &holder->trace);
  out.mapped_bytes = size;
  out.error.clear();
  return out;
}

}  // namespace ft::store
