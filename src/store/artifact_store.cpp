#include "store/artifact_store.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "store/serial.h"
#include "store/trace_io.h"
#include "util/hash.h"

namespace ft::store {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

namespace {

void hash_operand(util::Hash64& h, const ir::Operand& o) {
  h.u32(static_cast<std::uint32_t>(o.kind));
  h.u32(static_cast<std::uint32_t>(o.type));
  h.u32(o.id);
  h.i64(o.imm_i);
  h.f64(o.imm_f);  // bit pattern, so -0.0 and NaN payloads are distinct
}

void hash_instruction(util::Hash64& h, const ir::Instruction& ins) {
  h.u32(static_cast<std::uint32_t>(ins.op));
  h.u32(static_cast<std::uint32_t>(ins.type));
  h.u32(static_cast<std::uint32_t>(ins.pred));
  h.u32(ins.result);
  h.i64(ins.aux);
  h.u64(ins.ops.size());
  for (const auto& o : ins.ops) hash_operand(h, o);
}

}  // namespace

std::uint64_t hash_module(const ir::Module& m) {
  // Semantic content only: two modules hashing equal execute identically.
  // Names and source lines are presentation metadata and excluded; global
  // addresses and the memory geometry are included because execution (and
  // input-site addresses) depend on the layout.
  util::Hash64 h("ft.module.v1");
  h.u64(m.num_functions());
  h.u32(m.entry());
  for (std::uint32_t f = 0; f < m.num_functions(); ++f) {
    const auto& fn = m.function(f);
    h.u32(static_cast<std::uint32_t>(fn.ret));
    h.u64(fn.params.size());
    for (const auto& p : fn.params) h.u32(static_cast<std::uint32_t>(p.type));
    h.u32(fn.num_regs);
    h.u64(fn.blocks.size());
    for (const auto& b : fn.blocks) {
      h.u64(b.instrs.size());
      for (const auto& ins : b.instrs) hash_instruction(h, ins);
    }
  }
  h.u64(m.num_globals());
  for (std::uint32_t g = 0; g < m.num_globals(); ++g) {
    const auto& gl = m.global(g);
    h.u32(static_cast<std::uint32_t>(gl.elem));
    h.u64(gl.count);
    h.u64(gl.addr);
    h.u64(gl.init_bits.size());
    for (const auto bits : gl.init_bits) h.u64(bits);
  }
  h.u64(m.num_regions());
  h.u64(m.stack_base());
  h.u64(m.memory_size());
  return h.digest();
}

std::uint64_t lineage_key(const ir::Module& m, std::uint64_t options_hash) {
  // hash_module's fields in hash_module's order, with every instruction's
  // content replaced by nothing: the per-block counts keep the shape (and
  // so every pc, branch target and function entry) fixed.
  util::Hash64 h("ft.key.lineage.v1");
  h.u64(m.num_functions());
  h.u32(m.entry());
  for (std::uint32_t f = 0; f < m.num_functions(); ++f) {
    const auto& fn = m.function(f);
    h.u32(static_cast<std::uint32_t>(fn.ret));
    h.u64(fn.params.size());
    for (const auto& p : fn.params) h.u32(static_cast<std::uint32_t>(p.type));
    h.u32(fn.num_regs);
    h.u64(fn.blocks.size());
    for (const auto& b : fn.blocks) h.u64(b.instrs.size());
  }
  h.u64(m.num_globals());
  for (std::uint32_t g = 0; g < m.num_globals(); ++g) {
    const auto& gl = m.global(g);
    h.u32(static_cast<std::uint32_t>(gl.elem));
    h.u64(gl.count);
    h.u64(gl.addr);
    h.u64(gl.init_bits.size());
    for (const auto bits : gl.init_bits) h.u64(bits);
  }
  h.u64(m.num_regions());
  h.u64(m.stack_base());
  h.u64(m.memory_size());
  h.u64(options_hash);
  return h.digest();
}

std::vector<std::uint64_t> instruction_digests(const ir::Module& m) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t f = 0; f < m.num_functions(); ++f) {
    for (const auto& b : m.function(f).blocks) {
      for (const auto& ins : b.instrs) {
        util::Hash64 h("ft.instr.v1");
        hash_instruction(h, ins);
        out.push_back(h.digest());
      }
    }
  }
  return out;
}

std::uint64_t hash_section(const ir::Module& m,
                           std::span<const InstrCoord> body) {
  // Per-instruction content hashing mirrors hash_module exactly;
  // module-level geometry (globals, regions, memory layout) is deliberately
  // absent — the summary key carries it through the boundary entry-state
  // hash, which covers the full memory image.
  util::Hash64 h("ft.section.v1");
  h.u64(body.size());
  for (const auto& c : body) {
    h.u32(c.func).u32(c.block).u32(c.instr);
    hash_instruction(h, m.function(c.func).blocks[c.block].instrs[c.instr]);
  }
  return h.digest();
}

std::uint64_t hash_options(const vm::VmOptions& base) {
  util::Hash64 h("ft.options.v1");
  h.u64(base.max_instructions);
  h.f64(base.rand_seed);
  h.u32(base.max_call_depth);
  return h.digest();
}

std::uint64_t golden_key(std::uint64_t module_hash, std::uint64_t options_hash) {
  util::Hash64 h("ft.key.golden.v1");
  h.u64(module_hash);
  h.u64(options_hash);
  return h.digest();
}

std::uint64_t trace_key(std::uint64_t module_hash, std::uint64_t options_hash) {
  util::Hash64 h("ft.key.trace.v1");
  h.u64(module_hash);
  h.u64(options_hash);
  return h.digest();
}

std::uint64_t sites_key(std::uint64_t module_hash, std::uint64_t options_hash,
                        std::uint32_t region_id, std::uint32_t instance) {
  util::Hash64 h("ft.key.sites.v1");
  h.u64(module_hash);
  h.u64(options_hash);
  h.u32(region_id);
  h.u32(instance);
  return h.digest();
}

std::uint64_t campaign_key(std::uint64_t module_hash,
                           std::uint64_t options_hash, std::uint32_t region_id,
                           std::uint32_t instance, fault::TargetClass target,
                           const fault::CampaignConfig& cfg) {
  util::Hash64 h("ft.key.campaign.v2");
  h.u64(module_hash);
  h.u64(options_hash);
  h.u32(region_id);
  h.u32(instance);
  h.u32(static_cast<std::uint32_t>(target));
  h.u64(cfg.trials);
  h.f64(cfg.confidence);
  h.f64(cfg.margin);
  h.u64(cfg.seed);
  h.f64(cfg.budget_factor);
  // RecoveryPolicy is semantic, not scheduling: it changes the outcome
  // taxonomy a campaign produces, so it keys the cache entry (ForkPolicy,
  // by contrast, stays excluded — forking never changes counts).
  h.u32(cfg.recovery.enabled ? 1 : 0);
  h.u64(cfg.recovery.checkpoint_interval);
  return h.digest();
}

std::uint64_t summary_key(std::uint64_t section_hash, std::uint64_t entry_hash,
                          std::uint64_t begin, std::uint64_t end,
                          std::uint64_t plans_hash, std::uint64_t options_hash,
                          const fault::CampaignConfig& cfg) {
  util::Hash64 h("ft.key.summary.v1");
  h.u64(section_hash);
  h.u64(entry_hash);
  h.u64(begin);
  h.u64(end);
  h.u64(plans_hash);
  h.u64(options_hash);
  // Same semantic campaign fields as campaign_key: they determine the plan
  // population and the outcome taxonomy the summaries feed.
  h.u64(cfg.trials);
  h.f64(cfg.confidence);
  h.f64(cfg.margin);
  h.u64(cfg.seed);
  h.f64(cfg.budget_factor);
  h.u32(cfg.recovery.enabled ? 1 : 0);
  h.u64(cfg.recovery.checkpoint_interval);
  return h.digest();
}

// ---------------------------------------------------------------------------
// Result blob payloads (explicit little-endian fields; see store/serial.h)
// ---------------------------------------------------------------------------

namespace {

std::string encode_golden(const vm::RunResult& r) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(r.trap));
  w.u64(r.instructions);
  w.boolean(r.fault_fired);
  w.u64(r.outputs.size());
  for (const auto& o : r.outputs) {
    w.u64(o.bits);
    w.u32(static_cast<std::uint32_t>(o.type));
  }
  return w.bytes();
}

std::optional<vm::RunResult> decode_golden(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  vm::RunResult out;
  out.trap = static_cast<vm::TrapKind>(r.u32());
  out.instructions = r.u64();
  out.fault_fired = r.boolean();
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > payload.size()) return std::nullopt;  // bogus count
  out.outputs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    vm::OutputValue v;
    v.bits = r.u64();
    v.type = static_cast<ir::Type>(r.u32());
    out.outputs.push_back(v);
  }
  if (!r.done()) return std::nullopt;
  return out;
}

std::string encode_sites(const fault::SiteEnumerationResult& s) {
  ByteWriter w;
  w.u32(s.sites.region_id);
  w.u32(s.sites.instance);
  w.u64(s.sites.internal.size());
  for (const auto& site : s.sites.internal) {
    w.u64(site.dyn_index);
    w.u32(site.width_bits);
  }
  w.u64(s.sites.input.size());
  for (const auto& site : s.sites.input) {
    w.u64(site.address);
    w.u32(site.width_bytes);
  }
  w.u64(s.fault_free_instructions);
  w.u64(s.region_entry_index);
  w.boolean(s.region_found);
  return w.bytes();
}

std::optional<fault::SiteEnumerationResult> decode_sites(
    const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  fault::SiteEnumerationResult out;
  out.sites.region_id = r.u32();
  out.sites.instance = r.u32();
  const std::uint64_t ni = r.u64();
  if (!r.ok() || ni > payload.size()) return std::nullopt;
  out.sites.internal.reserve(ni);
  for (std::uint64_t i = 0; i < ni; ++i) {
    fault::InternalSite s;
    s.dyn_index = r.u64();
    s.width_bits = r.u32();
    out.sites.internal.push_back(s);
  }
  const std::uint64_t nn = r.u64();
  if (!r.ok() || nn > payload.size()) return std::nullopt;
  out.sites.input.reserve(nn);
  for (std::uint64_t i = 0; i < nn; ++i) {
    fault::InputSite s;
    s.address = r.u64();
    s.width_bytes = r.u32();
    out.sites.input.push_back(s);
  }
  out.fault_free_instructions = r.u64();
  out.region_entry_index = r.u64();
  out.region_found = r.boolean();
  if (!r.done()) return std::nullopt;
  return out;
}

std::string encode_campaign(const fault::CampaignResult& c) {
  ByteWriter w;
  w.u64(c.trials);
  w.u64(c.success);
  w.u64(c.failed);
  w.u64(c.crashed);
  w.u64(c.detected_recovered);
  w.u64(c.detected_unrecoverable);
  w.u64(c.population_bits);
  w.u64(c.instructions_retired);
  w.u64(c.snapshots_taken);
  w.u64(c.prefix_instructions_saved);
  w.u64(c.convergence_instructions_saved);
  w.u64(c.early_exits);
  w.u64(c.resume_depth);
  return w.bytes();
}

std::optional<fault::CampaignResult> decode_campaign(
    const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  fault::CampaignResult out;
  out.trials = r.u64();
  out.success = r.u64();
  out.failed = r.u64();
  out.crashed = r.u64();
  out.detected_recovered = r.u64();
  out.detected_unrecoverable = r.u64();
  out.population_bits = r.u64();
  out.instructions_retired = r.u64();
  out.snapshots_taken = r.u64();
  out.prefix_instructions_saved = r.u64();
  out.convergence_instructions_saved = r.u64();
  out.early_exits = r.u64();
  out.resume_depth = r.u64();
  if (!r.done()) return std::nullopt;
  return out;
}

std::string encode_lineage(const LineageRoot& root) {
  ByteWriter w;
  w.u64(root.segment.trace_key);
  w.u64(root.segment.program_hash);
  w.u64(root.segment.rows);
  w.u64(root.segment.ops);
  w.u64(root.segment.extras);
  w.u64(root.digests.size());
  for (const auto d : root.digests) w.u64(d);
  w.u64(root.chunk_hashes.size());
  for (const auto c : root.chunk_hashes) w.u64(c);
  return w.bytes();
}

/// nullopt on any malformed payload, or when the digest count differs from
/// `code_size` or the chunk count from the segment's row count.
std::optional<LineageRoot> decode_lineage(const std::string& payload,
                                          std::size_t code_size) {
  ByteReader r(payload.data(), payload.size());
  LineageRoot out;
  out.segment.trace_key = r.u64();
  out.segment.program_hash = r.u64();
  out.segment.rows = r.u64();
  out.segment.ops = r.u64();
  out.segment.extras = r.u64();
  const std::uint64_t nd = r.u64();
  if (!r.ok() || nd != code_size) return std::nullopt;
  out.digests.resize(nd);
  for (auto& d : out.digests) d = r.u64();
  const std::uint64_t nc = r.u64();
  if (!r.ok() || nc != lineage_chunks(out.segment.rows)) return std::nullopt;
  out.chunk_hashes.resize(nc);
  for (auto& c : out.chunk_hashes) c = r.u64();
  if (!r.done()) return std::nullopt;
  return out;
}

std::string encode_facts(const fault::LadderFacts& f,
                         std::uint64_t program_hash) {
  ByteWriter w;
  w.u64(program_hash);
  w.u64(f.rows);
  w.u64(f.max_sections);
  w.u64(f.instances.size());
  for (const auto& i : f.instances) {
    w.u32(i.region_id);
    w.u32(i.instance);
    w.u64(i.enter_index);
    w.u64(i.exit_index);
    w.boolean(i.complete);
  }
  w.u64(f.sections.size());
  for (const auto& sec : f.sections) {
    w.u64(sec.begin);
    w.u64(sec.end);
    w.boolean(sec.opaque);
    w.array<std::uint32_t>(sec.funcs);
    w.array<std::uint32_t>(sec.pcs);
    w.array<std::uint64_t>(sec.reads);
    w.array<std::uint64_t>(sec.kills);
    w.array<std::uint64_t>(sec.written);
  }
  return w.bytes();
}

/// nullopt on any malformed payload, on facts of another program, row
/// count or cap than `seg` / `max_sections`, and on instances that are not
/// in entry order inside the rows or sections that do not tile them.
std::optional<fault::LadderFacts> decode_facts(const std::string& payload,
                                               const RootSegment& seg,
                                               std::size_t max_sections) {
  ByteReader r(payload.data(), payload.size());
  fault::LadderFacts f;
  const std::uint64_t program_hash = r.u64();
  f.rows = r.u64();
  f.max_sections = r.u64();
  if (!r.ok() || program_hash != seg.program_hash || f.rows != seg.rows ||
      f.max_sections != max_sections) {
    return std::nullopt;
  }
  const std::uint64_t ni = r.u64();
  if (!r.ok() || ni > payload.size()) return std::nullopt;
  f.instances.resize(ni);
  for (std::size_t k = 0; k < ni; ++k) {
    auto& i = f.instances[k];
    i.region_id = r.u32();
    i.instance = r.u32();
    i.enter_index = r.u64();
    i.exit_index = r.u64();
    i.complete = r.boolean();
    if (i.exit_index < i.enter_index || i.exit_index > f.rows ||
        (k > 0 && i.enter_index <= f.instances[k - 1].enter_index)) {
      return std::nullopt;
    }
  }
  const std::uint64_t ns = r.u64();
  if (!r.ok() || ns == 0 || ns > f.max_sections) return std::nullopt;
  f.sections.resize(ns);
  std::uint64_t next = 0;  // where the next section must begin
  for (auto& sec : f.sections) {
    sec.begin = r.u64();
    sec.end = r.u64();
    sec.opaque = r.boolean();
    if (!r.array(sec.funcs) || !r.array(sec.pcs) || !r.array(sec.reads) ||
        !r.array(sec.kills) || !r.array(sec.written) || sec.begin != next ||
        sec.end <= sec.begin) {
      return std::nullopt;
    }
    next = sec.end;
  }
  if (next != f.rows || !r.done()) return std::nullopt;
  return f;
}

std::string hex16(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

const char* kind_ext(BlobKind kind) {
  switch (kind) {
    case BlobKind::GoldenRun: return "golden";
    case BlobKind::Sites: return "sites";
    case BlobKind::Campaign: return "campaign";
    case BlobKind::Summary: return "summary";
    case BlobKind::Lineage: return "lineage";
    case BlobKind::Facts: return "facts";
  }
  return "blob";
}

bool write_file(const std::string& path, const void* data, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool wrote = n == 0 || std::fwrite(data, 1, n, f) == n;
  const bool closed = std::fclose(f) == 0;
  if (!(wrote && closed)) {
    std::remove(path.c_str());
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------------

ArtifactStore::ArtifactStore(std::string dir) : root_(std::move(dir)) {
  // One error_code per call: reusing a single ec across the three creates
  // let a traces/ or blobs/ failure be cleared by a succeeding tmp/ call,
  // and the store then failed much later with a confusing write error.
  for (const char* sub : {"traces", "blobs", "tmp"}) {
    std::error_code ec;
    const fs::path p = fs::path(root_) / sub;
    fs::create_directories(p, ec);
    if (ec) {
      throw std::runtime_error("ArtifactStore: cannot create " + p.string() +
                               ": " + ec.message());
    }
  }
  sweep_stale_tmp();
}

std::size_t ArtifactStore::sweep_stale_tmp() {
  // tmp/ names are "<pid>.<seq>" (tmp_path below). A crashed process never
  // renames its scratch into place, so its files stay forever; anything
  // from a pid that provably no longer exists (kill(pid, 0) == ESRCH) is
  // garbage. Our own files, live pids, unprobeable pids (EPERM) and
  // foreign names are all left alone.
  std::size_t swept = 0;
  const pid_t self = ::getpid();
  std::error_code ec;
  fs::directory_iterator it(fs::path(root_) / "tmp", ec);
  for (const fs::directory_iterator end; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const auto dot = name.find('.');
    if (dot == std::string::npos || dot == 0) continue;
    pid_t pid = 0;
    const auto [ptr, perr] =
        std::from_chars(name.data(), name.data() + dot, pid);
    if (perr != std::errc{} || ptr != name.data() + dot || pid <= 0) continue;
    if (pid == self) continue;
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    std::error_code rec;
    if (fs::remove(it->path(), rec) && !rec) ++swept;
  }
  tmp_swept_.fetch_add(swept, std::memory_order_relaxed);
  return swept;
}

std::string ArtifactStore::trace_path(std::uint64_t key) const {
  return root_ + "/traces/" + hex16(key) + ".fttrace";
}

std::string ArtifactStore::derived_path(std::uint64_t key) const {
  return root_ + "/traces/" + hex16(key) + ".ftderived";
}

std::string ArtifactStore::blob_path(std::uint64_t key, BlobKind kind) const {
  return root_ + "/blobs/" + hex16(key) + "." + kind_ext(kind);
}

std::string ArtifactStore::tmp_path() const {
  static std::atomic<std::uint64_t> seq{0};
  const auto n = seq.fetch_add(1, std::memory_order_relaxed);
  return root_ + "/tmp/" + std::to_string(::getpid()) + "." +
         std::to_string(n);
}

std::shared_ptr<const trace::ColumnTrace> ArtifactStore::load_trace(
    std::uint64_t key, std::shared_ptr<const vm::DecodedProgram> program,
    std::uint64_t program_hash) {
  const std::string path = trace_path(key);
  auto loaded = load_trace_file(path, std::move(program), program_hash);
  if (!loaded.trace) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    if (fs::exists(path, ec)) corrupt_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(loaded.mapped_bytes, std::memory_order_relaxed);
  return std::move(loaded.trace);
}

bool ArtifactStore::publish_trace(std::uint64_t key,
                                  const trace::ColumnTrace& t,
                                  std::uint64_t program_hash) {
  const std::string tmp = tmp_path();
  if (!save_trace_file(tmp, t, program_hash)) return false;
  const std::string final_path = trace_path(key);
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  const auto cols = t.raw();
  bytes_written_.fetch_add(
      trace_layout(cols.rows, cols.ops, cols.num_extras).file_bytes,
      std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<LineageRoot> ArtifactStore::load_lineage(std::uint64_t key,
                                                       std::size_t code_size,
                                                       bool& found) {
  auto payload = load_blob(key, BlobKind::Lineage);
  if (!payload) {
    std::error_code ec;
    found = fs::exists(blob_path(key, BlobKind::Lineage), ec);
    return std::nullopt;
  }
  found = true;
  auto decoded = decode_lineage(*payload, code_size);
  if (!decoded) corrupt_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

bool ArtifactStore::publish_lineage(std::uint64_t key, const LineageRoot& root,
                                    bool replace) {
  const std::string payload = encode_lineage(root);
  BlobHeader h;
  h.kind = static_cast<std::uint32_t>(BlobKind::Lineage);
  h.payload_bytes = payload.size();
  h.payload_hash = util::hash_bytes(payload.data(), payload.size());
  std::string bytes(reinterpret_cast<const char*>(&h), sizeof(h));
  bytes += payload;
  const std::string tmp = tmp_path();
  if (!write_file(tmp, bytes.data(), bytes.size())) return false;
  // link(2) fails when the name exists: of concurrent publishers exactly
  // one creates the record, and it is complete the moment it is visible.
  // A replacer unlinks the unusable record first; a reader in between sees
  // no record and at worst runs (and offers) a full trace of its own.
  const std::string path = blob_path(key, BlobKind::Lineage);
  if (replace) ::unlink(path.c_str());
  const bool created = ::link(tmp.c_str(), path.c_str()) == 0;
  std::remove(tmp.c_str());
  if (!created) return false;
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  lineage_roots_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<RootPrefix> ArtifactStore::load_root_prefix(
    const LineageRoot& root, std::span<const std::uint8_t> changed,
    trace::ColumnTrace& out) {
  const std::string path = trace_path(root.segment.trace_key);
  std::uint64_t read = 0;
  auto prefix = read_root_prefix(path, root.segment, root.chunk_hashes,
                                 changed, root.segment.rows, out, &read,
                                 nullptr);
  if (!prefix) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    if (fs::exists(path, ec)) corrupt_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(read, std::memory_order_relaxed);
  return prefix;
}

bool ArtifactStore::publish_derived_trace(std::uint64_t key,
                                          const LineageRoot& root,
                                          std::uint64_t prefix_rows,
                                          const trace::ColumnTrace& t,
                                          std::uint64_t program_hash) {
  const std::string tmp = tmp_path();
  std::uint64_t written = 0;
  if (!save_derived_trace_file(tmp, root, prefix_rows, t, program_hash,
                               &written)) {
    return false;
  }
  if (std::rename(tmp.c_str(), derived_path(key).c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  bytes_written_.fetch_add(written, std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const trace::ColumnTrace> ArtifactStore::load_derived_trace(
    std::uint64_t key, std::shared_ptr<const vm::DecodedProgram> program,
    std::uint64_t program_hash) {
  auto loaded = load_derived_trace_file(
      derived_path(key), [this](std::uint64_t k) { return trace_path(k); },
      std::move(program), program_hash);
  if (!loaded.trace) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (loaded.found) corrupt_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(loaded.bytes_read, std::memory_order_relaxed);
  return std::move(loaded.trace);
}

bool ArtifactStore::publish_blob(std::uint64_t key, BlobKind kind,
                                 const std::string& payload) {
  BlobHeader h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.payload_bytes = payload.size();
  h.payload_hash = util::hash_bytes(payload.data(), payload.size());

  std::string bytes(reinterpret_cast<const char*>(&h), sizeof(h));
  bytes += payload;
  const std::string tmp = tmp_path();
  if (!write_file(tmp, bytes.data(), bytes.size())) return false;
  const std::string final_path = blob_path(key, kind);
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<std::string> ArtifactStore::load_blob(
    std::uint64_t key, BlobKind kind,
    const std::function<bool(const std::string&)>& accept) {
  const std::string path = blob_path(key, kind);
  const auto miss = [&](bool found) -> std::optional<std::string> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (found) corrupt_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return miss(false);
  std::string bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);

  if (bytes.size() < sizeof(BlobHeader)) return miss(true);
  BlobHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (h.magic != kBlobMagic || h.endian != kEndianMark ||
      h.version != kBlobVersion || h.kind != static_cast<std::uint32_t>(kind)) {
    return miss(true);
  }
  if (bytes.size() - sizeof(BlobHeader) != h.payload_bytes) return miss(true);
  std::string payload = bytes.substr(sizeof(BlobHeader));
  if (util::hash_bytes(payload.data(), payload.size()) != h.payload_hash ||
      (accept && !accept(payload))) {
    return miss(true);
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return payload;
}

std::optional<fault::LadderFacts> ArtifactStore::load_facts(
    const RootSegment& seg, std::size_t max_sections) {
  std::optional<fault::LadderFacts> out;
  (void)load_blob(seg.trace_key, BlobKind::Facts,
                  [&](const std::string& payload) {
                    out = decode_facts(payload, seg, max_sections);
                    return out.has_value();
                  });
  return out;
}

bool ArtifactStore::publish_facts(std::uint64_t trace_key,
                                  const fault::LadderFacts& facts,
                                  std::uint64_t program_hash) {
  return publish_blob(trace_key, BlobKind::Facts,
                      encode_facts(facts, program_hash));
}

std::optional<vm::RunResult> ArtifactStore::load_golden(std::uint64_t key) {
  auto payload = load_blob(key, BlobKind::GoldenRun);
  if (!payload) return std::nullopt;
  auto decoded = decode_golden(*payload);
  if (!decoded) corrupt_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

bool ArtifactStore::publish_golden(std::uint64_t key, const vm::RunResult& run) {
  return publish_blob(key, BlobKind::GoldenRun, encode_golden(run));
}

std::optional<fault::SiteEnumerationResult> ArtifactStore::load_sites(
    std::uint64_t key) {
  auto payload = load_blob(key, BlobKind::Sites);
  if (!payload) return std::nullopt;
  auto decoded = decode_sites(*payload);
  if (!decoded) corrupt_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

bool ArtifactStore::publish_sites(std::uint64_t key,
                                  const fault::SiteEnumerationResult& s) {
  return publish_blob(key, BlobKind::Sites, encode_sites(s));
}

std::optional<fault::CampaignResult> ArtifactStore::load_campaign(
    std::uint64_t key) {
  auto payload = load_blob(key, BlobKind::Campaign);
  if (!payload) return std::nullopt;
  auto decoded = decode_campaign(*payload);
  if (!decoded) corrupt_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

bool ArtifactStore::publish_campaign(std::uint64_t key,
                                     const fault::CampaignResult& r) {
  return publish_blob(key, BlobKind::Campaign, encode_campaign(r));
}

std::optional<std::string> ArtifactStore::load_summary(std::uint64_t key) {
  // The payload is compose::encode_summary's byte string; validation beyond
  // the blob framing (magic/version/hash) is the caller's decode_summary —
  // a payload it rejects is treated as a miss there, same contract.
  return load_blob(key, BlobKind::Summary);
}

bool ArtifactStore::publish_summary(std::uint64_t key,
                                    const std::string& payload) {
  return publish_blob(key, BlobKind::Summary, payload);
}

ArtifactStore::Counters ArtifactStore::counters() const noexcept {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.corrupt = corrupt_.load(std::memory_order_relaxed);
  c.publishes = publishes_.load(std::memory_order_relaxed);
  c.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  c.stale_tmp_swept = tmp_swept_.load(std::memory_order_relaxed);
  c.lineage_roots = lineage_roots_.load(std::memory_order_relaxed);
  return c;
}

ArtifactStore::DiskStats ArtifactStore::disk_stats() const {
  DiskStats stats;
  std::error_code ec;
  for (const char* sub : {"traces", "blobs"}) {
    fs::directory_iterator it(fs::path(root_) / sub, ec);
    if (ec) continue;
    for (const auto& entry : it) {
      std::error_code fec;
      if (!entry.is_regular_file(fec)) continue;
      const auto sz = entry.file_size(fec);
      if (fec) continue;
      ++stats.entries;
      stats.bytes += sz;
    }
  }
  return stats;
}

}  // namespace ft::store
