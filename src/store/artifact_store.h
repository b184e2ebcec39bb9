/// @file
/// Content-addressed persistent artifact store.
///
/// Everything the analysis pipeline produces that is fully determined by
/// (program, config, seed) — golden runs, golden columnar traces, site
/// enumerations, campaign outcome counts — is addressable by a stable
/// 64-bit content hash of those inputs (util/hash.h; key derivations
/// below). ArtifactStore is the durable cache behind those keys: a
/// directory of write-once files, looked up before computing and published
/// after, so a second process (or a second run of the same request) serves
/// the artifact instead of re-deriving it. FastFlip's observation (see
/// PAPERS.md) is the motivation: content-addressed, composable injection
/// results turn re-analysis cost from O(whole program) into O(diff).
///
/// Layout under the store root:
///
///     traces/<key>.fttrace   mmap-able ColumnTrace segments (trace_io.h)
///     traces/<key>.ftderived an edited module's trace as a lineage root's
///                            prefix plus its own suffix (lineage.h)
///     blobs/<key>.<kind>     golden / sites / campaign / summary /
///                            lineage / facts blobs
///     tmp/                   uncommitted writer scratch (invisible)
///
/// Durability contract: writers serialize into tmp/ under a unique name
/// and rename(2) into place — atomic on POSIX — so concurrent publishers
/// of the same key race benignly (last rename wins, all contents
/// identical by construction) and a crashed writer leaves only tmp/
/// garbage. Readers validate magic, version, sizes and content hashes and
/// treat EVERY anomaly as a miss: the store can always be deleted, never
/// corrupts results, and never serves wrong data (tests/store_test.cpp
/// pins truncation, bad-magic and no-commit cases).
///
/// All operations are thread-safe; hit/miss/byte counters are atomic and
/// surface in core::AnalysisReport when a request runs against a store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "fault/ladder.h"
#include "fault/sites.h"
#include "store/format.h"
#include "store/lineage.h"
#include "trace/column.h"
#include "vm/interp.h"

namespace ft::store {

// ---------------------------------------------------------------------------
// Key derivation. Stable across processes/platforms (util::Hash64); every
// key mixes a domain tag so the kinds can never alias each other.
// ---------------------------------------------------------------------------

/// Content hash of a laid-out module: every semantic field of every
/// function/block/instruction/operand, global layout (addresses, init
/// bits), regions, entry point and memory geometry. Two modules with equal
/// hashes execute identically, so artifacts keyed by it are shareable.
[[nodiscard]] std::uint64_t hash_module(const ir::Module& m);

/// Key of a golden-trace lineage (store/lineage.h): every field
/// hash_module hashes except instruction contents — function signatures,
/// register counts, block and instruction counts, globals with their
/// layout and init bits, regions, entry point, memory geometry — mixed
/// with `options_hash`. A constant edit keeps a module in its lineage.
[[nodiscard]] std::uint64_t lineage_key(const ir::Module& m,
                                        std::uint64_t options_hash);

/// Per-instruction content digests in flat-pc order (the order
/// vm::DecodedProgram numbers instructions in): the instruction contents
/// hash_module covers, one digest per instruction. Together with
/// lineage_key they carry exactly what hash_module carries.
[[nodiscard]] std::vector<std::uint64_t> instruction_digests(
    const ir::Module& m);

/// Content hash of the execution inputs of a golden run (seed, budgets,
/// call-depth limit). Observer/fault/pool fields do not affect the golden
/// artifacts and are excluded.
[[nodiscard]] std::uint64_t hash_options(const vm::VmOptions& base);

/// One static instruction's coordinates inside a module — the unit
/// hash_section works over.
struct InstrCoord {
  std::uint32_t func = 0;
  std::uint32_t block = 0;
  std::uint32_t instr = 0;  // index within block
};

/// hash_module restricted to the static instructions a trace section
/// actually executes: each coordinate triple plus the full semantic
/// content of the instruction it names (same per-instruction hashing as
/// hash_module; module-level geometry is carried by the summary key's
/// entry-state hash instead, which covers the whole memory image). Editing
/// one instruction changes hash_section of exactly the sections that
/// execute it — the invalidation granularity of the compositional engine
/// (src/compose/). Instruction granularity matters: the mini-apps are one
/// big function, so any whole-function hash would invalidate every section
/// on any edit. `body` must be sorted unique valid coordinates.
[[nodiscard]] std::uint64_t hash_section(const ir::Module& m,
                                         std::span<const InstrCoord> body);

/// Sentinel region/instance for whole-program artifacts.
inline constexpr std::uint32_t kWholeProgram = ~std::uint32_t{0};

[[nodiscard]] std::uint64_t golden_key(std::uint64_t module_hash,
                                       std::uint64_t options_hash);
[[nodiscard]] std::uint64_t trace_key(std::uint64_t module_hash,
                                      std::uint64_t options_hash);
[[nodiscard]] std::uint64_t sites_key(std::uint64_t module_hash,
                                      std::uint64_t options_hash,
                                      std::uint32_t region_id,
                                      std::uint32_t instance);
/// Key of one campaign's outcome counts. Hashes exactly the inputs that
/// determine the counts: trial count, confidence/margin (they derive the
/// count when trials == 0), sampling seed and hang budget. Scheduling
/// concerns (pool, ForkPolicy) are excluded — they never change counts
/// (pinned by bench/campaign_fork_ab.cpp), so a result computed under any
/// scheduler serves them all. Its cost counters describe the producing run.
[[nodiscard]] std::uint64_t campaign_key(std::uint64_t module_hash,
                                         std::uint64_t options_hash,
                                         std::uint32_t region_id,
                                         std::uint32_t instance,
                                         fault::TargetClass target,
                                         const fault::CampaignConfig& cfg);

/// Key of one section's summary blob (compose::SectionSummary). Mixes the
/// section's IR hash (hash_section), its boundary entry-state hash (the
/// "boundary live-set": everything execution inside the section depends
/// on), the dynamic span, the site-population hash, the base-options hash
/// and the campaign's semantic config — the same fields campaign_key uses.
/// Two sections with identical bodies but different boundary states get
/// distinct keys (pinned by tests/store_test.cpp).
[[nodiscard]] std::uint64_t summary_key(std::uint64_t section_hash,
                                        std::uint64_t entry_hash,
                                        std::uint64_t begin, std::uint64_t end,
                                        std::uint64_t plans_hash,
                                        std::uint64_t options_hash,
                                        const fault::CampaignConfig& cfg);

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

class ArtifactStore {
 public:
  /// Open (creating if needed) a store rooted at `dir`. Throws
  /// std::runtime_error when any of the store subdirectories cannot be
  /// created (each create is checked individually). Opening also sweeps
  /// stale tmp/ scratch left by crashed processes: entries named
  /// `<pid>.<n>` whose pid no longer exists are removed (counted in
  /// Counters::stale_tmp_swept); live writers are never touched.
  explicit ArtifactStore(std::string dir);
  virtual ~ArtifactStore() = default;

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  [[nodiscard]] const std::string& root() const noexcept { return root_; }

  // --- golden columnar traces (zero-copy mmap on hit) -----------------------
  /// nullptr on miss (absent, torn, corrupt, or wrong program). The
  /// returned trace aliases the mapping and stays valid for its lifetime.
  [[nodiscard]] virtual std::shared_ptr<const trace::ColumnTrace> load_trace(
      std::uint64_t key, std::shared_ptr<const vm::DecodedProgram> program,
      std::uint64_t program_hash);
  virtual bool publish_trace(std::uint64_t key, const trace::ColumnTrace& t,
                             std::uint64_t program_hash);

  // --- golden-trace lineage (store/lineage.h) -------------------------------
  // Driven by core::AnalysisSession::fill_trace_locked. Every lookup counts
  // a hit or a miss like the other kinds; a file that exists but is
  // rejected also counts as corrupt.
  /// The lineage record under `key`; nullopt when absent or rejected
  /// (including a digest count other than `code_size`). `found` is set
  /// when a record exists, usable or not.
  [[nodiscard]] virtual std::optional<LineageRoot> load_lineage(
      std::uint64_t key, std::size_t code_size, bool& found);
  /// Commit `root` as the lineage record under `key`. With `replace` false
  /// the record is created only when none exists (first publisher wins);
  /// with `replace` true an existing record — one that could not serve —
  /// is removed first, and of concurrent replacers each commit is whole.
  /// Returns true only for a publisher whose record was committed.
  virtual bool publish_lineage(std::uint64_t key, const LineageRoot& root,
                               bool replace);
  /// read_root_prefix over `root`'s segment in this store (see there).
  [[nodiscard]] virtual std::optional<RootPrefix> load_root_prefix(
      const LineageRoot& root, std::span<const std::uint8_t> changed,
      trace::ColumnTrace& out);
  /// Publish `t` under `key` as a derived trace of `root` sharing its
  /// first `prefix_rows` rows: only the suffix is written.
  virtual bool publish_derived_trace(std::uint64_t key,
                                     const LineageRoot& root,
                                     std::uint64_t prefix_rows,
                                     const trace::ColumnTrace& t,
                                     std::uint64_t program_hash);
  /// The derived trace under `key` as one owned trace (root prefix copied,
  /// suffix appended); nullptr when absent or rejected.
  [[nodiscard]] virtual std::shared_ptr<const trace::ColumnTrace>
  load_derived_trace(std::uint64_t key,
                     std::shared_ptr<const vm::DecodedProgram> program,
                     std::uint64_t program_hash);

  // --- ladder facts of a full trace segment (store/lineage.h) --------------
  /// The fault::LadderFacts published for the trace segment `seg` names
  /// (keyed by its trace key), cut with cap `max_sections`. nullopt when
  /// absent or rejected: a payload that does not decode, or whose program
  /// hash, row count or cap differs from `seg` / `max_sections`, is a
  /// counted miss (and corrupt), never served.
  [[nodiscard]] virtual std::optional<fault::LadderFacts> load_facts(
      const RootSegment& seg, std::size_t max_sections);
  /// Publish the facts of the full trace segment under `trace_key`, whose
  /// program hash is `program_hash`.
  virtual bool publish_facts(std::uint64_t trace_key,
                             const fault::LadderFacts& facts,
                             std::uint64_t program_hash);

  // --- golden run results ---------------------------------------------------
  [[nodiscard]] virtual std::optional<vm::RunResult> load_golden(
      std::uint64_t key);
  virtual bool publish_golden(std::uint64_t key, const vm::RunResult& run);

  // --- site enumerations ----------------------------------------------------
  [[nodiscard]] virtual std::optional<fault::SiteEnumerationResult> load_sites(
      std::uint64_t key);
  virtual bool publish_sites(std::uint64_t key,
                             const fault::SiteEnumerationResult& s);

  // --- campaign outcome counts ----------------------------------------------
  [[nodiscard]] virtual std::optional<fault::CampaignResult> load_campaign(
      std::uint64_t key);
  virtual bool publish_campaign(std::uint64_t key,
                                const fault::CampaignResult& r);

  // --- section summaries (compose::SectionSummary payloads) -----------------
  /// The payload is the compose::encode_summary byte string; the store
  /// frames/validates it like every other blob but never interprets it, so
  /// store stays independent of compose types.
  [[nodiscard]] virtual std::optional<std::string> load_summary(
      std::uint64_t key);
  virtual bool publish_summary(std::uint64_t key, const std::string& payload);

  // --- counters / stats -----------------------------------------------------
  /// Monotonic per-store-object counters (not persisted). `corrupt` counts
  /// lookups that found a file but rejected it.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t publishes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    /// Orphaned tmp/ files from dead pids removed when this store opened.
    std::uint64_t stale_tmp_swept = 0;
    /// Lineage records this store object committed (publish_lineage wins).
    std::uint64_t lineage_roots = 0;
  };
  [[nodiscard]] virtual Counters counters() const noexcept;

  /// Scan the store directory: committed entries and their total bytes
  /// (tmp/ scratch excluded). Used by the CI store-stats artifact.
  struct DiskStats {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] DiskStats disk_stats() const;

 protected:
  /// For delegating views over a store already open on `dir` (a wrapper
  /// that forwards every call, like core::CampaignService's per-request
  /// view): records the root only. The wrapped store created the layout
  /// and swept tmp/ when it opened, so nothing is created or swept again.
  struct DelegatingView {};
  ArtifactStore(DelegatingView, std::string dir) : root_(std::move(dir)) {}

 private:
  [[nodiscard]] std::string trace_path(std::uint64_t key) const;
  [[nodiscard]] std::string derived_path(std::uint64_t key) const;
  [[nodiscard]] std::string blob_path(std::uint64_t key, BlobKind kind) const;
  /// A fresh tmp/ name, "<pid>.<n>" with `n` drawn from one process-wide
  /// sequence: two store objects on one root (a delegating view and the
  /// store it wraps) can never write the same scratch file.
  [[nodiscard]] std::string tmp_path() const;
  /// Serialize-and-commit of one result blob (header + payload, tmp +
  /// rename). Returns false on I/O failure (the store stays consistent).
  bool publish_blob(std::uint64_t key, BlobKind kind,
                    const std::string& payload);
  /// Read + validate one result blob; nullopt on any anomaly (counted).
  /// A payload `accept` rejects counts as a corrupt miss.
  [[nodiscard]] std::optional<std::string> load_blob(
      std::uint64_t key, BlobKind kind,
      const std::function<bool(const std::string&)>& accept = {});

  /// Remove tmp/ entries left by pids that no longer exist. Returns the
  /// number removed; never touches this process's files, unparseable
  /// names, or pids that are alive (or merely unprobeable).
  std::size_t sweep_stale_tmp();

  std::string root_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> corrupt_{0};
  mutable std::atomic<std::uint64_t> publishes_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  mutable std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> tmp_swept_{0};
  std::atomic<std::uint64_t> lineage_roots_{0};
};

}  // namespace ft::store
