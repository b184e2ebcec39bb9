// The persistent artifact store: on-disk ColumnTrace segments (save +
// zero-copy mmap load), the content-addressed result cache, the warm
// analysis path (second run of a request serves everything from the store
// and executes nothing), and corruption robustness (truncated segments,
// bad magic/version, torn tmp entries are misses, never crashes or wrong
// data).
//
// The cross-process check forks: the parent serializes each app's golden
// trace, a child process freshly rebuilds the app, mmap-loads the file and
// pins bit-identity against its own traced run — which also pins the
// content hashes (store keys) stable across processes.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "compose/compose.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "store/artifact_store.h"
#include "store/format.h"
#include "store/lineage.h"
#include "store/trace_io.h"
#include "trace/column.h"
#include "util/hash.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    std::string templ = testing::TempDir() + "ft_store_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made ? made : templ;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Byte-identity of one column of `n` bytes. A zero-length column is
/// trivially equal; its pointer may be null, which memcmp must never see.
bool same_bytes(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

/// Bit-identity of two column traces: every column byte-compared.
bool same_columns(const trace::ColumnTrace& a, const trace::ColumnTrace& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  return ra.rows == rb.rows && ra.ops == rb.ops &&
         ra.num_extras == rb.num_extras &&
         same_bytes(ra.pc, rb.pc, 4 * ra.rows) &&
         same_bytes(ra.activation, rb.activation, 4 * ra.rows) &&
         same_bytes(ra.ops_offset, rb.ops_offset, 4 * ra.rows) &&
         same_bytes(ra.result_bits, rb.result_bits, 8 * ra.rows) &&
         same_bytes(ra.op_bits, rb.op_bits, 8 * ra.ops) &&
         same_bytes(ra.extras, rb.extras, 24 * ra.num_extras);
}

/// Golden columnar trace of one app spec (direct-emit traced run).
trace::ColumnTrace trace_app(
    const apps::AppSpec& spec,
    const std::shared_ptr<const vm::DecodedProgram>& program) {
  trace::ColumnTrace sink(program);
  vm::VmOptions opts = spec.base;
  opts.observer = nullptr;
  opts.column_sink = &sink;
  const auto run = vm::Vm::run(*program, opts);
  EXPECT_TRUE(run.completed());
  return sink;
}

fault::CampaignConfig quick_campaign(std::size_t trials) {
  fault::CampaignConfig cfg;
  cfg.trials = trials;
  return cfg;
}

// --- cross-process trace identity (must run before anything spawns pool
// threads in this binary: the child is forked) ------------------------------

TEST(StoreCrossProcess, SaveThenMmapLoadInFreshProcessAllApps) {
  TempDir dir;
  for (const auto& name : apps::all_app_names()) {
    const auto spec = apps::build_app(name);
    const auto program = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(spec.module));
    const auto sink = trace_app(spec, program);
    const std::string path = dir.path + "/" + name + ".fttrace";
    std::string err;
    ASSERT_TRUE(store::save_trace_file(path, sink,
                                       store::hash_module(spec.module), &err))
        << name << ": " << err;

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << name;
    if (pid == 0) {
      // Child: rebuild the app from scratch, derive the content hash
      // independently, mmap-load the parent's file and compare against a
      // fresh traced run. Exit codes: 0 identical, 2 load rejected, 3
      // columns differ.
      int rc = 0;
      {
        const auto child_spec = apps::build_app(name);
        const auto child_program = std::make_shared<const vm::DecodedProgram>(
            vm::DecodedProgram::decode(child_spec.module));
        const auto loaded = store::load_trace_file(
            path, child_program, store::hash_module(child_spec.module));
        if (!loaded.trace) {
          rc = 2;
        } else if (!same_columns(trace_app(child_spec, child_program),
                                 *loaded.trace)) {
          rc = 3;
        }
      }
      ::_exit(rc);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid) << name;
    ASSERT_TRUE(WIFEXITED(status)) << name;
    EXPECT_EQ(WEXITSTATUS(status), 0) << name;
  }
}

// --- trace segment round trip ----------------------------------------------

TEST(TraceIo, RoundTripIsBitIdenticalAndBorrowed) {
  TempDir dir;
  const auto spec = apps::build_app("CG");
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(spec.module));
  const auto sink = trace_app(spec, program);
  const std::string path = dir.path + "/cg.fttrace";
  ASSERT_TRUE(store::save_trace_file(path, sink, 0x1234u));

  const auto loaded = store::load_trace_file(path, program, 0x1234u);
  ASSERT_NE(loaded.trace, nullptr) << loaded.error;
  EXPECT_TRUE(loaded.trace->borrowed());
  EXPECT_GT(loaded.mapped_bytes, sizeof(store::TraceFileHeader));
  EXPECT_TRUE(same_columns(sink, *loaded.trace));
  // Record materialization runs over the mapped columns.
  ASSERT_EQ(loaded.trace->size(), sink.size());
  for (const std::size_t row : {std::size_t{0}, sink.size() / 2,
                                sink.size() - 1}) {
    const auto a = sink.record(row);
    const auto b = loaded.trace->record(row);
    EXPECT_EQ(a.result_bits, b.result_bits);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.index, b.index);
  }
}

TEST(TraceIo, WrongProgramHashIsRejected) {
  TempDir dir;
  const auto spec = apps::build_app("CG");
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(spec.module));
  const auto sink = trace_app(spec, program);
  const std::string path = dir.path + "/cg.fttrace";
  ASSERT_TRUE(store::save_trace_file(path, sink, 1));
  const auto loaded = store::load_trace_file(path, program, 2);
  EXPECT_EQ(loaded.trace, nullptr);
  EXPECT_NE(loaded.error.find("program hash"), std::string::npos);
}

// --- section / summary keys -------------------------------------------------

TEST(SummaryKeys, SectionHashTracksExecutedInstructions) {
  // hash_section digests the executed-instruction footprint of a trace
  // section: coordinates plus full instruction content. It must be
  // deterministic, sensitive to which instructions the section executes
  // (and in what order they are listed), and must change for exactly the
  // footprints that contain an edited instruction.
  const auto app = apps::build_app("CG");
  const std::vector<store::InstrCoord> a = {{0, 0, 0}, {0, 0, 1}};
  const std::vector<store::InstrCoord> b = {{0, 0, 0}};
  const std::vector<store::InstrCoord> rev = {{0, 0, 1}, {0, 0, 0}};
  EXPECT_EQ(store::hash_section(app.module, a),
            store::hash_section(app.module, a));
  EXPECT_NE(store::hash_section(app.module, a),
            store::hash_section(app.module, b));
  EXPECT_NE(store::hash_section(app.module, a),
            store::hash_section(app.module, rev));

  // Edit instruction (0,0,1): footprints containing it change, the
  // disjoint footprint keeps its digest — the invalidation granularity the
  // compositional engine's incremental claim rests on.
  auto edited = app.module;
  edited.function(0).blocks[0].instrs[1].aux ^= 1;
  EXPECT_NE(store::hash_section(app.module, a),
            store::hash_section(edited, a));
  EXPECT_EQ(store::hash_section(app.module, b),
            store::hash_section(edited, b));
}

TEST(SummaryKeys, BoundaryLiveSetDistinguishesIdenticalBodies) {
  // Two sections executing byte-identical code but entered with different
  // machine states (different boundary live-sets, i.e. different
  // entry-state hashes) must never share a summary blob — and every other
  // key ingredient must separate keys too.
  fault::CampaignConfig cfg;
  const std::uint64_t sec = 0x51C7104ull;
  const auto base = store::summary_key(sec, /*entry=*/1, 0, 100, 7, 9, cfg);
  EXPECT_EQ(base, store::summary_key(sec, 1, 0, 100, 7, 9, cfg));
  EXPECT_NE(base, store::summary_key(sec, /*entry=*/2, 0, 100, 7, 9, cfg));
  EXPECT_NE(base, store::summary_key(~sec, 1, 0, 100, 7, 9, cfg));
  EXPECT_NE(base, store::summary_key(sec, 1, 1, 100, 7, 9, cfg));
  EXPECT_NE(base, store::summary_key(sec, 1, 0, 101, 7, 9, cfg));
  EXPECT_NE(base, store::summary_key(sec, 1, 0, 100, 8, 9, cfg));
  EXPECT_NE(base, store::summary_key(sec, 1, 0, 100, 7, 10, cfg));

  auto c = cfg;
  c.trials = 64;
  EXPECT_NE(base, store::summary_key(sec, 1, 0, 100, 7, 9, c));
  c = cfg;
  c.seed ^= 1;
  EXPECT_NE(base, store::summary_key(sec, 1, 0, 100, 7, 9, c));
  c = cfg;
  c.recovery.enabled = !c.recovery.enabled;
  EXPECT_NE(base, store::summary_key(sec, 1, 0, 100, 7, 9, c));
}

// --- result blob round trips -----------------------------------------------

TEST(ArtifactStore, BlobRoundTripsAreExact) {
  TempDir dir;
  store::ArtifactStore st(dir.path + "/store");

  vm::RunResult golden;
  golden.instructions = 12345;
  golden.outputs.push_back({0x3FF0000000000000ull, ir::Type::F64});
  golden.outputs.push_back({42, ir::Type::I64});
  ASSERT_TRUE(st.publish_golden(7, golden));
  const auto g = st.load_golden(7);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->instructions, golden.instructions);
  EXPECT_EQ(g->outputs, golden.outputs);
  EXPECT_EQ(g->trap, vm::TrapKind::None);

  fault::SiteEnumerationResult sites;
  sites.sites.region_id = 3;
  sites.sites.instance = 1;
  sites.sites.internal.push_back({100, 64});
  sites.sites.internal.push_back({200, 32});
  sites.sites.input.push_back({0x40, 8});
  sites.fault_free_instructions = 999;
  sites.region_entry_index = 55;
  sites.region_found = true;
  ASSERT_TRUE(st.publish_sites(8, sites));
  const auto s = st.load_sites(8);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->sites.internal.size(), 2u);
  EXPECT_EQ(s->sites.internal[1].dyn_index, 200u);
  EXPECT_EQ(s->sites.input[0].address, 0x40u);
  EXPECT_EQ(s->region_entry_index, 55u);
  EXPECT_TRUE(s->region_found);

  fault::CampaignResult camp;
  camp.trials = 100;
  camp.success = 60;
  camp.failed = 30;
  camp.crashed = 10;
  camp.population_bits = 4096;
  camp.instructions_retired = 777777;
  camp.early_exits = 5;
  ASSERT_TRUE(st.publish_campaign(9, camp));
  const auto c = st.load_campaign(9);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->success, 60u);
  EXPECT_EQ(c->crashed, 10u);
  EXPECT_EQ(c->population_bits, 4096u);
  EXPECT_EQ(c->early_exits, 5u);

  // Kinds never alias: a campaign key does not answer golden lookups.
  EXPECT_FALSE(st.load_golden(9).has_value());

  const auto counters = st.counters();
  EXPECT_EQ(counters.publishes, 3u);
  EXPECT_EQ(counters.hits, 3u);
  const auto stats = st.disk_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_GT(stats.bytes, 3 * sizeof(store::BlobHeader));
}

// --- warm analysis path ------------------------------------------------------

core::AnalysisRequest warm_request(const std::string& store_dir) {
  return core::AnalysisRequest()
      .app("CG")
      .analysis_regions()
      .target(fault::TargetClass::Internal)
      .target(fault::TargetClass::Input)
      .success_rates(quick_campaign(24))
      .app_campaign(quick_campaign(16))
      .store_dir(store_dir);
}

TEST(StoreAnalysis, SecondRunServesEverythingBitIdentical) {
  // Honor a CI-shared store directory (the double-ctest job exercises the
  // warm path across processes and under the sanitizers); otherwise use a
  // fresh temp store, in which case the first run is provably cold.
  TempDir scratch;
  const char* env = std::getenv("FT_STORE_DIR");
  const bool shared = env && *env;
  const std::string dir =
      shared ? std::string(env) : scratch.path + "/store";

  const auto cold = core::run_analysis(warm_request(dir));
  if (!shared) {
    EXPECT_EQ(cold.trials_executed, cold.total_trials);
    EXPECT_GT(cold.trials_executed, 0u);
    EXPECT_GT(cold.golden_traced_instructions, 0u);
    EXPECT_GT(cold.store_misses, 0u);
    EXPECT_GT(cold.store_bytes_written, 0u);
  }

  const auto warm = core::run_analysis(warm_request(dir));
  // The proof counters: a warm run executes zero campaign trials and zero
  // golden traced instructions — everything is served from the store.
  EXPECT_EQ(warm.trials_executed, 0u);
  EXPECT_EQ(warm.golden_traced_instructions, 0u);
  EXPECT_EQ(warm.campaign_units, 0u);
  EXPECT_GT(warm.campaigns_from_store, 0u);
  EXPECT_GT(warm.store_hits, 0u);
  EXPECT_GT(warm.store_bytes_read, 0u);

  // ...and the served results are bit-identical to the computed ones.
  EXPECT_EQ(warm.total_trials, cold.total_trials);
  ASSERT_EQ(warm.entries.size(), cold.entries.size());
  for (std::size_t i = 0; i < cold.entries.size(); ++i) {
    const auto& a = cold.entries[i].campaign;
    const auto& b = warm.entries[i].campaign;
    EXPECT_EQ(a.trials, b.trials) << i;
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_EQ(a.failed, b.failed) << i;
    EXPECT_EQ(a.crashed, b.crashed) << i;
    EXPECT_EQ(a.population_bits, b.population_bits) << i;
  }
  ASSERT_EQ(warm.apps.size(), cold.apps.size());
  ASSERT_TRUE(cold.apps[0].whole_app.has_value());
  ASSERT_TRUE(warm.apps[0].whole_app.has_value());
  EXPECT_EQ(warm.apps[0].whole_app->success, cold.apps[0].whole_app->success);
  EXPECT_EQ(warm.apps[0].whole_app->failed, cold.apps[0].whole_app->failed);
  EXPECT_EQ(warm.apps[0].whole_app->crashed, cold.apps[0].whole_app->crashed);
  EXPECT_EQ(warm.apps[0].whole_app->trials, cold.apps[0].whole_app->trials);
}

// --- corruption robustness ---------------------------------------------------

void truncate_file(const std::string& path, std::uintmax_t keep) {
  std::error_code ec;
  fs::resize_file(path, keep, ec);
  ASSERT_FALSE(ec) << path;
}

void stomp_bytes(const std::string& path, std::uint64_t offset,
                 const void* data, std::size_t n) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

TEST(StoreRobustness, CorruptEntriesAreMissesAndRecomputedCorrectly) {
  TempDir scratch;
  const std::string dir = scratch.path + "/store";

  // Reference: the same request with no store at all.
  const auto reference = core::run_analysis(warm_request("").store_dir(""));
  // Populate, then vandalize every committed entry a different way.
  (void)core::run_analysis(warm_request(dir));

  std::size_t mutated = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/traces")) {
    // Truncate trace segments mid-column (header intact, columns torn).
    truncate_file(entry.path().string(), fs::file_size(entry.path()) / 2);
    ++mutated;
  }
  bool first_blob = true;
  for (const auto& entry : fs::directory_iterator(dir + "/blobs")) {
    const auto path = entry.path().string();
    if (first_blob) {
      const std::uint64_t bad_magic = 0x21212121212121ull;
      stomp_bytes(path, 0, &bad_magic, sizeof(bad_magic));  // bad magic
      first_blob = false;
    } else {
      const std::uint32_t bad_version = 0xFFFFu;
      stomp_bytes(path, 8, &bad_version, sizeof(bad_version));  // bad version
    }
    ++mutated;
  }
  ASSERT_GT(mutated, 2u);
  // A torn writer that never committed: junk in tmp/ must be invisible.
  std::ofstream(dir + "/tmp/12345.0") << "partial garbage";

  const auto recomputed = core::run_analysis(warm_request(dir));
  // Nothing served, everything recomputed — and the results match the
  // storeless reference bit for bit.
  EXPECT_EQ(recomputed.trials_executed, recomputed.total_trials);
  EXPECT_EQ(recomputed.campaigns_from_store, 0u);
  EXPECT_GT(recomputed.store_misses, 0u);
  ASSERT_EQ(recomputed.entries.size(), reference.entries.size());
  for (std::size_t i = 0; i < reference.entries.size(); ++i) {
    const auto& a = reference.entries[i].campaign;
    const auto& b = recomputed.entries[i].campaign;
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_EQ(a.failed, b.failed) << i;
    EXPECT_EQ(a.crashed, b.crashed) << i;
    EXPECT_EQ(a.trials, b.trials) << i;
  }
  ASSERT_TRUE(recomputed.apps[0].whole_app.has_value());
  EXPECT_EQ(recomputed.apps[0].whole_app->success,
            reference.apps[0].whole_app->success);

  // The recompute republished: a third run is warm again.
  const auto warm = core::run_analysis(warm_request(dir));
  EXPECT_EQ(warm.trials_executed, 0u);
  EXPECT_EQ(warm.golden_traced_instructions, 0u);
}

TEST(StoreRobustness, TruncatedHeaderAndTinyFilesAreMisses) {
  TempDir dir;
  store::ArtifactStore st(dir.path + "/store");
  const auto spec = apps::build_app("MG");
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(spec.module));
  const auto sink = trace_app(spec, program);
  ASSERT_TRUE(st.publish_trace(11, sink, 0xAB));
  ASSERT_NE(st.load_trace(11, program, 0xAB), nullptr);

  // Truncate to less than a header.
  const std::string path =
      dir.path + "/store/traces/000000000000000b.fttrace";
  ASSERT_TRUE(fs::exists(path));
  truncate_file(path, 10);
  EXPECT_EQ(st.load_trace(11, program, 0xAB), nullptr);
  // Zero-length file.
  truncate_file(path, 0);
  EXPECT_EQ(st.load_trace(11, program, 0xAB), nullptr);
  const auto counters = st.counters();
  EXPECT_EQ(counters.corrupt, 2u);

  // tmp/ garbage is excluded from disk stats and lookups; the torn trace
  // file itself still occupies its (dead) entry slot on disk.
  const auto before = st.disk_stats();
  std::ofstream(dir.path + "/store/tmp/999.7") << "torn";
  EXPECT_EQ(st.disk_stats().entries, before.entries);
  EXPECT_EQ(st.disk_stats().bytes, before.bytes);
}

// --- blob version compatibility ---------------------------------------------

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

TEST(StoreCompat, PreviousVersionCampaignBlobIsACountedMiss) {
  TempDir dir;
  store::ArtifactStore st(dir.path + "/store");

  // A genuine v1-era campaign file: version 1 header over the old 11-field
  // payload (no detected_recovered / detected_unrecoverable), with an
  // internally consistent payload hash. Only the version is stale.
  std::string payload;
  append_u64(payload, 100);     // trials
  append_u64(payload, 60);      // success
  append_u64(payload, 30);      // failed
  append_u64(payload, 10);      // crashed
  append_u64(payload, 4096);    // population_bits
  append_u64(payload, 777777);  // instructions_retired
  append_u64(payload, 3);       // snapshots_taken
  append_u64(payload, 50);      // prefix_instructions_saved
  append_u64(payload, 20);      // convergence_instructions_saved
  append_u64(payload, 5);       // early_exits
  append_u64(payload, 2);       // resume_depth

  store::BlobHeader h;
  h.version = 1;
  h.kind = static_cast<std::uint32_t>(store::BlobKind::Campaign);
  h.payload_bytes = payload.size();
  h.payload_hash = util::hash_bytes(payload.data(), payload.size());
  const std::uint64_t key = 31;
  const std::string path =
      dir.path + "/store/blobs/000000000000001f.campaign";
  {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }

  // The v2 reader must refuse it before ever touching the payload: a
  // counted miss, never a reinterpretation of the 11-field layout as 13.
  EXPECT_FALSE(st.load_campaign(key).has_value());
  auto counters = st.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.corrupt, 1u);
  EXPECT_EQ(counters.hits, 0u);

  // A recompute republishes under the same key and the entry is warm again,
  // now carrying the v2 outcome classes.
  fault::CampaignResult camp;
  camp.trials = 100;
  camp.success = 55;
  camp.detected_recovered = 5;
  camp.detected_unrecoverable = 30;
  camp.crashed = 10;
  ASSERT_TRUE(st.publish_campaign(key, camp));
  const auto reloaded = st.load_campaign(key);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->detected_recovered, 5u);
  EXPECT_EQ(reloaded->detected_unrecoverable, 30u);
  counters = st.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
}

TEST(StoreCompat, DetectedOutcomeCountsRoundTripAndCorruptionIsAMiss) {
  TempDir dir;
  store::ArtifactStore st(dir.path + "/store");

  fault::CampaignResult camp;
  camp.trials = 256;
  camp.success = 100;
  camp.failed = 40;
  camp.crashed = 20;
  camp.detected_recovered = 66;
  camp.detected_unrecoverable = 30;
  camp.population_bits = 8192;
  camp.instructions_retired = 123456789;
  camp.snapshots_taken = 7;
  camp.prefix_instructions_saved = 1111;
  camp.convergence_instructions_saved = 2222;
  camp.early_exits = 9;
  camp.resume_depth = 3;
  const std::uint64_t key = 47;
  ASSERT_TRUE(st.publish_campaign(key, camp));

  const auto c = st.load_campaign(key);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->trials, camp.trials);
  EXPECT_EQ(c->success, camp.success);
  EXPECT_EQ(c->failed, camp.failed);
  EXPECT_EQ(c->crashed, camp.crashed);
  EXPECT_EQ(c->detected_recovered, camp.detected_recovered);
  EXPECT_EQ(c->detected_unrecoverable, camp.detected_unrecoverable);
  EXPECT_EQ(c->population_bits, camp.population_bits);
  EXPECT_EQ(c->instructions_retired, camp.instructions_retired);
  EXPECT_EQ(c->snapshots_taken, camp.snapshots_taken);
  EXPECT_EQ(c->prefix_instructions_saved, camp.prefix_instructions_saved);
  EXPECT_EQ(c->convergence_instructions_saved,
            camp.convergence_instructions_saved);
  EXPECT_EQ(c->early_exits, camp.early_exits);
  EXPECT_EQ(c->resume_depth, camp.resume_depth);

  // Flip one byte inside the detected_recovered field on disk. The payload
  // hash catches it: a counted miss, never a silently altered count.
  const std::string path =
      dir.path + "/store/blobs/000000000000002f.campaign";
  ASSERT_TRUE(fs::exists(path));
  const std::uint8_t stomp = 0x5A;
  stomp_bytes(path, sizeof(store::BlobHeader) + 4 * 8, &stomp, 1);
  EXPECT_FALSE(st.load_campaign(key).has_value());
  const auto counters = st.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.corrupt, 1u);

  // Republish repairs the entry in place.
  ASSERT_TRUE(st.publish_campaign(key, camp));
  const auto repaired = st.load_campaign(key);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->detected_recovered, camp.detected_recovered);
  EXPECT_EQ(repaired->detected_unrecoverable, camp.detected_unrecoverable);
}

// Every subdirectory creation is checked individually. A regular file
// squatting where a subdir must go makes that one create_directories fail —
// even for root, where permission-based setups are ignored. This pins the
// old bug where one error_code was reused across all three calls and only
// the LAST one was checked: with "blobs" blocked, the later "tmp" creation
// succeeded, cleared the code, and the ctor reported a healthy store.
TEST(ArtifactStore, CtorThrowsWhenAnySubdirCannotBeCreated) {
  for (const char* sub : {"traces", "blobs", "tmp"}) {
    TempDir dir;
    const std::string root = dir.path + "/store";
    ASSERT_TRUE(fs::create_directories(root));
    std::ofstream(root + "/" + sub) << "squatter";  // file where a dir must go
    EXPECT_THROW(store::ArtifactStore{root}, std::runtime_error) << sub;
  }
}

// Construction sweeps tmp/ entries left by crashed processes: a dead pid's
// scratch files are removed and counted, a live pid's (ours) survive.
TEST(ArtifactStore, SweepsDeadPidTmpFilesOnOpen) {
  TempDir dir;
  const std::string root = dir.path + "/store";
  { store::ArtifactStore st(root); }  // create layout

  // A guaranteed-dead pid: fork a child that exits immediately and reap it.
  const pid_t dead = fork();
  ASSERT_NE(dead, -1);
  if (dead == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(dead, &status, 0), dead);

  const std::string orphan1 = root + "/tmp/" + std::to_string(dead) + ".0";
  const std::string orphan2 = root + "/tmp/" + std::to_string(dead) + ".17";
  const std::string live =
      root + "/tmp/" + std::to_string(::getpid()) + ".0";
  const std::string odd = root + "/tmp/not-a-pid-entry";
  for (const auto& p : {orphan1, orphan2, live, odd}) {
    std::ofstream(p) << "scratch";
  }

  store::ArtifactStore st(root);
  EXPECT_FALSE(fs::exists(orphan1));
  EXPECT_FALSE(fs::exists(orphan2));
  EXPECT_TRUE(fs::exists(live)) << "live writer's scratch must survive";
  EXPECT_TRUE(fs::exists(odd)) << "non-pid names are left alone";
  EXPECT_EQ(st.counters().stale_tmp_swept, 2u);
}

// --- edit-proportional golden traces (store/lineage.h) ----------------------

/// Row of the first execution of every pc in `t` (rows() when never).
std::vector<std::uint64_t> first_rows(const trace::ColumnTrace& t) {
  const auto cols = t.raw();
  std::vector<std::uint64_t> first(t.program().code_size(), cols.rows);
  for (std::uint64_t r = cols.rows; r-- > 0;) first[cols.pc[r]] = r;
  return first;
}

/// The constant edit bench/compose_ab.cpp makes, applied to flat pc `pc`.
apps::AppSpec edit_constant(const apps::AppSpec& spec,
                            const vm::DecodedProgram& prog, std::uint32_t pc) {
  auto out = spec;
  const auto& d = prog.code()[pc];
  for (auto& op :
       out.module.function(d.func).blocks[d.block].instrs[d.instr].ops) {
    if (op.kind == ir::OperandKind::ImmF) {
      op.imm_f = op.imm_f * 1.0009765625 + 0.0009765625;
    } else if (op.kind == ir::OperandKind::ImmI) {
      op.imm_i += 1;
    }
  }
  return out;
}

bool has_imm(const apps::AppSpec& spec, const vm::DecodedInstr& d,
             ir::OperandKind kind) {
  const auto& ins = spec.module.function(d.func).blocks[d.block].instrs[d.instr];
  return std::any_of(ins.ops.begin(), ins.ops.end(),
                     [&](const ir::Operand& o) { return o.kind == kind; });
}

/// A from-scratch traced run of `spec`: its trace and its result.
struct Scratch {
  std::shared_ptr<const vm::DecodedProgram> program;
  trace::ColumnTrace trace;
  vm::RunResult run;
};

Scratch scratch_trace(const apps::AppSpec& spec) {
  Scratch s;
  s.program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(spec.module));
  s.trace = trace::ColumnTrace(s.program);
  vm::VmOptions opts = spec.base;
  opts.observer = nullptr;
  opts.column_sink = &s.trace;
  s.run = vm::Vm::run(*s.program, opts);
  return s;
}

std::shared_ptr<core::AnalysisSession> store_session(
    apps::AppSpec spec, const std::shared_ptr<store::ArtifactStore>& st) {
  auto session = std::make_shared<core::AnalysisSession>(std::move(spec));
  session->attach_store(st);
  return session;
}

/// Golden trace and run of `session` equal the from-scratch ones.
void expect_scratch_identity(core::AnalysisSession& session,
                             const Scratch& scratch, const std::string& what) {
  const auto t = session.golden_trace();
  EXPECT_TRUE(same_columns(*t, scratch.trace)) << what;
  const auto g = session.golden();
  EXPECT_EQ(g->trap, scratch.run.trap) << what;
  EXPECT_EQ(g->instructions, scratch.run.instructions) << what;
  EXPECT_EQ(g->outputs, scratch.run.outputs) << what;
}

/// The golden facts `session` derives — region instances, ladder (every
/// SectionInfo field, snapshot count, run length, cap), whole-program sites
/// and the section plan of a 64-trial campaign — equal those of a storeless
/// from-scratch session of the same module.
void expect_scratch_facts(core::AnalysisSession& session,
                          const apps::AppSpec& spec, const std::string& what) {
  core::AnalysisSession ref(spec);
  EXPECT_EQ(*session.region_instances(), *ref.region_instances()) << what;
  const auto sites = session.whole_program_sites();
  const auto ref_sites = ref.whole_program_sites();
  const auto& a = sites->sites.internal;
  const auto& b = ref_sites->sites.internal;
  EXPECT_EQ(a.size(), b.size()) << what;
  EXPECT_TRUE(a.size() == b.size() &&
              std::equal(a.begin(), a.end(), b.begin(),
                         [](const auto& x, const auto& y) {
                           return x.dyn_index == y.dyn_index &&
                                  x.width_bits == y.width_bits;
                         }))
      << what;
  const auto la = session.ladder();
  const auto lb = ref.ladder();
  ASSERT_TRUE(la && lb) << what;
  EXPECT_EQ(la->sections, lb->sections) << what;
  EXPECT_EQ(la->snapshots.size(), lb->snapshots.size()) << what;
  EXPECT_EQ(la->total_instructions, lb->total_instructions) << what;
  EXPECT_EQ(la->max_sections, lb->max_sections) << what;
  fault::CampaignConfig cfg;
  cfg.trials = 64;
  cfg.seed = 3;
  const auto pa = compose::assign_sections(
      la, fault::prepare_campaign(*sites, fault::TargetClass::Internal,
                                  session.app().base, cfg));
  const auto pb = compose::assign_sections(
      lb, fault::prepare_campaign(*ref_sites, fault::TargetClass::Internal,
                                  ref.app().base, cfg));
  EXPECT_EQ(pa.entry_hashes, pb.entry_hashes) << what;
  EXPECT_EQ(pa.plan_section, pb.plan_section) << what;
  EXPECT_EQ(pa.section_plans, pb.section_plans) << what;
}

TEST(StoreLineage, SplicedTracesEqualScratchRunsAllApps) {
  // Per app: the pristine module's full trace becomes the lineage root,
  // and its ladder facts are published beside it; then the four
  // latest-first-executing f64 constants and the earliest one are edited.
  // Each edited session must splice (trace only rows [R, N)), match a
  // from-scratch traced run in every column and in its golden run, derive
  // the from-scratch golden facts while reusing the root's, and publish a
  // derived trace a second session loads with no traced execution at all.
  std::size_t edits = 0;
  for (const auto& name : apps::all_app_names()) {
    TempDir dir;
    auto st = std::make_shared<store::ArtifactStore>(dir.path + "/store");
    const auto spec = apps::build_app(name);
    const auto pristine = store_session(spec, st);
    const auto root = pristine->golden_trace();
    ASSERT_EQ(st->counters().lineage_roots, 1u) << name;
    (void)pristine->whole_program_sites();  // builds the ladder: facts out
    const auto first = first_rows(*root);

    std::vector<std::uint32_t> cands;
    for (std::uint32_t pc = 0; pc < first.size(); ++pc) {
      const auto& d = pristine->program()->code()[pc];
      if (first[pc] < root->size() && has_imm(spec, d, ir::OperandKind::ImmF)) {
        cands.push_back(pc);
      }
    }
    ASSERT_FALSE(cands.empty()) << name;
    std::stable_sort(cands.begin(), cands.end(), [&](auto a, auto b) {
      return first[a] > first[b];
    });
    std::vector<std::uint32_t> picked(
        cands.begin(), cands.begin() + std::min<std::size_t>(4, cands.size()));
    if (std::find(picked.begin(), picked.end(), cands.back()) == picked.end()) {
      picked.push_back(cands.back());  // the earliest-executing constant
    }

    for (const auto pc : picked) {
      const std::string what = name + " pc " + std::to_string(pc) +
                               " first row " + std::to_string(first[pc]) +
                               " of " + std::to_string(root->size());
      const auto edited = edit_constant(spec, *pristine->program(), pc);
      const auto scratch = scratch_trace(edited);
      const auto session = store_session(edited, st);
      if (!scratch.run.completed()) {
        EXPECT_THROW((void)session->golden_trace(), std::runtime_error) << what;
        continue;
      }
      expect_scratch_identity(*session, scratch, what);
      EXPECT_EQ(session->traced_instructions_executed(),
                scratch.run.instructions - first[pc])
          << what;
      expect_scratch_facts(*session, edited, what);
      if (pc != picked.back()) {
        // A late edit shares all but the last sections with the root.
        EXPECT_GT(session->ladder()->sections_reused, 0u) << what;
      }
      // The derived trace: a second session traces nothing.
      const auto warm = store_session(edited, st);
      expect_scratch_identity(*warm, scratch, what + " (derived load)");
      EXPECT_EQ(warm->traced_instructions_executed(), 0u) << what;
      ++edits;
    }
    EXPECT_EQ(st->counters().lineage_roots, 1u) << name;
    EXPECT_EQ(st->counters().corrupt, 0u) << name;
  }
  EXPECT_GE(edits, 40u);
}

/// A root, one spliced edit of it, and the derived trace that edit
/// published — the fixture of the robustness cases.
struct DerivedFixture {
  TempDir dir;
  std::shared_ptr<store::ArtifactStore> st;
  apps::AppSpec spec;
  std::shared_ptr<const vm::DecodedProgram> program;
  std::vector<std::uint64_t> first;  // first_rows of the root trace
  std::uint64_t rows = 0;            // the root trace's length
  apps::AppSpec edited;
  std::uint32_t pc = 0;  // the pc `edited` changed
  std::string root_path;
  std::uint64_t prefix_rows = 0;
};

/// The latest-first-executing f64 constant of the fixture's root trace
/// other than `skip`.
std::uint32_t latest_constant(const DerivedFixture& f,
                              std::uint32_t skip = ~std::uint32_t{0}) {
  std::uint32_t pc = 0;
  std::uint64_t latest = 0;
  for (std::uint32_t p = 0; p < f.first.size(); ++p) {
    if (p != skip && f.first[p] >= latest && f.first[p] < f.rows &&
        has_imm(f.spec, f.program->code()[p], ir::OperandKind::ImmF)) {
      pc = p;
      latest = f.first[p];
    }
  }
  return pc;
}

void make_derived(DerivedFixture& f, const std::string& app) {
  f.st = std::make_shared<store::ArtifactStore>(f.dir.path + "/store");
  f.spec = apps::build_app(app);
  const auto& spec = f.spec;
  const auto pristine = store_session(spec, f.st);
  f.program = pristine->program();
  f.first = first_rows(*pristine->golden_trace());
  f.rows = pristine->golden_trace()->size();
  f.pc = latest_constant(f);
  f.edited = edit_constant(spec, *f.program, f.pc);
  f.prefix_rows = f.first[f.pc];
  ASSERT_GT(f.prefix_rows, 0u);
  const auto session = store_session(f.edited, f.st);
  (void)session->golden_trace();
  ASSERT_EQ(session->traced_instructions_executed(),
            session->golden()->instructions - f.prefix_rows);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(store::trace_key(
                    store::hash_module(spec.module),
                    store::hash_options(spec.base))));
  f.root_path = f.dir.path + "/store/traces/" + hex + ".fttrace";
  ASSERT_TRUE(fs::exists(f.root_path));
}

TEST(StoreLineage, DamagedRootIsACountedMissAndAFullTrace) {
  // The derived trace's root segment removed, truncated or byte-flipped
  // inside the shared prefix: loading the derived trace and splicing anew
  // both miss, and the session falls back to a full traced run whose
  // columns equal a from-scratch trace.
  for (const char* damage : {"removed", "truncated", "byte-flipped"}) {
    DerivedFixture f;
    make_derived(f, "MG");
    if (std::string(damage) == "removed") {
      fs::remove(f.root_path);
    } else if (std::string(damage) == "truncated") {
      truncate_file(f.root_path, fs::file_size(f.root_path) - 8);
    } else {
      // The activation column's first row: structurally still valid, so
      // only the content check can catch it.
      store::TraceFileHeader h;
      std::uint32_t act = 0;
      {
        std::ifstream in(f.root_path, std::ios::binary);
        in.read(reinterpret_cast<char*>(&h), sizeof h);
        in.seekg(static_cast<std::streamoff>(
            store::trace_layout(h.rows, h.ops, h.extras).activation));
        in.read(reinterpret_cast<char*>(&act), sizeof act);
      }
      act ^= 0x40;
      stomp_bytes(f.root_path,
                  store::trace_layout(h.rows, h.ops, h.extras).activation,
                  &act, sizeof act);
    }
    const auto before = f.st->counters();
    const auto scratch = scratch_trace(f.edited);
    const auto session = store_session(f.edited, f.st);
    expect_scratch_identity(*session, scratch, damage);
    EXPECT_EQ(session->traced_instructions_executed(),
              scratch.run.instructions)
        << damage;
    const auto after = f.st->counters();
    // Misses: the full segment, the derived trace, the root prefix.
    EXPECT_EQ(after.misses - before.misses, 3u) << damage;
    EXPECT_EQ(after.corrupt - before.corrupt,
              std::string(damage) == "removed" ? 1u : 2u)
        << damage;
    // The full trace replaced the record: the next edit splices onto it.
    EXPECT_EQ(after.lineage_roots - before.lineage_roots, 1u) << damage;
    const auto pc2 = latest_constant(f, f.pc);
    ASSERT_LT(f.first[pc2], f.first[f.pc]) << damage;
    const auto edited2 = edit_constant(f.spec, *f.program, pc2);
    const auto scratch2 = scratch_trace(edited2);
    ASSERT_TRUE(scratch2.run.completed()) << damage;
    const auto healed = store_session(edited2, f.st);
    expect_scratch_identity(*healed, scratch2,
                            std::string(damage) + " (healed)");
    EXPECT_EQ(healed->traced_instructions_executed(),
              scratch2.run.instructions - f.first[pc2])
        << damage;
    EXPECT_EQ(f.st->counters().corrupt, after.corrupt) << damage;
  }
}

TEST(StoreLineage, DamagedFactsAreACountedMissAndAFullComputation) {
  // The root's ladder facts byte-flipped, truncated, or republished for
  // another cap, row count or program: an edited session splicing onto
  // the root counts one corrupt miss for them, reuses nothing and derives
  // the from-scratch golden facts. Intact facts are one hit and reused.
  for (const std::string damage :
       {"intact", "byte-flipped", "truncated", "wrong cap", "wrong rows",
        "wrong program"}) {
    TempDir dir;
    auto st = std::make_shared<store::ArtifactStore>(dir.path + "/store");
    const auto spec = apps::build_app("MG");
    const auto pristine = store_session(spec, st);
    (void)pristine->whole_program_sites();
    const auto module_hash = store::hash_module(spec.module);
    const auto key =
        store::trace_key(module_hash, store::hash_options(spec.base));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(key));
    const std::string path = dir.path + "/store/blobs/" + hex + ".facts";
    ASSERT_TRUE(fs::exists(path));
    const auto size = fs::file_size(path);
    auto facts =
        fault::ladder_facts(*pristine->ladder(), *pristine->region_instances());
    std::uint64_t program_hash = module_hash;
    if (damage == "byte-flipped") {
      const std::uint8_t flip = 0x5a;
      stomp_bytes(path, (sizeof(store::BlobHeader) + size) / 2, &flip, 1);
    } else if (damage == "truncated") {
      truncate_file(path, size - 8);
    } else if (damage == "wrong cap") {
      facts.max_sections += 1;
    } else if (damage == "wrong rows") {
      facts.rows += 1;
      facts.sections.back().end += 1;  // still tiles its (wrong) rows
    } else if (damage == "wrong program") {
      program_hash += 1;
    }
    if (damage.starts_with("wrong")) {
      ASSERT_TRUE(st->publish_facts(key, facts, program_hash));
    }

    // The latest-first-executing f64 constant.
    const auto rows = pristine->golden_trace()->size();
    const auto first = first_rows(*pristine->golden_trace());
    std::uint32_t pc = 0;
    std::uint64_t latest = 0;
    for (std::uint32_t p = 0; p < first.size(); ++p) {
      if (first[p] < rows && first[p] >= latest &&
          has_imm(spec, pristine->program()->code()[p],
                  ir::OperandKind::ImmF)) {
        pc = p;
        latest = first[p];
      }
    }
    const auto edited = edit_constant(spec, *pristine->program(), pc);
    const auto session = store_session(edited, st);
    (void)session->golden_trace();
    const auto before = st->counters();
    (void)session->whole_program_sites();
    const auto after = st->counters();
    if (damage == "intact") {
      EXPECT_EQ(after.hits - before.hits, 1u);
      EXPECT_EQ(after.misses - before.misses, 0u);
      EXPECT_GT(session->ladder()->sections_reused, 0u);
    } else {
      EXPECT_EQ(after.hits - before.hits, 0u) << damage;
      EXPECT_EQ(after.misses - before.misses, 1u) << damage;
      EXPECT_EQ(after.corrupt - before.corrupt, 1u) << damage;
      EXPECT_EQ(session->ladder()->sections_reused, 0u) << damage;
    }
    expect_scratch_facts(*session, edited, damage);
  }
}

TEST(StoreLineage, LineageRecordWithWrongDigestCountIsReplaced) {
  TempDir dir;
  auto st = std::make_shared<store::ArtifactStore>(dir.path + "/store");
  const auto spec = apps::build_app("MG");
  const auto program = vm::DecodedProgram::decode(spec.module);
  const auto key = store::lineage_key(spec.module, store::hash_options(spec.base));
  store::LineageRoot bogus;
  bogus.digests.assign(program.code_size() + 1, 0);
  ASSERT_TRUE(st->publish_lineage(key, bogus, /*replace=*/false));
  bool found = false;
  EXPECT_FALSE(st->load_lineage(key, program.code_size(), found).has_value());
  EXPECT_TRUE(found);
  EXPECT_EQ(st->counters().corrupt, 1u);

  const auto scratch = scratch_trace(spec);
  const auto session = store_session(spec, st);
  expect_scratch_identity(*session, scratch, "wrong digest count");
  EXPECT_EQ(session->traced_instructions_executed(), scratch.run.instructions);
  EXPECT_EQ(st->counters().corrupt, 2u);
  // The full trace replaced the bad record, so an edit splices again.
  EXPECT_EQ(st->counters().lineage_roots, 2u);
  ASSERT_TRUE(st->load_lineage(key, program.code_size(), found).has_value());
  const auto first = first_rows(scratch.trace);
  std::uint32_t pc = 0;
  std::uint64_t latest = 0;
  for (std::uint32_t p = 0; p < first.size(); ++p) {
    if (first[p] < scratch.trace.size() && first[p] >= latest &&
        has_imm(spec, program.code()[p], ir::OperandKind::ImmF)) {
      pc = p;
      latest = first[p];
    }
  }
  const auto edited = edit_constant(spec, program, pc);
  const auto scratch2 = scratch_trace(edited);
  const auto spliced = store_session(edited, st);
  expect_scratch_identity(*spliced, scratch2, "after replacement");
  EXPECT_EQ(spliced->traced_instructions_executed(),
            scratch2.run.instructions - latest);
  EXPECT_EQ(st->counters().corrupt, 2u);
}

TEST(StoreLineage, InsertedInstructionChangesTheLineage) {
  // Inserting an instruction moves every later pc: the lineage key differs,
  // no root is consulted, and the edited module roots a lineage of its own.
  TempDir dir;
  auto st = std::make_shared<store::ArtifactStore>(dir.path + "/store");
  const auto spec = apps::build_app("MG");
  (void)store_session(spec, st)->golden_trace();
  ASSERT_EQ(st->counters().lineage_roots, 1u);

  auto edited = spec;
  bool inserted = false;
  for (std::uint32_t f = 0; f < edited.module.num_functions(); ++f) {
    for (auto& b : edited.module.function(f).blocks) {
      for (std::size_t i = 0; i < b.instrs.size() && !inserted; ++i) {
        const auto ins = b.instrs[i];
        if (ins.op != ir::Opcode::FAdd || ins.result == ir::kNoReg) continue;
        const bool self_read =
            std::any_of(ins.ops.begin(), ins.ops.end(), [&](const auto& o) {
              return o.kind == ir::OperandKind::Reg && o.id == ins.result;
            });
        if (self_read) continue;
        // Recomputing the same value right after: same semantics, one
        // more instruction.
        b.instrs.insert(b.instrs.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                        ins);
        inserted = true;
      }
    }
  }
  ASSERT_TRUE(inserted);
  EXPECT_NE(store::lineage_key(edited.module, store::hash_options(edited.base)),
            store::lineage_key(spec.module, store::hash_options(spec.base)));
  const auto scratch = scratch_trace(edited);
  ASSERT_TRUE(scratch.run.completed());
  const auto session = store_session(edited, st);
  expect_scratch_identity(*session, scratch, "inserted instruction");
  EXPECT_EQ(session->traced_instructions_executed(), scratch.run.instructions);
  EXPECT_EQ(st->counters().lineage_roots, 2u);
}

TEST(StoreLineage, EditThatNeverExecutesCopiesTheWholeRoot) {
  // R == N: the changed pc never runs, the whole trace is the root's, the
  // suffix is empty and the session traces nothing.
  std::size_t tested = 0;
  for (const auto& name : apps::all_app_names()) {
    TempDir dir;
    auto st = std::make_shared<store::ArtifactStore>(dir.path + "/store");
    const auto spec = apps::build_app(name);
    const auto pristine = store_session(spec, st);
    const auto first = first_rows(*pristine->golden_trace());
    const auto n = pristine->golden_trace()->size();
    std::uint32_t pc = 0;
    while (pc < first.size() &&
           !(first[pc] == n &&
             (has_imm(spec, pristine->program()->code()[pc],
                      ir::OperandKind::ImmF) ||
              has_imm(spec, pristine->program()->code()[pc],
                      ir::OperandKind::ImmI)))) {
      ++pc;
    }
    if (pc == first.size()) continue;  // every constant executes
    const auto edited = edit_constant(spec, *pristine->program(), pc);
    const auto scratch = scratch_trace(edited);
    const auto session = store_session(edited, st);
    expect_scratch_identity(*session, scratch, name);
    EXPECT_EQ(session->traced_instructions_executed(), 0u) << name;
    const auto warm = store_session(edited, st);
    expect_scratch_identity(*warm, scratch, name + " (derived load)");
    ++tested;
  }
  EXPECT_GT(tested, 0u);
}

TEST(StoreLineage, ConcurrentEditsCreateExactlyOneRoot) {
  // Four threads, four edits of one app, one fresh store: exactly one
  // lineage root is created, and every trace — full, spliced or loaded,
  // whichever the race hands it — equals its from-scratch run.
  TempDir dir;
  auto st = std::make_shared<store::ArtifactStore>(dir.path + "/store");
  const auto spec = apps::build_app("CG");
  const auto program = vm::DecodedProgram::decode(spec.module);
  std::vector<apps::AppSpec> edits;
  for (std::uint32_t pc = program.code_size(); pc-- > 0 && edits.size() < 4;) {
    if (has_imm(spec, program.code()[pc], ir::OperandKind::ImmF)) {
      auto e = edit_constant(spec, program, pc);
      if (scratch_trace(e).run.completed()) edits.push_back(std::move(e));
    }
  }
  ASSERT_EQ(edits.size(), 4u);
  std::vector<Scratch> scratch;
  for (const auto& e : edits) scratch.push_back(scratch_trace(e));

  std::vector<std::shared_ptr<core::AnalysisSession>> sessions(edits.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    threads.emplace_back([&, i] {
      sessions[i] = store_session(edits[i], st);
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(edits.size())) {
      }
      (void)sessions[i]->golden_trace();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < edits.size(); ++i) {
    expect_scratch_identity(*sessions[i], scratch[i], "thread " + std::to_string(i));
  }
  // The golden facts too, built concurrently: the root's session publishes
  // its ladder facts while the spliced ones look them up.
  std::vector<std::thread> builders;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    builders.emplace_back([&, i] { (void)sessions[i]->whole_program_sites(); });
  }
  for (auto& t : builders) t.join();
  for (std::size_t i = 0; i < edits.size(); ++i) {
    expect_scratch_facts(*sessions[i], edits[i], "thread " + std::to_string(i));
  }
  EXPECT_EQ(st->counters().lineage_roots, 1u);
  std::size_t records = 0;
  for (const auto& entry : fs::directory_iterator(dir.path + "/store/blobs")) {
    records += entry.path().extension() == ".lineage" ? 1 : 0;
  }
  EXPECT_EQ(records, 1u);
}

}  // namespace
}  // namespace ft
