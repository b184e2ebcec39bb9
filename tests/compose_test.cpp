// Compositional-campaign equivalence and incremental re-analysis coverage
// (ISSUE 9). The composed engine (src/compose/) must report outcome counts
// bit-identical to the exhaustive snapshot-forked scheduler on every
// application — across pool sizes and fork on/off — and, against a warm
// artifact store, must re-summarize only the sections a one-function edit
// touched while every untouched section's summary key hits the store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/app.h"
#include "compose/compose.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "fault/sites.h"
#include "store/artifact_store.h"
#include "trace/column.h"
#include "trace/segment.h"
#include "util/scheduler.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

namespace fs = std::filesystem;

/// Semantic outcome-count equality: the fields that describe what the
/// faults DID. Accounting fields (instructions, snapshots, early exits)
/// legitimately differ between engines and are not compared.
[[nodiscard]] ::testing::AssertionResult same_counts(
    const fault::CampaignResult& a, const fault::CampaignResult& b) {
  if (a.trials == b.trials && a.success == b.success && a.failed == b.failed &&
      a.crashed == b.crashed && a.detected_recovered == b.detected_recovered &&
      a.detected_unrecoverable == b.detected_unrecoverable &&
      a.population_bits == b.population_bits) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "composed {trials=" << a.trials << " success=" << a.success
         << " failed=" << a.failed << " crashed=" << a.crashed
         << " rec=" << a.detected_recovered
         << " unrec=" << a.detected_unrecoverable << "} vs exhaustive {trials="
         << b.trials << " success=" << b.success << " failed=" << b.failed
         << " crashed=" << b.crashed << " rec=" << b.detected_recovered
         << " unrec=" << b.detected_unrecoverable << "}";
}

/// Restrict a prepared campaign to one section's plans (used only to
/// isolate the offending section after a count mismatch).
[[nodiscard]] fault::PreparedCampaign restrict_to(
    const fault::PreparedCampaign& prepared,
    const std::vector<std::uint32_t>& idxs) {
  fault::PreparedCampaign sub = prepared;
  sub.plans.clear();
  sub.fork_bounds.clear();
  for (const auto i : idxs) {
    sub.plans.push_back(prepared.plans[i]);
    sub.fork_bounds.push_back(prepared.fork_bounds[i]);
  }
  return sub;
}

/// After an aggregate mismatch, re-run each section's plan population in
/// isolation (composed vs exhaustive) and name the first section that
/// diverges — the hard-failure diagnostic ISSUE 9 asks for.
[[nodiscard]] std::string diagnose_sections(
    const vm::DecodedProgram& program, const trace::ColumnTrace& trace,
    const std::vector<trace::RegionInstance>& instances,
    const fault::PreparedCampaign& prepared, const compose::SectionPlan& plan,
    const std::vector<vm::OutputValue>& golden, const fault::Verifier& verify,
    util::Scheduler& pool) {
  for (std::size_t s = 0; s < plan.sections.size(); ++s) {
    if (plan.section_plans[s].empty()) continue;
    const auto sub = restrict_to(prepared, plan.section_plans[s]);
    const auto subplan =
        compose::plan_sections(program, trace, instances, sub);
    const auto ex =
        fault::run_prepared_campaign(program, sub, golden, verify, pool);
    const auto co = compose::run_composed_campaign(program, sub, subplan,
                                                   golden, verify, pool);
    if (!same_counts(co.counts, ex)) {
      return "offending section " + std::to_string(s) + " [" +
             std::to_string(plan.sections[s].begin) + ", " +
             std::to_string(plan.sections[s].end) + ") with " +
             std::to_string(plan.section_plans[s].size()) + " plans";
    }
  }
  return "divergence not isolated to a single section (cross-section "
         "composition bug)";
}

class ComposeEquivalence : public ::testing::TestWithParam<std::string> {};

// Composed outcome counts must equal exhaustive run_prepared_campaign
// counts — per app, per pool size, fork on and off. The populations cover
// clean, faulted and trapping trials across the ten apps.
TEST_P(ComposeEquivalence, ComposedCountsMatchExhaustive) {
  auto session =
      std::make_shared<core::AnalysisSession>(apps::build_app(GetParam()));
  const auto program = session->program();
  const auto golden = session->golden();
  const auto trace = session->golden_trace();
  const auto instances = session->region_instances();
  const auto sites = session->whole_program_sites();
  const auto& verify = session->app().verifier;

  fault::CampaignConfig cfg;
  cfg.trials = 20;
  cfg.seed = 0x5EC7105Eull;
  for (const bool fork : {true, false}) {
    auto c = cfg;
    c.fork.enabled = fork;
    const auto prepared = fault::prepare_campaign(
        *sites, fault::TargetClass::Internal, session->app().base, c);
    util::Scheduler ref_pool(4);
    const auto exhaustive = fault::run_prepared_campaign(
        *program, prepared, golden->outputs, verify, ref_pool);
    const auto plan =
        compose::plan_sections(*program, *trace, *instances, prepared);
    ASSERT_FALSE(plan.empty());
    ASSERT_EQ(plan.plan_section.size(), prepared.plans.size());

    for (const std::size_t workers : {1, 2, 8}) {
      util::Scheduler pool(workers);
      const auto composed = compose::run_composed_campaign(
          *program, prepared, plan, golden->outputs, verify, pool);
      EXPECT_EQ(composed.sections_total, plan.sections.size());
      const auto ok = same_counts(composed.counts, exhaustive);
      if (!ok) {
        FAIL() << "app=" << GetParam() << " fork=" << fork
               << " pool=" << workers << ": " << ok.message() << "\n"
               << diagnose_sections(*program, *trace, *instances, prepared,
                                    plan, golden->outputs, verify, pool);
      }
    }
  }
}

// The page-shared boundary images of a plan: each one equals a fresh golden
// machine paused at its boundary, the chain stores far fewer distinct pages
// than one full image per section, and one flipped byte of a boundary image
// changes that section's entry hash without disturbing the plan's copy or
// the shared zero page.
TEST_P(ComposeEquivalence, BoundaryImagesAreExactAndPageShared) {
  auto session =
      std::make_shared<core::AnalysisSession>(apps::build_app(GetParam()));
  const auto program = session->program();
  fault::CampaignConfig cfg;
  cfg.trials = 20;
  cfg.seed = 0x5EC7105Eull;
  const auto prepared = fault::prepare_campaign(
      *session->whole_program_sites(), fault::TargetClass::Internal,
      session->app().base, cfg);
  const auto plan = compose::plan_sections(
      *program, *session->golden_trace(), *session->region_instances(),
      prepared);
  ASSERT_FALSE(plan.empty());
  const std::size_t nsec = plan.sections.size();
  const std::size_t npages = plan.snapshots[0].pages.size();
  ASSERT_GT(npages, 0u);

  std::unordered_set<const vm::Vm::Snapshot::Page*> distinct;
  for (std::size_t i = 0; i < nsec; ++i) {
    vm::Vm fresh(*program, session->app().base);
    fresh.run_until(plan.sections[i].begin);
    EXPECT_TRUE(fresh.state_equals(plan.snapshots[i])) << "boundary " << i;
    ASSERT_EQ(plan.snapshots[i].pages.size(), npages);
    for (const auto& page : plan.snapshots[i].pages) distinct.insert(page.get());
  }
  // Most of an image is zero and a boundary rewrites a few pages, so the
  // whole chain holds fewer distinct pages than ONE flat image (measured:
  // 10-62 distinct against 8-32 sections x ~258 pages).
  EXPECT_LT(distinct.size(), npages)
      << nsec << " sections x " << npages << " pages";

  std::size_t s = 0;
  while (s + 1 < nsec && plan.entry_hashes[s] == 0) ++s;
  ASSERT_LT(s + 1, nsec) << "no plan-bearing section with a downstream exit";
  const auto& original = plan.snapshots[s];
  EXPECT_EQ(compose::entry_hash(original), plan.entry_hashes[s]);
  const std::size_t p = npages / 2;
  const std::uint8_t before = original.pages[p]->at(123);
  auto flipped = original;
  flipped.own_page(p)[123] ^= 0x10;
  EXPECT_NE(compose::entry_hash(flipped), plan.entry_hashes[s]);
  EXPECT_EQ(original.pages[p]->at(123), before);
  EXPECT_EQ(compose::entry_hash(original), plan.entry_hashes[s]);
  const auto& zero = *vm::Vm::Snapshot::zero_page();
  EXPECT_TRUE(std::all_of(zero.begin(), zero.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

// One ladder per request: plan_sections assigns a campaign to the ladder
// riding with its population when that ladder fits, and the plan equals
// one cut afresh from the golden trace. A snapshot budget that lowers the
// cap cuts a ladder of its own.
TEST_P(ComposeEquivalence, PlanReusesThePopulationLadderAndEqualsAFreshOne) {
  auto session =
      std::make_shared<core::AnalysisSession>(apps::build_app(GetParam()));
  const auto program = session->program();
  const auto trace = session->golden_trace();
  const auto instances = session->region_instances();
  fault::CampaignConfig cfg;
  cfg.trials = 40;
  cfg.seed = 0x1ADDE2ull;
  const auto prepared = fault::prepare_campaign(
      *session->whole_program_sites(), fault::TargetClass::Internal,
      session->app().base, cfg);
  ASSERT_TRUE(prepared.ladder);
  const auto reused =
      compose::plan_sections(*program, *trace, *instances, prepared);
  EXPECT_EQ(reused.ladder, prepared.ladder);

  auto bare = prepared;
  bare.ladder = nullptr;
  const auto fresh = compose::plan_sections(*program, *trace, *instances, bare);
  ASSERT_TRUE(fresh.ladder);
  EXPECT_NE(fresh.ladder, prepared.ladder);
  EXPECT_EQ(fresh.ladder->sections, reused.ladder->sections);
  EXPECT_EQ(fresh.ladder->max_sections, reused.ladder->max_sections);
  ASSERT_EQ(fresh.snapshots.size(), reused.snapshots.size());
  for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
    EXPECT_EQ(compose::entry_hash(fresh.snapshots[i]),
              compose::entry_hash(reused.snapshots[i]))
        << "boundary " << i;
  }
  EXPECT_EQ(fresh.entry_hashes, reused.entry_hashes);
  EXPECT_EQ(fresh.plan_section, reused.plan_section);
  EXPECT_EQ(fresh.section_plans, reused.section_plans);

  auto budget = prepared;
  budget.fork.max_snapshot_bytes = 2 * program->module().memory_size();
  const auto own = compose::plan_sections(*program, *trace, *instances, budget);
  ASSERT_TRUE(own.ladder);
  EXPECT_NE(own.ladder, prepared.ladder);
  EXPECT_EQ(own.ladder->max_sections, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ComposeEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- mutation-based incremental re-analysis --------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "ft-compose-XXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path = mkdtemp(buf.data());
  }
  ~TempDir() { fs::remove_all(path); }
};

inline constexpr std::uint32_t kNoPc = ~std::uint32_t{0};

/// The one-function constant tweak, pinned to a single static instruction:
/// which pc was edited and which pristine sections execute it. Summary keys
/// hash per-instruction code footprints (store::hash_section over
/// SectionInfo::pcs), so the edit invalidates exactly the sections whose
/// probe window executes this pc — plus every section whose entry snapshot
/// the changed values flow into.
struct Mutation {
  std::uint32_t pc = kNoPc;
  std::uint32_t func = 0;
  std::vector<std::size_t> sections;  // pristine sections executing pc
};

/// Apply the constant tweak to the LATEST-first-executing f64 immediate in
/// the trace: the mini-apps are one big function, so the edit is chosen at
/// instruction granularity — a constant in code that only runs late (the
/// final iteration or the verification tail) leaves every earlier section's
/// entry state and code footprint intact, which is what makes untouched
/// keys hit. A candidate must keep the golden run completing with an
/// UNCHANGED dynamic instruction count (same trace shape, so section
/// boundaries and fork bounds stay aligned and the incremental claim is
/// observable).
[[nodiscard]] Mutation mutate_one_instruction(
    apps::AppSpec& spec, const vm::DecodedProgram& prog,
    const compose::SectionPlan& plan, std::uint64_t golden_instrs) {
  const auto* code = prog.code();
  const std::size_t nsec = plan.sections.size();
  struct Candidate {
    std::size_t first_sec;
    std::uint32_t pc;
  };
  std::vector<Candidate> cands;
  for (std::uint32_t pc = 0; pc < prog.code_size(); ++pc) {
    const auto& d = code[pc];
    const auto& ins =
        spec.module.function(d.func).blocks[d.block].instrs[d.instr];
    bool has_immf = false;
    for (const auto& op : ins.ops) {
      has_immf = has_immf || op.kind == ir::OperandKind::ImmF;
    }
    if (!has_immf) continue;
    std::size_t first = nsec;
    for (std::size_t s = 0; s < nsec && first == nsec; ++s) {
      if (std::binary_search(plan.sections[s].pcs.begin(),
                             plan.sections[s].pcs.end(), pc)) {
        first = s;
      }
    }
    if (first == nsec) continue;  // never executed: editing it proves nothing
    cands.push_back({first, pc});
  }
  std::sort(cands.begin(), cands.end(), [](const auto& a, const auto& b) {
    return a.first_sec > b.first_sec;
  });
  for (const auto& c : cands) {
    const auto& d = code[c.pc];
    auto candidate = spec.module;
    for (auto& op :
         candidate.function(d.func).blocks[d.block].instrs[d.instr].ops) {
      if (op.kind == ir::OperandKind::ImmF) {
        op.imm_f = op.imm_f * 1.0009765625 + 0.0009765625;
      }
    }
    const auto decoded = vm::DecodedProgram::decode(candidate);
    const auto run = vm::Vm::run(decoded, spec.base);
    if (!run.completed() || run.instructions != golden_instrs) continue;
    Mutation mut;
    mut.pc = c.pc;
    mut.func = d.func;
    for (std::size_t s = 0; s < nsec; ++s) {
      if (std::binary_search(plan.sections[s].pcs.begin(),
                             plan.sections[s].pcs.end(), c.pc)) {
        mut.sections.push_back(s);
      }
    }
    spec.module = std::move(candidate);
    return mut;
  }
  return {};
}

class ComposeIncremental : public ::testing::TestWithParam<std::string> {};

// Cold populate -> warm replay -> one-function edit -> warm-incremental:
// the proof counters must show exactly the structurally-untouched sections
// hitting the store and only the affected ones re-summarized, with counts
// equal to cold from-scratch baselines (composed and exhaustive) on the
// mutated module.
TEST_P(ComposeIncremental, WarmStoreRecomputesOnlyAffectedSections) {
  // Honor a CI-shared store (cross-process summary replay): cold-run
  // assertions are gated off when the store may already be warm.
  const char* env = std::getenv("FT_STORE_DIR");
  const bool shared = env && *env;
  TempDir scratch;
  const std::string dir = shared ? std::string(env) : scratch.path + "/store";
  auto store = std::make_shared<store::ArtifactStore>(dir);

  auto app = apps::build_app(GetParam());
  auto session = std::make_shared<core::AnalysisSession>(app);
  session->attach_store(store);

  fault::CampaignConfig cfg;
  cfg.trials = 32;
  cfg.seed = 0x1C4E11ull;

  const auto cold = session->run_compositional(cfg);
  ASSERT_GT(cold.sections_total, 1u);
  if (!shared) {
    EXPECT_EQ(cold.summary_store_hits, 0u);
    EXPECT_GT(cold.summaries_computed, 0u);
    EXPECT_EQ(cold.trials_avoided, 0u);
  }

  // Same module, warm store: zero summarization, all summary keys hit.
  // LULESH is exempt from the avoided-trials check: its faults land in
  // persistent mesh arrays that are never fully overwritten and feed every
  // later time step, so no trial ever closes symbolically — re-execution is
  // semantically required, not a caching miss.
  const auto warm = session->run_compositional(cfg);
  EXPECT_TRUE(same_counts(warm.counts, cold.counts));
  EXPECT_EQ(warm.summaries_computed, 0u);
  EXPECT_GT(warm.summary_store_hits, 0u);
  EXPECT_LT(warm.sections_reexecuted, warm.sections_total);
  if (GetParam() != "LULESH") {
    EXPECT_GT(warm.trials_avoided, 0u);
  }

  // Replicate the engine's section decomposition to derive the structural
  // expectation for the edit: which summary keys MUST survive it.
  const auto golden = session->golden();
  const auto pristine = fault::prepare_campaign(
      *session->whole_program_sites(), fault::TargetClass::Internal, app.base,
      cfg);
  const auto plan = compose::plan_sections(*session->program(),
                                           *session->golden_trace(),
                                           *session->region_instances(),
                                           pristine);
  const std::size_t nsec = plan.sections.size();
  ASSERT_EQ(nsec, cold.sections_total);

  // One-instruction constant tweak in the latest-executing code.
  auto mutated = app;
  const auto mut = mutate_one_instruction(mutated, *session->program(), plan,
                                          golden->instructions);
  ASSERT_NE(mut.pc, kNoPc) << "no tweakable f64 constant in " << GetParam();
  ASSERT_NE(store::hash_module(mutated.module),
            store::hash_module(app.module));

  // A summary key survives the edit iff the section's entry snapshot is
  // upstream of the pc's first execution AND its probe window never
  // executes the edited pc. Everything else must be recomputed.
  const std::size_t probe_window =
      pristine.fork.probe_convergence ? pristine.fork.max_probes : 0;
  std::size_t expected_hits = 0;
  std::size_t expected_miss = 0;
  for (std::size_t i = 0; i + 1 < nsec; ++i) {
    if (plan.section_plans[i].empty()) continue;
    const std::size_t jmax = std::min(i + 1 + probe_window, nsec - 1);
    bool window_executes_edit = false;
    for (const auto s : mut.sections) {
      window_executes_edit = window_executes_edit || (s >= i && s < jmax);
    }
    const bool entry_changed = i > mut.sections.front();
    (entry_changed || window_executes_edit) ? expected_miss++
                                            : expected_hits++;
  }
  ASSERT_GT(expected_hits, 0u)
      << "edit at pc " << mut.pc << " invalidates every section";

  auto msession = std::make_shared<core::AnalysisSession>(mutated);
  msession->attach_store(store);
  const auto inc = msession->run_compositional(cfg);

  // Exactly the structurally-untouched sections hit (a shared store may
  // additionally hold summaries a previous process published for the
  // mutated module, so equality weakens to bounds there).
  if (shared) {
    EXPECT_GE(inc.summary_store_hits, expected_hits);
    EXPECT_LE(inc.summaries_computed, expected_miss);
  } else {
    EXPECT_EQ(inc.summary_store_hits, expected_hits);
    EXPECT_EQ(inc.summaries_computed, expected_miss);
  }
  EXPECT_LT(inc.sections_reexecuted, inc.sections_total);
  if (GetParam() != "LULESH") {
    EXPECT_GT(inc.trials_avoided, 0u);
  }

  // The incremental counts must equal BOTH cold from-scratch baselines on
  // the mutated module: composed (no store) and exhaustive.
  auto csession = std::make_shared<core::AnalysisSession>(mutated);
  const auto cold_mutated = csession->run_compositional(cfg);
  EXPECT_TRUE(same_counts(inc.counts, cold_mutated.counts));

  const auto prepared = fault::prepare_campaign(
      *msession->whole_program_sites(), fault::TargetClass::Internal,
      mutated.base, cfg);
  util::Scheduler pool(4);
  const auto exhaustive = fault::run_prepared_campaign(
      *msession->program(), prepared, msession->golden()->outputs,
      mutated.verifier, pool);
  EXPECT_TRUE(same_counts(inc.counts, exhaustive));
}

INSTANTIATE_TEST_SUITE_P(EditedApps, ComposeIncremental,
                         ::testing::Values("CG", "MG", "LULESH"),
                         [](const auto& info) { return info.param; });

// --- store-served summaries that do not fit the ladder ---------------------

/// Serves every stored summary with each Delta site rewritten to a
/// well-framed but impossible delta, cycling through four defects: a word
/// past the end of the memory image, a misaligned word, words out of
/// order, and an output index past the boundary's outputs.
class TamperingStore final : public store::ArtifactStore {
 public:
  using ArtifactStore::ArtifactStore;

  std::optional<std::string> load_summary(std::uint64_t key) override {
    auto blob = ArtifactStore::load_summary(key);
    std::uint32_t nsites = 0;
    if (!blob || blob->size() < sizeof(nsites)) return blob;
    std::memcpy(&nsites, blob->data(), sizeof(nsites));
    compose::SectionSummary sum;
    if (!compose::decode_summary(*blob, nsites, sum)) return blob;
    for (auto& site : sum.sites) {
      if (site.kind != compose::SiteSummary::Kind::Delta) continue;
      const std::uint64_t past_end = std::uint64_t{1} << 40;
      switch (tampered_++ % 4) {
        case 0: site.mem.emplace_back(past_end, 1); break;
        case 1: site.mem.insert(site.mem.begin(), {8 * 1000 + 3, 1}); break;
        case 2: site.mem = {{4096, 1}, {64, 2}}; break;
        case 3: site.out.emplace_back(~std::uint32_t{0} - 1, 1); break;
      }
    }
    return compose::encode_summary(sum);
  }

  [[nodiscard]] std::size_t tampered() const { return tampered_.load(); }

 private:
  std::atomic<std::size_t> tampered_{0};
};

// A summary served from the store is data, not proof: a Delta whose words
// or output indices cannot stand at its boundary must never be patched into
// a snapshot or into the golden outputs (out-of-range writes), and its
// trial resolves by armed re-execution — so the counts stay exact.
TEST(ComposeRobustness, ImpossibleStoredDeltasResolveByExecution) {
  TempDir dir;
  auto store = std::make_shared<TamperingStore>(dir.path + "/store");
  auto session = std::make_shared<core::AnalysisSession>(apps::build_cg());
  session->attach_store(store);
  fault::CampaignConfig cfg;
  cfg.trials = 96;
  cfg.seed = 0xBADD17Aull;

  const auto cold = session->run_compositional(cfg);
  ASSERT_EQ(store->tampered(), 0u);
  const auto warm = session->run_compositional(cfg);
  EXPECT_GT(warm.summary_store_hits, 0u);
  ASSERT_GT(store->tampered(), 0u) << "no Delta summary to tamper with";

  auto scratch_cfg = cfg;
  scratch_cfg.fork.enabled = false;
  const auto exhaustive = session->app_campaign(scratch_cfg);
  EXPECT_TRUE(same_counts(cold.counts, exhaustive));
  EXPECT_TRUE(same_counts(warm.counts, exhaustive));
  // Every tampered trial re-executed: fewer trials avoided than the
  // summaries served would otherwise allow.
  EXPECT_LE(warm.trials_avoided + store->tampered(), warm.counts.trials);
}

// --- summary codec ----------------------------------------------------------

TEST(SummaryCodec, RoundTripAndRejection) {
  compose::SectionSummary s;
  s.sites.resize(3);
  s.sites[0].kind = compose::SiteSummary::Kind::Masked;
  s.sites[1].kind = compose::SiteSummary::Kind::Delta;
  s.sites[1].mem = {{64, 0x0123456789ABCDEFull}, {4096, ~0ull}};
  s.sites[1].out = {{2, 42}};
  s.sites[2].kind = compose::SiteSummary::Kind::Diverged;

  const auto payload = compose::encode_summary(s);
  compose::SectionSummary back;
  ASSERT_TRUE(compose::decode_summary(payload, 3, back));
  ASSERT_EQ(back.sites.size(), 3u);
  EXPECT_EQ(back.sites[0].kind, compose::SiteSummary::Kind::Masked);
  EXPECT_EQ(back.sites[1].kind, compose::SiteSummary::Kind::Delta);
  EXPECT_EQ(back.sites[1].mem, s.sites[1].mem);
  EXPECT_EQ(back.sites[1].out, s.sites[1].out);
  EXPECT_EQ(back.sites[2].kind, compose::SiteSummary::Kind::Diverged);

  // Site-count mismatch, truncation and trailing garbage are all misses.
  EXPECT_FALSE(compose::decode_summary(payload, 2, back));
  EXPECT_FALSE(
      compose::decode_summary({payload.data(), payload.size() - 1}, 3, back));
  auto extended = payload;
  extended.push_back('\0');
  EXPECT_FALSE(compose::decode_summary(extended, 3, back));
}

}  // namespace
}  // namespace ft
