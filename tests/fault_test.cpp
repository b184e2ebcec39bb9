// Fault machinery: site enumeration, plan sampling, outcome classification,
// campaign determinism and accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "fault/outcome.h"
#include "fault/rank_campaign.h"
#include "fault/sampling.h"
#include "fault/sites.h"
#include "hl/builder.h"
#include "trace/column.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/stats.h"
#include "vm/interp.h"

namespace ft {
namespace {

// Program: region computes sum of 8 array elements; output = sum, verified
// with a loose tolerance so low-mantissa flips pass and exponent flips fail.
struct CampaignHarness {
  ir::Module mod{"t"};
  std::uint32_t rid = 0;
  std::vector<vm::OutputValue> golden;
  fault::Verifier verifier;

  static CampaignHarness make() {
    CampaignHarness h;
    hl::ProgramBuilder pb("t");
    auto arr = pb.global_init_f64(
        "arr", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
    const auto rid = pb.declare_region("sum", 0, 0);
    const auto fid = pb.declare_function("main");
    {
      auto f = pb.define(fid);
      auto s = f.var_f64("s", 0.0);
      f.region(rid, [&] {
        f.for_("i", 0, 8, [&](hl::Value i) {
          s.set(s.get() + f.ld(arr, i));
        });
      });
      f.emit(s.get());
      f.ret();
    }
    h.rid = rid;
    h.mod = pb.finish();
    const auto run = vm::Vm::run(h.mod);
    EXPECT_TRUE(run.completed());
    h.golden = run.outputs;
    h.verifier = fault::tolerance_verifier(1e-3);
    return h;
  }
};

TEST(Sites, EnumerationFindsInternalAndInputSites) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  ASSERT_TRUE(sites.region_found);
  EXPECT_GT(sites.sites.internal.size(), 8u);
  // Inputs include the 8 array cells (plus the accumulator slot).
  EXPECT_GE(sites.sites.input.size(), 8u);
  EXPECT_GT(sites.sites.internal_bits(), 0u);
  EXPECT_EQ(sites.sites.input_bits() % 8, 0u);
  EXPECT_GT(sites.fault_free_instructions, 0u);
}

TEST(Sites, MissingRegionInstanceIsReported) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 99, {});
  EXPECT_FALSE(sites.region_found);
  EXPECT_TRUE(sites.sites.internal.empty());
}

TEST(Sites, WholeProgramEnumeration) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_whole_program_sites(h.mod, {});
  ASSERT_TRUE(sites.region_found);
  const auto region_sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  EXPECT_GT(sites.sites.internal.size(),
            region_sites.sites.internal.size());
}

/// The per-record site rule over a materializing TraceView: a record that
/// commits a value is a site, weighted by the width of the stored type for
/// a Store and of the record type otherwise.
std::vector<fault::InternalSite> sites_by_record_rule(
    const trace::ColumnTrace& t) {
  std::vector<fault::InternalSite> out;
  for (const vm::DynInstr& r : t.view()) {
    if (r.result_loc == vm::kNoLoc) continue;
    const auto w =
        bit_width(r.op == ir::Opcode::Store ? r.op_type[0] : r.type);
    if (w != 0) out.push_back(fault::InternalSite{r.index, w});
  }
  return out;
}

void expect_same_sites(const std::vector<fault::InternalSite>& got,
                       const std::vector<fault::InternalSite>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].dyn_index, want[i].dyn_index) << i;
    ASSERT_EQ(got[i].width_bits, want[i].width_bits) << i;
  }
}

class WholeProgramSites : public ::testing::TestWithParam<std::string> {};

// The columnar scan over the golden trace, the decoded overload (its own
// traced run) and the session all reproduce the per-record rule.
TEST_P(WholeProgramSites, TraceDerivedMatchesPerRecordRule) {
  auto app = apps::build_app(GetParam());
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));
  trace::ColumnTrace golden(prog);
  vm::VmOptions opts = app.base;
  opts.column_sink = &golden;
  ASSERT_TRUE(vm::Vm::run(*prog, opts).completed());
  const auto want = sites_by_record_rule(golden);
  ASSERT_FALSE(want.empty());

  const auto scanned = fault::enumerate_whole_program_sites_from_trace(golden);
  EXPECT_TRUE(scanned.region_found);
  EXPECT_EQ(scanned.fault_free_instructions, golden.size());
  expect_same_sites(scanned.sites.internal, want);

  const auto decoded = fault::enumerate_whole_program_sites(*prog, app.base);
  EXPECT_TRUE(decoded.region_found);
  expect_same_sites(decoded.sites.internal, want);

  core::AnalysisSession session(std::move(app));
  const auto from_session = session.whole_program_sites();
  EXPECT_TRUE(from_session->region_found);
  expect_same_sites(from_session->sites.internal, want);
}

INSTANTIATE_TEST_SUITE_P(AllApps, WholeProgramSites,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// Builders type Ret as Void, so no app commits a site through a Ret. With a
// typed Ret the record commits to the caller's register through the escape
// list, and the columnar scan must count it as the per-record rule does.
TEST(WholeProgramSites, TypedRetCommitsThroughTheEscapeList) {
  hl::ProgramBuilder pb("typed_ret");
  const auto helper = pb.declare_function("helper", ir::Type::F64,
                                          {ir::Param{ir::Type::F64, "x"}});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(helper);
    f.ret(f.arg(0) * 2.0);
  }
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 1.0);
    f.for_("i", 0, 4, [&](hl::Value) { s.set(f.call(helper, {s.get()})); });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  for (auto& block : mod.function(helper).blocks) {
    for (auto& ins : block.instrs) {
      if (ins.op == ir::Opcode::Ret) ins.type = ir::Type::F64;
    }
  }
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  trace::ColumnTrace golden(prog);
  vm::VmOptions opts;
  opts.column_sink = &golden;
  ASSERT_TRUE(vm::Vm::run(*prog, opts).completed());
  const auto want = sites_by_record_rule(golden);
  std::size_t ret_sites = 0;
  for (const auto& site : want) {
    ret_sites += golden.opcode_at(site.dyn_index) == ir::Opcode::Ret;
  }
  EXPECT_EQ(ret_sites, 4u);
  expect_same_sites(
      fault::enumerate_whole_program_sites_from_trace(golden).sites.internal,
      want);
}

// A golden run that traps (here: at a tiny instruction ceiling) has no
// population — not found, never an exception.
TEST(WholeProgramSites, TrappingGoldenRunIsNotFound) {
  auto app = apps::build_cg();
  app.base.max_instructions = 500;
  const auto prog = vm::DecodedProgram::decode(app.module);
  const auto direct = fault::enumerate_whole_program_sites(prog, app.base);
  EXPECT_FALSE(direct.region_found);
  EXPECT_TRUE(direct.sites.internal.empty());
  EXPECT_GT(direct.fault_free_instructions, 0u);

  core::AnalysisSession session(std::move(app));
  std::shared_ptr<const fault::SiteEnumerationResult> sites;
  ASSERT_NO_THROW(sites = session.whole_program_sites());
  EXPECT_FALSE(sites->region_found);
  EXPECT_TRUE(sites->sites.internal.empty());
  EXPECT_EQ(sites->fault_free_instructions, direct.fault_free_instructions);
}

TEST(Plans, SamplingIsDeterministicAndInRange) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  const auto a = fault::sample_plans(sites, fault::TargetClass::Internal, 64,
                                     123);
  const auto b = fault::sample_plans(sites, fault::TargetClass::Internal, 64,
                                     123);
  const auto c = fault::sample_plans(sites, fault::TargetClass::Internal, 64,
                                     456);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dyn_index, b[i].dyn_index);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].kind, vm::FaultPlan::Kind::ResultBit);
    EXPECT_LT(a[i].bit, 64u);
  }
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dyn_index != c[i].dyn_index || a[i].bit != c[i].bit) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(Plans, InputPlansTargetRegionEntry) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  const auto plans =
      fault::sample_plans(sites, fault::TargetClass::Input, 32, 9);
  ASSERT_EQ(plans.size(), 32u);
  for (const auto& p : plans) {
    EXPECT_EQ(p.kind, vm::FaultPlan::Kind::RegionInputMemoryBit);
    EXPECT_EQ(p.region_id, h.rid);
    EXPECT_EQ(p.region_instance, 0u);
  }
}

// The linear reference the shared sampler replaced: one population walk per
// draw.
template <typename Site, typename WidthFn>
std::pair<const Site*, std::uint32_t> reference_pick(
    const std::vector<Site>& sites, std::uint64_t u, const WidthFn& width_of) {
  for (const auto& s : sites) {
    const std::uint64_t w = width_of(s);
    if (u < w) return {&s, static_cast<std::uint32_t>(u)};
    u -= w;
  }
  return {nullptr, 0};
}

/// sample_plans as it read with reference_pick: draw, walk, plan per trial.
std::vector<vm::FaultPlan> reference_sample_plans(
    const fault::SiteEnumerationResult& sites, fault::TargetClass target,
    std::size_t trials, std::uint64_t seed) {
  std::vector<vm::FaultPlan> plans;
  util::Rng rng(seed);
  const auto& pop = sites.sites;
  if (target == fault::TargetClass::Internal) {
    const std::uint64_t total = pop.internal_bits();
    if (total == 0) return plans;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto [site, bit] = reference_pick(
          pop.internal, rng.below(total), [](const fault::InternalSite& s) {
            return std::uint64_t{s.width_bits};
          });
      if (site) plans.push_back(fault::plan_for_internal(*site, bit));
    }
  } else {
    const std::uint64_t total = pop.input_bits();
    if (total == 0) return plans;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto [site, bit] = reference_pick(
          pop.input, rng.below(total), [](const fault::InputSite& s) {
            return std::uint64_t{8} * s.width_bytes;
          });
      if (site) plans.push_back(fault::plan_for_input(pop, *site, bit));
    }
  }
  return plans;
}

void expect_same_plans(const std::vector<vm::FaultPlan>& a,
                       const std::vector<vm::FaultPlan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].dyn_index, b[i].dyn_index) << i;
    EXPECT_EQ(a[i].bit, b[i].bit) << i;
    EXPECT_EQ(a[i].region_id, b[i].region_id) << i;
    EXPECT_EQ(a[i].region_instance, b[i].region_instance) << i;
    EXPECT_EQ(a[i].address, b[i].address) << i;
    EXPECT_EQ(a[i].width_bytes, b[i].width_bytes) << i;
  }
}

/// Resolve `draws` with the shared sampler and with reference_pick, and
/// check both name the same site and bit for every draw.
template <typename Site, typename WidthFn>
void expect_sampler_matches_reference(const std::vector<Site>& sites,
                                      const std::vector<std::uint64_t>& draws,
                                      const WidthFn& width_of) {
  const auto picks = fault::detail::pick_weighted(sites, draws, width_of);
  ASSERT_EQ(picks.size(), draws.size());
  for (std::size_t t = 0; t < draws.size(); ++t) {
    const auto [site, bit] = reference_pick(sites, draws[t], width_of);
    ASSERT_NE(site, nullptr);
    ASSERT_EQ(picks[t].site, static_cast<std::size_t>(site - sites.data()))
        << "draw " << draws[t];
    EXPECT_EQ(picks[t].bit, bit) << "draw " << draws[t];
  }
}

TEST(Plans, SharedSamplerMatchesLinearReference) {
  std::mt19937_64 gen(2024);
  const auto internal_width = [](const fault::InternalSite& s) {
    return std::uint64_t{s.width_bits};
  };
  const auto input_width = [](const fault::InputSite& s) {
    return std::uint64_t{8} * s.width_bytes;
  };
  const std::uint32_t widths[] = {1, 8, 32, 64};
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 100u, 5000u}) {
    std::vector<fault::InternalSite> internal(n);
    std::vector<fault::InputSite> input(n);
    std::uint64_t internal_total = 0;
    std::uint64_t input_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      internal[i] = {i * 3, widths[gen() % 4]};
      input[i] = {8 * i, static_cast<std::uint32_t>(1 + gen() % 8)};
      internal_total += internal[i].width_bits;
      input_total += 8 * input[i].width_bytes;
    }
    for (const std::size_t trials : {0u, 1u, 32u, 1000u}) {
      // Random draws, then the first and last bit of the population and
      // of its first and last site, in arbitrary positions.
      std::vector<std::uint64_t> a(trials);
      std::vector<std::uint64_t> b(trials);
      for (auto& u : a) u = gen() % internal_total;
      for (auto& u : b) u = gen() % input_total;
      if (trials > 0) {
        a.front() = internal_total - 1;
        b.front() = input_total - 1;
        a.back() = 0;
        b.back() = 0;
      }
      if (trials >= 32) {
        a[5] = internal[0].width_bits - 1;
        a[9] = internal_total - internal.back().width_bits;
        b[5] = 8 * input[0].width_bytes - 1;
        b[9] = input_total - 8 * input.back().width_bytes;
        a[11] = a[3];  // duplicate draws resolve independently
      }
      expect_sampler_matches_reference(internal, a, internal_width);
      expect_sampler_matches_reference(input, b, input_width);
    }
  }
  // A draw past the population resolves to no site; earlier ones still do.
  const std::vector<fault::InternalSite> two = {{0, 8}, {1, 8}};
  const auto picks =
      fault::detail::pick_weighted(two, std::vector<std::uint64_t>{16, 9},
                                   internal_width);
  EXPECT_EQ(picks[0].site, fault::detail::WeightedPick::kNoSite);
  EXPECT_EQ(picks[1].site, 1u);
  EXPECT_EQ(picks[1].bit, 1u);
}

TEST(Plans, SampledPlansMatchLinearReferenceOnEveryApp) {
  for (const auto& name : apps::all_app_names()) {
    SCOPED_TRACE(name);
    core::AnalysisSession session(apps::build_app(name));
    const auto whole = session.whole_program_sites();
    for (const std::size_t trials : {0u, 1u, 32u, 1000u}) {
      expect_same_plans(
          fault::sample_plans(*whole, fault::TargetClass::Internal, trials, 7),
          reference_sample_plans(*whole, fault::TargetClass::Internal, trials,
                                 7));
    }
    fault::CampaignConfig cfg;
    cfg.trials = 64;
    cfg.seed = 11;
    expect_same_plans(fault::prepare_campaign(*whole,
                                              fault::TargetClass::Internal,
                                              session.app().base, cfg)
                          .plans,
                      reference_sample_plans(*whole,
                                             fault::TargetClass::Internal, 64,
                                             11));
    for (const auto& r : session.app().analysis_regions) {
      const auto sites = session.region_sites(r.id, 0);
      for (const auto target :
           {fault::TargetClass::Internal, fault::TargetClass::Input}) {
        expect_same_plans(fault::sample_plans(*sites, target, 32, r.id + 3),
                          reference_sample_plans(*sites, target, 32, r.id + 3));
      }
    }
  }
}

TEST(Plans, RankPlansMatchLinearReference) {
  for (const char* name : {"CG", "IS"}) {
    SCOPED_TRACE(name);
    core::AnalysisSession session(apps::build_app(name));
    const auto en = session.rank_enumeration(2);
    fault::RankCampaignConfig cfg;
    cfg.nranks = 2;
    cfg.trials = 200;
    cfg.seed = 5;
    const auto prepared =
        fault::prepare_rank_campaign(*en, session.app().base, cfg);
    util::Rng rng(cfg.seed);
    ASSERT_EQ(prepared.plans.size(), cfg.trials);
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      const auto [site, bit] = reference_pick(
          en->sites, rng.below(prepared.population_bits),
          [](const fault::RankSite& s) { return std::uint64_t{s.width_bits}; });
      ASSERT_NE(site, nullptr);
      EXPECT_EQ(prepared.plans[t].dyn_index, site->dyn_index);
      EXPECT_EQ(prepared.plans[t].bit, bit);
      EXPECT_EQ(prepared.plan_rank[t], site->rank);
      EXPECT_EQ(prepared.fork_bounds[t],
                std::min(site->dyn_index,
                         en->first_comm_index[static_cast<std::size_t>(
                             site->rank)]));
    }
  }
}

TEST(Outcome, Classification) {
  const auto h = CampaignHarness::make();
  // Identical outputs -> success.
  vm::RunResult ok;
  ok.outputs = h.golden;
  EXPECT_EQ(fault::classify_outcome(ok, h.golden, h.verifier),
            fault::Outcome::VerificationSuccess);
  // Small perturbation within tolerance -> success.
  vm::RunResult close = ok;
  close.outputs[0].bits = util::f64_to_bits(h.golden[0].as_f64() * (1 + 1e-6));
  EXPECT_EQ(fault::classify_outcome(close, h.golden, h.verifier),
            fault::Outcome::VerificationSuccess);
  // Large perturbation -> failed.
  vm::RunResult far = ok;
  far.outputs[0].bits = util::f64_to_bits(h.golden[0].as_f64() * 2);
  EXPECT_EQ(fault::classify_outcome(far, h.golden, h.verifier),
            fault::Outcome::VerificationFailed);
  // Trap -> crashed.
  vm::RunResult crash;
  crash.trap = vm::TrapKind::OutOfBounds;
  EXPECT_EQ(fault::classify_outcome(crash, h.golden, h.verifier),
            fault::Outcome::Crashed);
}

TEST(ToleranceVerifier, ChecksShapeAndTypes) {
  const auto v = fault::tolerance_verifier(1e-6);
  std::vector<vm::OutputValue> a = {{42, ir::Type::I64}};
  std::vector<vm::OutputValue> b = {{42, ir::Type::I64}, {1, ir::Type::I64}};
  EXPECT_FALSE(v(a, b));  // arity mismatch
  std::vector<vm::OutputValue> c = {{43, ir::Type::I64}};
  EXPECT_FALSE(v(c, a));  // integer must be exact
  EXPECT_TRUE(v(a, a));
  // NaN output never verifies.
  std::vector<vm::OutputValue> n = {
      {util::f64_to_bits(std::nan("")), ir::Type::F64}};
  std::vector<vm::OutputValue> g = {{util::f64_to_bits(1.0), ir::Type::F64}};
  EXPECT_FALSE(v(n, g));
}

TEST(Campaign, AccountingAndDeterminism) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  fault::CampaignConfig cfg;
  cfg.trials = 100;
  cfg.seed = 2024;
  const auto r1 = fault::run_campaign(h.mod, sites,
                                      fault::TargetClass::Internal, h.golden,
                                      h.verifier, {}, cfg);
  const auto r2 = fault::run_campaign(h.mod, sites,
                                      fault::TargetClass::Internal, h.golden,
                                      h.verifier, {}, cfg);
  EXPECT_EQ(r1.trials, 100u);
  EXPECT_EQ(r1.success + r1.failed + r1.crashed, r1.trials);
  EXPECT_EQ(r1.success, r2.success);
  EXPECT_EQ(r1.failed, r2.failed);
  EXPECT_EQ(r1.crashed, r2.crashed);
  // A sum-of-doubles region tolerates many low-mantissa flips but not all.
  EXPECT_GT(r1.success_rate(), 0.2);
  EXPECT_LT(r1.success_rate(), 1.0);
}

TEST(Campaign, LeveugleDefaultTrialCount) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  fault::CampaignConfig cfg;  // trials = 0 -> derive
  cfg.confidence = 0.95;
  cfg.margin = 0.03;
  const auto r = fault::run_campaign(h.mod, sites,
                                     fault::TargetClass::Internal, h.golden,
                                     h.verifier, {}, cfg);
  const auto expected = util::fault_injection_sample_size(
      sites.sites.internal_bits(), 0.95, 0.03);
  EXPECT_EQ(r.trials, expected);
}

TEST(Campaign, InputCampaignRuns) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  fault::CampaignConfig cfg;
  cfg.trials = 50;
  const auto r = fault::run_campaign(h.mod, sites, fault::TargetClass::Input,
                                     h.golden, h.verifier, {}, cfg);
  EXPECT_EQ(r.trials, 50u);
  EXPECT_EQ(r.success + r.failed + r.crashed, r.trials);
}

// The forked, from-scratch and composed campaigns share one tally, so the
// equivalence tests between them cannot see a miscount inside it.
TEST(Campaign, TallyCountsEachOutcomeAndCost) {
  fault::CampaignTally tally;
  tally.add(fault::Outcome::VerificationSuccess, {.instructions = 1});
  tally.add(fault::Outcome::VerificationFailed, {.instructions = 2});
  tally.add(fault::Outcome::VerificationFailed, {.prefix_saved = 4});
  tally.add(fault::Outcome::Crashed,
            {.convergence_saved = 8, .early_exit = true});
  tally.add(fault::Outcome::DetectedRecovered,
            {.early_exit = true, .dead_delta = true});
  tally.add(fault::Outcome::DetectedUnrecoverable, {.instructions = 16});
  tally.add({.instructions = 32});  // work that classifies no trial
  fault::PreparedCampaign prepared;
  prepared.plans.resize(6);
  prepared.population_bits = 640;
  const auto r = tally.result(prepared, /*snapshots_taken=*/3,
                              /*resume_depth=*/99);
  EXPECT_EQ(r.trials, 6u);
  EXPECT_EQ(r.population_bits, 640u);
  EXPECT_EQ(r.success, 1u);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(r.crashed, 1u);
  EXPECT_EQ(r.detected_recovered, 1u);
  EXPECT_EQ(r.detected_unrecoverable, 1u);
  EXPECT_EQ(r.instructions_retired, 51u);
  EXPECT_EQ(r.prefix_instructions_saved, 4u);
  EXPECT_EQ(r.convergence_instructions_saved, 8u);
  EXPECT_EQ(r.early_exits, 2u);
  EXPECT_EQ(r.dead_delta_exits, 1u);
  EXPECT_EQ(r.converged_exits(), 1u);
  EXPECT_EQ(r.snapshots_taken, 3u);
  EXPECT_EQ(r.resume_depth, 99u);
}

// Both chunk engines take a worker count to size their chunks; 0 counts as
// one worker instead of dividing by zero.
TEST(Campaign, EnginesTreatZeroWorkersAsOne) {
  core::AnalysisSession session(apps::build_cg());
  const auto& prog = *session.program();
  const auto golden = session.golden();
  const auto& verify = session.app().verifier;
  fault::CampaignConfig cfg;
  cfg.trials = 40;
  const auto prepared =
      fault::prepare_campaign(*session.whole_program_sites(),
                              fault::TargetClass::Internal,
                              session.app().base, cfg);
  fault::RankCampaignConfig rank_cfg;
  rank_cfg.nranks = 2;
  rank_cfg.trials = 12;
  const auto rank_prepared = fault::prepare_rank_campaign(
      *session.rank_enumeration(2), session.app().base, rank_cfg);

  std::vector<fault::CampaignResult> results;
  std::vector<fault::RankCampaignResult> rank_results;
  for (const std::size_t workers : {0u, 1u}) {
    fault::CampaignEngine engine(prog, prepared, golden->outputs, verify,
                                 workers);
    EXPECT_EQ(engine.chunks(), 8u);  // 40 / (1 * 8) = 5 trials a chunk
    for (std::size_t c = 0; c < engine.chunks(); ++c) engine.run_chunk(c);
    results.push_back(engine.result());

    fault::RankCampaignEngine rank_engine(prog, rank_prepared, verify,
                                         workers);
    EXPECT_EQ(rank_engine.chunks(), 4u);  // 12 / (1 * 4) = 3 trials a chunk
    for (std::size_t c = 0; c < rank_engine.chunks(); ++c) {
      rank_engine.run_chunk(c);
    }
    rank_results.push_back(rank_engine.result());
  }
  EXPECT_EQ(results[0].trials, 40u);
  EXPECT_EQ(results[0].success, results[1].success);
  EXPECT_EQ(results[0].failed, results[1].failed);
  EXPECT_EQ(results[0].crashed, results[1].crashed);
  EXPECT_EQ(results[0].instructions_retired, results[1].instructions_retired);
  EXPECT_EQ(rank_results[0].trials, 12u);
  EXPECT_EQ(rank_results[0].masked_locally, rank_results[1].masked_locally);
  EXPECT_EQ(rank_results[0].absorbed_by_collective,
            rank_results[1].absorbed_by_collective);
  EXPECT_EQ(rank_results[0].propagated, rank_results[1].propagated);
  EXPECT_EQ(rank_results[0].corrupted_output,
            rank_results[1].corrupted_output);
  EXPECT_EQ(rank_results[0].trapped, rank_results[1].trapped);
  EXPECT_EQ(rank_results[0].instructions_retired,
            rank_results[1].instructions_retired);
}

TEST(Campaign, EmptyPopulationIsSafe) {
  const auto h = CampaignHarness::make();
  fault::SiteEnumerationResult empty;
  fault::CampaignConfig cfg;
  cfg.trials = 10;
  const auto r = fault::run_campaign(h.mod, empty,
                                     fault::TargetClass::Internal, h.golden,
                                     h.verifier, {}, cfg);
  EXPECT_EQ(r.trials, 0u);
}

}  // namespace
}  // namespace ft
