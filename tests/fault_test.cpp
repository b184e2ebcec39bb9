// Fault machinery: site enumeration, plan sampling, outcome classification,
// campaign determinism and accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "fault/outcome.h"
#include "fault/sites.h"
#include "hl/builder.h"
#include "trace/column.h"
#include "util/bits.h"
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
