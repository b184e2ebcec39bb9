// Campaign-guided hardening (src/harden): pass structure, clean-run
// transparency, detector coverage, checkpoint/rollback recovery outcomes and
// their determinism across pool sizes and fork policies, and the end-to-end
// run_hardening wiring.
#include <gtest/gtest.h>

#include <vector>

#include "core/analysis.h"
#include "fault/campaign.h"
#include "fault/outcome.h"
#include "fault/sites.h"
#include "harden/harden.h"
#include "hl/builder.h"
#include "ir/verify.h"
#include "util/scheduler.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

// Dot-product-style reduction: the accumulator Var is an Alloca cell with
// the load-add-store idiom, so ABFT qualifies it; the loop body is full of
// pure candidates for DWC.
struct HardenHarness {
  ir::Module mod{"h"};
  std::uint32_t rid = 0;
  std::vector<vm::OutputValue> golden;
  fault::Verifier verifier;
  apps::AppSpec spec;

  static HardenHarness make() {
    HardenHarness h;
    hl::ProgramBuilder pb("h");
    auto xs = pb.global_init_f64("xs", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                        8.0, 9.0, 10.0, 11.0, 12.0});
    auto ys = pb.global_init_f64("ys", {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0,
                                        16.0, 18.0, 20.0, 22.0, 24.0});
    const auto rid = pb.declare_region("dot", 0, 0);
    const auto fid = pb.declare_function("main");
    {
      auto f = pb.define(fid);
      auto s = f.var_f64("s", 0.0);
      f.region(rid, [&] {
        f.for_("i", 0, 12, [&](hl::Value i) {
          s.set(s.get() + f.ld(xs, i) * f.ld(ys, i));
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
    h.spec.name = "dotprod";
    h.spec.module = h.mod;
    h.spec.analysis_regions = {{rid, "dot", 0, 0}};
    h.spec.verifier = h.verifier;
    return h;
  }
};

TEST(HardenPass, UnguidedProtectsEveryRegionAndVerifies) {
  const auto h = HardenHarness::make();
  const auto hr = harden::harden_module(h.mod, harden::HardenConfig{});
  EXPECT_TRUE(hr.verify_errors.empty())
      << (hr.verify_errors.empty() ? "" : hr.verify_errors.front());
  ASSERT_EQ(hr.regions.size(), 1u);
  EXPECT_EQ(hr.regions[0].region_id, h.rid);
  EXPECT_EQ(hr.regions[0].name, "dot");
  EXPECT_GT(hr.regions[0].dwc_sites, 0u);
  // The accumulator slot plus the loop counter: both Allocas sit in the
  // entry block (the dominance rule ABFT qualification requires) and both
  // follow the load-add-store accumulate idiom.
  EXPECT_EQ(hr.regions[0].abft_cells, 2u);
  EXPECT_GT(hr.regions[0].added_instructions, 0u);
  EXPECT_GT(hr.regions[0].original_instructions, 0u);
  EXPECT_GT(hr.regions[0].overhead(), 1.0);
  EXPECT_EQ(hr.comm_sites, 0u);
  EXPECT_EQ(hr.added_instructions, hr.regions[0].added_instructions);
}

TEST(HardenPass, GuidedSkipsResilientRegions) {
  const auto h = HardenHarness::make();
  harden::HardenConfig cfg;
  cfg.sr_threshold = 0.5;
  // Region measured at 0.9 success: above threshold, nothing to protect.
  const auto hr = harden::harden_module(
      h.mod, cfg, {harden::RegionGuide{h.rid, 0.9, false}});
  EXPECT_TRUE(hr.verify_errors.empty());
  EXPECT_TRUE(hr.regions.empty());
  EXPECT_EQ(hr.added_instructions, 0u);
  // Below threshold: protected.
  const auto hr2 = harden::harden_module(
      h.mod, cfg, {harden::RegionGuide{h.rid, 0.2, false}});
  ASSERT_EQ(hr2.regions.size(), 1u);
  EXPECT_GT(hr2.added_instructions, 0u);
}

TEST(HardenPass, CleanRunIsBitIdenticalOnBothInterpreters) {
  const auto h = HardenHarness::make();
  const auto hr = harden::harden_module(h.mod, harden::HardenConfig{});
  ASSERT_TRUE(hr.verify_errors.empty());

  const auto legacy = vm::Vm::run(hr.module);
  ASSERT_TRUE(legacy.completed());
  EXPECT_EQ(legacy.outputs, h.golden);  // bitwise: OutputValue op==

  const auto prog = vm::DecodedProgram::decode(hr.module);
  const auto decoded = vm::Vm::run(prog, {});
  ASSERT_TRUE(decoded.completed());
  EXPECT_EQ(decoded.outputs, h.golden);
  // The detectors cost instructions on the clean path too; the hardened run
  // retires strictly more than the original.
  const auto base = vm::Vm::run(h.mod);
  EXPECT_GT(decoded.instructions, base.instructions);
}

TEST(HardenPass, CommBoundaryProtection) {
  hl::ProgramBuilder pb("comm");
  const auto rid = pb.declare_region("reduce", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.region(rid, [&] {
      f.for_("i", 0, 4, [&](hl::Value i) {
        s.set(s.get() + f.c_f64(1.5) * f.sitofp(i));
      });
    });
    auto total = f.mpi_allreduce(s.get(), ir::ReduceOp::Sum);
    f.emit(total);
    f.ret();
  }
  auto mod = pb.finish();
  const auto golden = vm::Vm::run(mod);
  ASSERT_TRUE(golden.completed());

  harden::HardenConfig cfg;
  cfg.protect_comm = true;
  const auto hr = harden::harden_module(mod, cfg);
  ASSERT_TRUE(hr.verify_errors.empty())
      << (hr.verify_errors.empty() ? "" : hr.verify_errors.front());
  EXPECT_GT(hr.comm_sites, 0u);
  // Escaping guide turns comm protection on without the config flag.
  harden::HardenConfig plain;
  const auto guided = harden::harden_module(
      mod, plain, {harden::RegionGuide{rid, 0.0, /*escaping=*/true}});
  EXPECT_GT(guided.comm_sites, 0u);
  const auto unguided = harden::harden_module(mod, plain);
  EXPECT_EQ(unguided.comm_sites, 0u);

  const auto clean = vm::Vm::run(hr.module);
  ASSERT_TRUE(clean.completed());
  EXPECT_EQ(clean.outputs, golden.outputs);
}

// A campaign against the hardened module must see detectors fire; with
// recovery on, detected trials split into recovered/unrecoverable and the
// effective success rate cannot be below the plain success rate.
TEST(HardenCampaign, DetectorsFireAndRecoveryRecovers) {
  const auto h = HardenHarness::make();
  const auto hr = harden::harden_module(h.mod, harden::HardenConfig{});
  ASSERT_TRUE(hr.verify_errors.empty());
  const auto prog = vm::DecodedProgram::decode(hr.module);
  const auto golden = vm::Vm::run(prog, {});
  ASSERT_TRUE(golden.completed());
  const auto sites = fault::enumerate_sites(hr.module, h.rid, 0, {});
  ASSERT_TRUE(sites.region_found);

  util::Scheduler pool(2);
  fault::CampaignConfig cfg;
  cfg.trials = 192;
  cfg.seed = 0xD07ull;
  cfg.recovery.enabled = false;
  const auto undetected = fault::run_prepared_campaign(
      prog,
      fault::prepare_campaign(sites, fault::TargetClass::Internal, {}, cfg),
      golden.outputs, h.verifier, pool);
  // Recovery off: every detection is terminal.
  EXPECT_GT(undetected.detected_unrecoverable, 0u);
  EXPECT_EQ(undetected.detected_recovered, 0u);
  EXPECT_GT(undetected.detection_rate(), 0.0);

  cfg.recovery.enabled = true;
  cfg.recovery.checkpoint_interval = 4096;  // checkpoint 0 always clean here
  const auto recovered = fault::run_prepared_campaign(
      prog,
      fault::prepare_campaign(sites, fault::TargetClass::Internal, {}, cfg),
      golden.outputs, h.verifier, pool);
  EXPECT_EQ(recovered.trials, undetected.trials);
  // Same plans, same detections — recovery only reclassifies them.
  EXPECT_EQ(recovered.detected_recovered + recovered.detected_unrecoverable,
            undetected.detected_unrecoverable);
  EXPECT_GT(recovered.detected_recovered, 0u);
  EXPECT_GE(recovered.effective_success_rate(), recovered.success_rate());
  EXPECT_EQ(recovered.trials, recovered.success + recovered.failed +
                                  recovered.crashed +
                                  recovered.detected_recovered +
                                  recovered.detected_unrecoverable);
}

// ABFT blind-spot coverage: region-entry input-memory faults corrupt cells
// both DWC copies would read, but the shadow accumulator catches flips of
// the protected cell itself. Probe every input word at a high exponent bit
// (a mantissa flip of the 0.0 accumulator is a denormal that rounding
// absorbs — bit-invisible to any detector AND to the output).
TEST(HardenCampaign, InputMemoryFaultsAreDetected) {
  const auto h = HardenHarness::make();
  const auto hr = harden::harden_module(h.mod, harden::HardenConfig{});
  ASSERT_TRUE(hr.verify_errors.empty());
  const auto prog = vm::DecodedProgram::decode(hr.module);
  const auto sites = fault::enumerate_sites(hr.module, h.rid, 0, {});
  ASSERT_TRUE(sites.region_found);

  std::size_t detected = 0, undetected_wrong = 0;
  for (const auto& site : sites.sites.input) {
    vm::VmOptions opts;
    opts.fault = fault::plan_for_input(sites.sites, site, 62);
    const auto run = vm::Vm::run(prog, opts);
    if (run.trap == vm::TrapKind::DetectedFault) {
      ++detected;
    } else if (run.completed() && run.outputs != h.golden) {
      ++undetected_wrong;
    }
  }
  // The accumulator cell and its shadow are caught; the xs/ys array cells
  // corrupt the increment identically on both sides — the documented ABFT
  // blind spot — and land as plain verification failures.
  EXPECT_GE(detected, 2u);
  EXPECT_GT(undetected_wrong, 0u);
}

// The modeled checkpoint cadence decides recoverability from the detection
// and landing indices alone, so outcome counts are invariant across pool
// sizes and the fork policy.
TEST(HardenCampaign, RecoveryCountsDeterministicAcrossPoolsAndFork) {
  const auto h = HardenHarness::make();
  const auto hr = harden::harden_module(h.mod, harden::HardenConfig{});
  ASSERT_TRUE(hr.verify_errors.empty());
  const auto prog = vm::DecodedProgram::decode(hr.module);
  const auto golden = vm::Vm::run(prog, {});
  const auto sites = fault::enumerate_sites(hr.module, h.rid, 0, {});
  ASSERT_TRUE(sites.region_found);

  fault::CampaignConfig cfg;
  cfg.trials = 128;
  cfg.seed = 0x5EEDull;
  cfg.recovery.enabled = true;
  cfg.recovery.checkpoint_interval = 64;  // tight cadence: both classes occur
  cfg.fork.min_gap = 16;

  std::vector<fault::CampaignResult> results;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const bool fork : {false, true}) {
      auto c = cfg;
      c.fork.enabled = fork;
      util::Scheduler pool(workers);
      results.push_back(fault::run_prepared_campaign(
          prog,
          fault::prepare_campaign(sites, fault::TargetClass::Internal, {}, c),
          golden.outputs, h.verifier, pool));
    }
  }
  const auto& ref = results.front();
  EXPECT_GT(ref.detected_recovered, 0u);
  for (const auto& r : results) {
    EXPECT_EQ(r.trials, ref.trials);
    EXPECT_EQ(r.success, ref.success);
    EXPECT_EQ(r.failed, ref.failed);
    EXPECT_EQ(r.crashed, ref.crashed);
    EXPECT_EQ(r.detected_recovered, ref.detected_recovered);
    EXPECT_EQ(r.detected_unrecoverable, ref.detected_unrecoverable);
  }
}

// What DetectedRecovered promises: the rollback re-execution replays the
// fault-free run, so its outputs are bit-identical to golden. Pin the claim
// directly on a trial whose detector fires.
TEST(HardenCampaign, RecoveredTrialReplaysGoldenBitForBit) {
  const auto h = HardenHarness::make();
  const auto hr = harden::harden_module(h.mod, harden::HardenConfig{});
  ASSERT_TRUE(hr.verify_errors.empty());
  const auto prog = vm::DecodedProgram::decode(hr.module);
  const auto golden = vm::Vm::run(prog, {});
  const auto sites = fault::enumerate_sites(hr.module, h.rid, 0, {});
  fault::CampaignConfig cfg;
  cfg.trials = 192;
  cfg.seed = 0xD07ull;
  const auto prepared =
      fault::prepare_campaign(sites, fault::TargetClass::Internal, {}, cfg);

  std::size_t detected = 0;
  for (const auto& plan : prepared.plans) {
    vm::VmOptions opts = prepared.run_opts;
    opts.fault = plan;
    const auto faulty = vm::Vm::run(prog, opts);
    if (faulty.trap != vm::TrapKind::DetectedFault) continue;
    ++detected;
    // The recovery path re-executes with the fault disarmed (the plan
    // already fired; rollback restores pre-fault state).
    vm::VmOptions clean = prepared.run_opts;
    clean.fault = vm::FaultPlan::none();
    const auto rerun = vm::Vm::run(prog, clean);
    ASSERT_TRUE(rerun.completed());
    ASSERT_EQ(rerun.outputs.size(), golden.outputs.size());
    for (std::size_t i = 0; i < rerun.outputs.size(); ++i) {
      EXPECT_EQ(rerun.outputs[i].bits, golden.outputs[i].bits);
    }
    if (detected >= 4) break;  // a handful is plenty
  }
  EXPECT_GT(detected, 0u);
}

// End-to-end wiring: baseline campaign -> pass -> re-campaign, joined.
TEST(RunHardening, CampaignTransformRecampaign) {
  const auto h = HardenHarness::make();
  fault::CampaignConfig cfg;
  cfg.trials = 96;
  cfg.seed = 0xCAFEull;

  const auto request = core::AnalysisRequest()
                           .app(h.spec)
                           .analysis_regions()
                           .target(fault::TargetClass::Internal)
                           .success_rates(cfg);
  harden::HardenConfig hcfg;
  const auto report = core::run_hardening(request, hcfg);

  ASSERT_EQ(report.apps.size(), 1u);
  const auto& app = report.apps[0];
  EXPECT_EQ(app.app, "dotprod");
  EXPECT_EQ(app.spec.name, "dotprod");
  ASSERT_EQ(app.regions.size(), 1u);
  const auto& row = app.regions[0];
  EXPECT_EQ(row.region_name, "dot");
  EXPECT_GT(row.dwc_sites, 0u);
  EXPECT_EQ(row.abft_cells, 2u);
  EXPECT_GT(row.overhead(), 1.0);
  // Detectors fired in the re-campaign and recovery reclassified some of
  // them; the effective rate must not fall below the guiding baseline
  // measurement minus sampling noise — assert the structural facts only.
  EXPECT_GT(row.detection_rate, 0.0);
  EXPECT_GT(row.hardened_success_rate, 0.0);
  EXPECT_GT(row.baseline_success_rate, 0.0);

  // Both legs really ran as full analyses.
  EXPECT_EQ(report.baseline.entries.size(), 1u);
  EXPECT_EQ(report.hardened.entries.size(), 1u);
  const auto* he = report.hardened.find("dotprod", "dot",
                                        fault::TargetClass::Internal);
  ASSERT_NE(he, nullptr);
  EXPECT_GT(he->campaign.detected_recovered +
                he->campaign.detected_unrecoverable,
            0u);

  // Convenience method spells the same pipeline.
  const auto report2 = request.harden(hcfg);
  ASSERT_EQ(report2.apps.size(), 1u);
  EXPECT_EQ(report2.apps[0].regions[0].detection_rate, row.detection_rate);
}

TEST(RunHardening, RejectsRequestsWithoutBaselineCampaign) {
  const auto h = HardenHarness::make();
  const auto request =
      core::AnalysisRequest().app(h.spec).analysis_regions();
  EXPECT_THROW((void)core::run_hardening(request, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ft
