// Columnar-substrate equivalence coverage.
//
// Two pins, each against the array-of-structs reference:
//  * ColumnTrace/TraceView from the decoded engine vs the Trace the legacy
//    engine's observer collects — record-by-record bit-identical for all
//    ten workloads, clean, faulted and trapping (the direct-emit hot loop
//    must roll back the partial record of an instruction that traps
//    mid-flight);
//  * the CSR LocationEvents vs the legacy map-of-vectors builder —
//    query-by-query identical over every touched location.
// The lockstep diff is pinned against plain traced runs in acl_test.
#include <gtest/gtest.h>

#include <sstream>

#include "acl/diff.h"
#include "acl/table.h"
#include "apps/app.h"
#include "core/analysis.h"
#include "patterns/detect.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/events.h"
#include "trace/segment.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

std::string describe(const vm::DynInstr& d) {
  std::ostringstream os;
  os << "index=" << d.index << " op=" << ir::opcode_name(d.op)
     << " func=" << d.func << " block=" << d.block << " instr=" << d.instr
     << " result_bits=" << d.result_bits << " result_loc=" << d.result_loc
     << " op_loc=[" << d.op_loc[0] << "," << d.op_loc[1] << "," << d.op_loc[2]
     << "]";
  return os.str();
}

/// Run the app once on the legacy engine through the observer path (legacy
/// Trace) and once on the decoded engine through the direct-emit columnar
/// path; require identical run results and a bit-identical record stream.
void expect_traces_identical(const apps::AppSpec& app,
                             const std::shared_ptr<const vm::DecodedProgram>&
                                 prog,
                             const vm::VmOptions& base) {
  trace::TraceCollector collector;
  vm::VmOptions legacy_opts = base;
  legacy_opts.observer = &collector;
  const auto legacy_run = vm::Vm::run(app.module, legacy_opts);

  trace::ColumnTrace columnar(prog);
  vm::VmOptions col_opts = base;
  col_opts.column_sink = &columnar;
  const auto col_run = vm::Vm::run(*prog, col_opts);

  EXPECT_EQ(legacy_run.trap, col_run.trap);
  EXPECT_EQ(legacy_run.instructions, col_run.instructions);
  EXPECT_EQ(legacy_run.fault_fired, col_run.fault_fired);
  EXPECT_TRUE(legacy_run.outputs == col_run.outputs);

  const auto& records = collector.trace().records;
  ASSERT_EQ(records.size(), columnar.size());
  std::uint64_t mismatches = 0;
  std::size_t i = 0;
  for (const vm::DynInstr& r : columnar.view()) {
    if (records[i] != r && mismatches++ < 5) {
      ADD_FAILURE() << "record mismatch at " << i
                    << ":\n  legacy  : " << describe(records[i])
                    << "\n  columnar: " << describe(r);
    }
    ++i;
  }
  EXPECT_EQ(mismatches, 0u);

  // The point of the substrate: records must be materially smaller.
  if (!columnar.empty()) {
    EXPECT_LT(columnar.bytes_per_record(),
              static_cast<double>(sizeof(vm::DynInstr)) / 3.0);
  }
}

class ColumnTraceEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ColumnTraceEquivalence, CleanFaultedAndTrappingRuns) {
  const auto app = apps::build_app(GetParam());
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  // Clean.
  expect_traces_identical(app, prog, app.base);

  // Mid-run register-commit flip (exercises the Load pre-flip escape when
  // the flip lands on a load).
  vm::VmOptions faulted = app.base;
  faulted.fault = vm::FaultPlan::result_bit(/*dyn_index=*/40000, /*bit=*/40);
  expect_traces_identical(app, prog, faulted);

  // High-bit flip that often traps (OutOfBounds / hang): the columnar
  // stream must end exactly where the observer stream ends.
  vm::VmOptions crashy = app.base;
  crashy.fault = vm::FaultPlan::result_bit(/*dyn_index=*/5000, /*bit=*/62);
  crashy.max_instructions = 400000;
  expect_traces_identical(app, prog, crashy);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ColumnTraceEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- Resumed segmentation -------------------------------------------------------

TEST(SegmentRegions, ResumingFromAnEarlierSegmentationMatchesTheFullPass) {
  // Segmenting a trace from its own instances at any shared row — before
  // the first marker, inside nested instances, on a marker row, at the
  // end — equals the full pass, and instances that do not describe the
  // trace's prefix fall back to it.
  for (const char* name : {"CG", "MG", "LULESH"}) {
    SCOPED_TRACE(name);
    const auto app = apps::build_app(name);
    const auto prog = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(app.module));
    trace::ColumnTrace columnar(prog);
    vm::VmOptions opts = app.base;
    opts.column_sink = &columnar;
    (void)vm::Vm::run(*prog, opts);
    const auto full = trace::segment_regions(columnar);
    ASSERT_GT(full.size(), 2u);
    std::vector<std::uint64_t> rows = {0, 1, columnar.size() / 3,
                                       columnar.size() - 1, columnar.size(),
                                       columnar.size() + 5};
    for (const auto& i : full) {
      rows.push_back(i.enter_index);
      rows.push_back(i.enter_index + 1);
      rows.push_back(i.exit_index);
      rows.push_back(i.exit_index + 1);
    }
    for (const auto r : rows) {
      ASSERT_EQ(trace::segment_regions(columnar, full, r), full) << r;
    }
    // Out of entry order, or claiming to close after the resume row.
    auto swapped = full;
    std::swap(swapped[0], swapped[1]);
    EXPECT_EQ(trace::segment_regions(columnar, swapped, columnar.size()), full);
    const auto open = std::find_if(full.begin() + 1, full.end(), [&](auto& i) {
      return i.enter_index > full[0].enter_index && i.body_length() > 4;
    });
    ASSERT_NE(open, full.end());
    auto late = full;
    late[0].exit_index = open->enter_index + 1;
    EXPECT_EQ(trace::segment_regions(columnar, late, open->enter_index + 3),
              full);
  }
}

// --- TraceView slicing ---------------------------------------------------------

TEST(TraceView, SlicesMatchLegacySlices) {
  const auto app = apps::build_cg();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  trace::TraceCollector collector;
  vm::VmOptions lopts = app.base;
  lopts.observer = &collector;
  (void)vm::Vm::run(app.module, lopts);

  trace::ColumnTrace columnar(prog);
  vm::VmOptions copts = app.base;
  copts.column_sink = &columnar;
  (void)vm::Vm::run(*prog, copts);

  const auto instances = trace::segment_regions(columnar);
  ASSERT_EQ(instances, trace::segment_regions(collector.trace().span()));
  ASSERT_FALSE(instances.empty());
  for (const auto& inst : instances) {
    const auto legacy =
        collector.trace().slice(inst.body_begin(), inst.body_end());
    const auto view = columnar.slice(inst.body_begin(), inst.body_end());
    ASSERT_EQ(legacy.size(), view.size());
    std::size_t i = 0;
    for (const vm::DynInstr& r : view) {
      ASSERT_TRUE(legacy[i] == r) << "slice record " << i;
      ++i;
    }
  }
}

// --- CSR LocationEvents vs the legacy map builder ------------------------------

TEST(LocationEventsCsr, QueryByQueryMatchesLegacyMap) {
  const auto app = apps::build_lulesh();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));
  trace::ColumnTrace columnar(prog);
  vm::VmOptions opts = app.base;
  opts.column_sink = &columnar;
  (void)vm::Vm::run(*prog, opts);

  // Build the CSR index from the columnar view and the reference from the
  // same (materialized) records.
  const auto csr = trace::LocationEvents::build(columnar.view());
  std::vector<vm::DynInstr> records;
  records.reserve(columnar.size());
  for (const vm::DynInstr& r : columnar.view()) records.push_back(r);
  const auto legacy = trace::LegacyLocationEvents::build(records);

  ASSERT_EQ(csr.num_locations(), legacy.num_locations());

  // Every touched location, probed at its event indices and around them.
  std::size_t probes = 0;
  for (const auto& r : records) {
    vm::Location locs[4] = {r.result_loc, r.op_loc[0], r.op_loc[1],
                            r.op_loc[2]};
    for (const auto loc : locs) {
      if (loc == vm::kNoLoc) continue;
      for (const std::uint64_t at :
           {r.index == 0 ? 0 : r.index - 1, r.index, r.index + 1}) {
        ASSERT_EQ(csr.next_read_after(loc, at),
                  legacy.next_read_after(loc, at))
            << "loc " << vm::loc_to_string(loc) << " at " << at;
        ASSERT_EQ(csr.next_write_after(loc, at),
                  legacy.next_write_after(loc, at));
        ASSERT_EQ(csr.touched_after(loc, at), legacy.touched_after(loc, at));
        ASSERT_EQ(csr.read_before_overwrite_after(loc, at),
                  legacy.read_before_overwrite_after(loc, at));
        probes++;
      }
    }
    if (probes > 400000) break;  // plenty of coverage, bounded runtime
  }
  EXPECT_GT(probes, 1000u);

  // Untouched locations answer "nothing" in both.
  const vm::Location ghost = vm::reg_loc(0xABCDEF, 7);
  EXPECT_EQ(csr.next_read_after(ghost, 0), trace::LocationEvents::kNoIndex);
  EXPECT_FALSE(csr.touched_after(ghost, 0));
}

// --- session integration -------------------------------------------------------

TEST(SessionColumnar, GoldenArtifactsAgreeWithObserverPipeline) {
  core::AnalysisSession session(apps::build_cg());
  const auto& spec = session.app();
  const auto tr = session.golden_trace();
  EXPECT_EQ(tr->size(), session.golden()->instructions);

  // The session's columnar artifacts equal a from-scratch observer-path
  // enumeration (enumerate_sites runs the legacy engine + legacy trace).
  for (const auto& rd : spec.analysis_regions) {
    const auto columnar = session.region_sites(rd.id, 0);
    const auto reference =
        fault::enumerate_sites(spec.module, rd.id, 0, spec.base);
    ASSERT_EQ(columnar->region_found, reference.region_found) << rd.name;
    ASSERT_EQ(columnar->sites.internal.size(),
              reference.sites.internal.size());
    EXPECT_EQ(columnar->sites.internal_bits(),
              reference.sites.internal_bits());
    ASSERT_EQ(columnar->sites.input.size(), reference.sites.input.size());
    for (std::size_t i = 0; i < columnar->sites.input.size(); ++i) {
      EXPECT_EQ(columnar->sites.input[i].address,
                reference.sites.input[i].address);
    }
  }
}

TEST(SessionColumnar, PatternsForRegionInputFaultSeedsColumnarScan) {
  core::AnalysisSession session(apps::build_lulesh());
  const auto& app = session.app();
  const auto xd = app.module.global(*app.module.find_global("xd"));
  const auto plan = vm::FaultPlan::region_input_bit(app.main_region, 2,
                                                    xd.addr + 13 * 8, 8, 45);
  const auto report = session.patterns_for(plan);
  // The seeded ACL sweep found the corruption (first corruption at or
  // before the first differing write).
  EXPECT_NE(report.acl.first_corruption_index, acl::kNoIndex);
  EXPECT_FALSE(report.acl.events.empty());
}

}  // namespace
}  // namespace ft
