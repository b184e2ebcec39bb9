// Ablation: value-diff corruption tracking (the paper's approach — compare
// faulty vs fault-free values, §III-D) versus classic dataflow taint
// (what prior instruction-level tools use, §IV-B).
//
// Taint cannot see masking: once a location is tainted, a shift that drops
// the corrupted bits or an addition that washes the error below precision
// still leaves it "corrupted". The ACL built from value comparison is what
// lets FlipTracker observe the Shifting/Truncation/CS patterns at all.
// This bench quantifies that gap per application: taint kill counts have
// no overwrite-with-equal-value deaths, so the alive set stays larger, and
// mask-type pattern sites are invisible.
#include "bench_common.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto samples =
      static_cast<std::size_t>(cli.get_int("samples", cfg.full ? 16 : 6));
  bench::print_header(
      "Ablation - value-diff ACL (paper) vs dataflow taint (prior work)",
      cfg);
  std::printf("samples per app: %zu (--samples=N)\n\n", samples);

  util::Table table({"app", "mode", "max ACL", "overwrite kills",
                     "dead kills", "masked ops seen"});

  for (const std::string name : {"CG", "MG", "IS", "KMEANS", "LULESH"}) {
    core::AnalysisSession session(apps::build_app(name));
    const auto sites = session.whole_program_sites();
    const auto plans = fault::sample_plans(
        *sites, fault::TargetClass::Internal, samples, cfg.seed);

    std::uint64_t vd_max = 0, vd_over = 0, vd_dead = 0, vd_masked = 0;
    std::uint64_t tt_max = 0, tt_over = 0, tt_dead = 0;
    for (const auto& plan : plans) {
      const auto diff = session.column_diff_with(plan);
      const auto events = trace::LocationEvents::build(diff.records());

      // Paper mode: value comparison, with the pattern detectors attached.
      const auto rep = patterns::detect_patterns(diff, events);
      vd_max = std::max<std::uint64_t>(vd_max, rep.acl.max_count);
      vd_over += rep.acl.kills(acl::AclEventKind::KillOverwrite);
      vd_dead += rep.acl.kills(acl::AclEventKind::KillDead);
      vd_masked += rep.count(patterns::PatternKind::Shifting) +
                   rep.count(patterns::PatternKind::Truncation) +
                   rep.count(patterns::PatternKind::ConditionalStatement);

      // Prior-work mode: pure dataflow taint from the injected write.
      if (plan.kind == vm::FaultPlan::Kind::ResultBit &&
          plan.dyn_index < diff.usable_records()) {
        const auto seed_rec = diff.faulty.record(plan.dyn_index);
        if (seed_rec.result_loc != vm::kNoLoc) {
          // The taint sweep reads a DynInstr span: materialize the usable
          // rows from the injection on.
          std::vector<vm::DynInstr> rows;
          rows.reserve(diff.usable_records() - plan.dyn_index);
          for (const vm::DynInstr& r :
               diff.records().slice(plan.dyn_index, diff.usable_records())) {
            rows.push_back(r);
          }
          const auto taint = acl::build_acl_taint(
              rows, events, seed_rec.result_loc, plan.dyn_index);
          tt_max = std::max<std::uint64_t>(tt_max, taint.max_count);
          tt_over += taint.kills(acl::AclEventKind::KillOverwrite);
          tt_dead += taint.kills(acl::AclEventKind::KillDead);
        }
      }
    }
    table.add_row({name, "value-diff", std::to_string(vd_max),
                   std::to_string(vd_over), std::to_string(vd_dead),
                   std::to_string(vd_masked)});
    table.add_row({name, "taint", std::to_string(tt_max),
                   std::to_string(tt_over), std::to_string(tt_dead),
                   "0 (invisible)"});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: taint's alive set peaks higher (no masking deaths) and\n"
      "never surfaces Shifting/Truncation/CS sites - the paper's value-\n"
      "comparison design is what makes those patterns observable.\n");
  return 0;
}
