// Compositional-campaign A/B: exhaustive snapshot-forked trials vs the
// per-section composed engine (src/compose/), cold and warm-incremental.
//
// Three legs. (1) Equivalence sweep: on every application the composed
// engine's outcome counts must be bit-identical to
// fault::run_prepared_campaign on the same prepared plans — the binary
// exits nonzero on any mismatch. (2) Cold composed run of every app
// against an empty artifact store, publishing every section summary.
// (3) Per app, a one-instruction constant edit in the latest-executing
// code, then a warm-incremental run against the same store: untouched
// summary keys must hit, at most a fifth of the cold run's summaries may
// be recomputed, and the counts must equal a from-scratch exhaustive
// campaign on the edited module. Each edited session's golden trace must
// also be edit-proportional: spliced onto the cold run's lineage root
// (store/lineage.h), tracing fewer instructions than the golden run and
// equal to a scratch trace in every column — a count gate, so a silent
// fallback to a full trace fails.
//
// Legs 2 and 3 repeat five times, interleaved; each side's time is its
// best repetition's sum over the apps, and every repetition must do the
// same work (summaries computed and served, sections re-executed,
// instructions retired). The gated ratio is the SUMMARIZATION phase
// (ComposedResult::summarize_seconds): store loads plus per-site boundary
// measurement — the work a warm store collapses. Trial closure
// (close_seconds) is excluded from the gate by design: a trial whose
// suffix runs through the edited code must re-execute for the counts to
// stay exact, so that cost is semantically irreducible, not a caching
// miss. The total-time ratio is printed alongside for honesty.
// scripts/bench_smoke.sh section 9 gates on `compose speedup` >= 5x.
//
//   compose_ab [--trials=N] [--seed=N]
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "bench_common.h"
#include "compose/compose.h"
#include "fault/campaign.h"
#include "fault/sites.h"
#include "store/artifact_store.h"
#include "trace/column.h"
#include "util/scheduler.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace {

using namespace ft;

/// Semantic outcome-count equality (what the faults DID); accounting
/// fields legitimately differ between engines and are not compared.
[[nodiscard]] bool same_counts(const fault::CampaignResult& a,
                               const fault::CampaignResult& b) {
  return a.trials == b.trials && a.success == b.success &&
         a.failed == b.failed && a.crashed == b.crashed &&
         a.detected_recovered == b.detected_recovered &&
         a.detected_unrecoverable == b.detected_unrecoverable &&
         a.population_bits == b.population_bits;
}

inline constexpr std::uint32_t kNoPc = ~std::uint32_t{0};

/// The one-instruction constant tweak (same selection as
/// tests/compose_test.cpp): the LATEST-first-executing f64 immediate whose
/// edit keeps the golden run completing with an unchanged dynamic
/// instruction count. Editing code that only runs late leaves every
/// earlier section's entry state and per-instruction code footprint
/// intact — the shape of edit the incremental path is built for.
[[nodiscard]] std::uint32_t mutate_one_instruction(
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
    if (first == nsec) continue;  // never executed: proves nothing
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
    spec.module = std::move(candidate);
    return c.pc;
  }
  return kNoPc;
}

[[nodiscard]] fault::CampaignResult exhaustive_counts(
    core::AnalysisSession& session, const fault::CampaignConfig& cfg,
    util::Scheduler& pool) {
  const auto prepared = fault::prepare_campaign(
      *session.whole_program_sites(), fault::TargetClass::Internal,
      session.app().base, cfg);
  return fault::run_prepared_campaign(*session.program(), prepared,
                                      session.golden()->outputs,
                                      session.app().verifier, pool);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  bench::print_header(
      "compose A/B - exhaustive vs composed vs warm-incremental", cfg);

  fault::CampaignConfig ccfg;
  ccfg.trials = cfg.trials != 0 ? cfg.trials : 32;
  ccfg.seed = cfg.seed;
  util::Scheduler pool(4);

  // --- leg 1: equivalence sweep, every app --------------------------------
  util::Table table({"app", "sections", "trials", "avoided", "composed ms",
                     "counts"});
  bool all_equal = true;
  for (const auto& name : apps::all_app_names()) {
    core::AnalysisSession session(apps::build_app(name));
    const auto exhaustive = exhaustive_counts(session, ccfg, pool);
    const auto prepared = fault::prepare_campaign(
        *session.whole_program_sites(), fault::TargetClass::Internal,
        session.app().base, ccfg);
    const auto plan = compose::plan_sections(
        *session.program(), *session.golden_trace(),
        *session.region_instances(), prepared);
    util::Stopwatch sw;
    const auto composed = compose::run_composed_campaign(
        *session.program(), prepared, plan, session.golden()->outputs,
        session.app().verifier, pool);
    const double ms = sw.seconds() * 1e3;
    const bool ok = same_counts(composed.counts, exhaustive);
    all_equal = all_equal && ok;
    table.add_row({name, std::to_string(composed.sections_total),
                   std::to_string(composed.counts.trials),
                   std::to_string(composed.trials_avoided),
                   std::to_string(static_cast<int>(ms)),
                   ok ? "OK" : "MISMATCH"});
  }
  table.print(std::cout);
  if (!all_equal) {
    std::printf("\ncompose equivalence: MISMATCH\n");
    return 1;
  }
  std::printf("compose equivalence: OK (all apps)\n\n");

  // --- legs 2+3: cold populate, one-instruction edit, warm-incremental ----
  // Per app, the edit and the exhaustive counts of the edited module are
  // fixed up front. Each repetition then runs every app cold against an
  // empty store and incremental after the edit; repetitions interleave the
  // two sides, and each side's time is its best repetition's sum over the
  // apps — a phase long enough that one descheduled millisecond cannot
  // flip the ratio. The work counts must repeat exactly.
  struct EditedApp {
    std::string name;
    apps::AppSpec pristine;
    apps::AppSpec mutated;
    std::uint32_t pc = kNoPc;
    fault::CampaignResult exhaustive;  // of the mutated module
  };
  std::vector<EditedApp> edited;
  for (const auto& name : apps::all_app_names()) {
    EditedApp e;
    e.name = name;
    e.pristine = apps::build_app(name);
    core::AnalysisSession session(e.pristine);
    const auto prepared = fault::prepare_campaign(
        *session.whole_program_sites(), fault::TargetClass::Internal,
        e.pristine.base, ccfg);
    const auto plan = compose::plan_sections(
        *session.program(), *session.golden_trace(),
        *session.region_instances(), prepared);
    e.mutated = e.pristine;
    e.pc = mutate_one_instruction(e.mutated, *session.program(), plan,
                                  session.golden()->instructions);
    if (e.pc == kNoPc) {
      std::printf("edit: %s has no tweakable f64 constant, skipped\n",
                  name.c_str());
      continue;
    }
    core::AnalysisSession mutated_session(e.mutated);
    e.exhaustive = exhaustive_counts(mutated_session, ccfg, pool);
    edited.push_back(std::move(e));
  }
  if (edited.empty()) {
    std::fprintf(stderr, "no app has a tweakable f64 constant\n");
    return 1;
  }

  /// One repetition's sums over the edited apps.
  struct Rep {
    double cold_summarize = 0, cold_close = 0;
    double inc_summarize = 0, inc_close = 0;
    std::size_t cold_computed = 0, cold_hits = 0;
    std::size_t inc_computed = 0, inc_hits = 0;
    std::uint64_t inc_reexecuted = 0, inc_avoided = 0;
    std::size_t sections = 0;
    std::uint64_t cold_retired = 0, inc_retired = 0;
    bool operator==(const Rep& o) const {  // the work, not the times
      return cold_computed == o.cold_computed && cold_hits == o.cold_hits &&
             inc_computed == o.inc_computed && inc_hits == o.inc_hits &&
             inc_reexecuted == o.inc_reexecuted &&
             inc_avoided == o.inc_avoided && sections == o.sections &&
             cold_retired == o.cold_retired && inc_retired == o.inc_retired;
    }
  };
  constexpr int kReps = 5;
  bool inc_equal = true;
  bool spliced = true;
  bool columns_equal = true;
  std::uint64_t traced = 0;
  std::uint64_t golden_instrs = 0;
  std::vector<Rep> reps;
  for (int r = 0; r < kReps; ++r) {
    std::string templ =
        (std::filesystem::temp_directory_path() / "ft_compose_ab_XXXXXX")
            .string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    const std::string store_dir = buf.data();
    auto store = std::make_shared<store::ArtifactStore>(store_dir + "/store");
    Rep rep;
    for (const auto& e : edited) {
      auto cold_session = std::make_shared<core::AnalysisSession>(e.pristine);
      cold_session->attach_store(store);
      const auto cold = cold_session->run_compositional(ccfg);
      auto inc_session = std::make_shared<core::AnalysisSession>(e.mutated);
      inc_session->attach_store(store);
      const auto inc = inc_session->run_compositional(ccfg);
      rep.cold_summarize += cold.summarize_seconds;
      rep.cold_close += cold.close_seconds;
      rep.inc_summarize += inc.summarize_seconds;
      rep.inc_close += inc.close_seconds;
      rep.cold_computed += cold.summaries_computed;
      rep.cold_hits += cold.summary_store_hits;
      rep.inc_computed += inc.summaries_computed;
      rep.inc_hits += inc.summary_store_hits;
      rep.inc_reexecuted += inc.sections_reexecuted;
      rep.inc_avoided += inc.trials_avoided;
      rep.sections += inc.sections_total;
      rep.cold_retired += cold.counts.instructions_retired;
      rep.inc_retired += inc.counts.instructions_retired;
      // Identity: the incremental counts equal a from-scratch exhaustive
      // campaign on the edited module.
      inc_equal = inc_equal && same_counts(inc.counts, e.exhaustive);
      if (r > 0) continue;
      // Edit-proportional golden trace: the edited session spliced its
      // trace onto the cold session's lineage root — tracing only the rows
      // from the edit's first execution on — and the spliced trace equals
      // a from-scratch traced run of the edited module in every column.
      // Gated on counts, so a silent fallback to a full traced run fails.
      const std::uint64_t instrs = inc_session->golden()->instructions;
      const std::uint64_t inc_traced =
          inc_session->traced_instructions_executed();
      trace::ColumnTrace scratch(inc_session->program());
      {
        vm::VmOptions opts = e.mutated.base;
        opts.column_sink = &scratch;
        (void)vm::Vm::run(*inc_session->program(), opts);
      }
      const auto a = inc_session->golden_trace()->raw();
      const auto b = scratch.raw();
      const auto same = [](const void* x, const void* y, std::size_t n) {
        return n == 0 || std::memcmp(x, y, n) == 0;
      };
      const bool equal =
          a.rows == b.rows && a.ops == b.ops && a.num_extras == b.num_extras &&
          same(a.pc, b.pc, 4 * a.rows) &&
          same(a.activation, b.activation, 4 * a.rows) &&
          same(a.ops_offset, b.ops_offset, 4 * a.rows) &&
          same(a.result_bits, b.result_bits, 8 * a.rows) &&
          same(a.op_bits, b.op_bits, 8 * a.ops) &&
          same(a.extras, b.extras, 24 * a.num_extras);
      columns_equal = columns_equal && equal;
      spliced = spliced && equal && inc_traced < instrs;
      traced += inc_traced;
      golden_instrs += instrs;
    }
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
    reps.push_back(rep);
  }

  const auto best = [&](double Rep::*field) {
    double b = reps[0].*field;
    for (const auto& rep : reps) b = std::min(b, rep.*field);
    return b;
  };
  const double cold_summarize = best(&Rep::cold_summarize);
  const double inc_summarize = best(&Rep::inc_summarize);
  const double cold_total = best(&Rep::cold_close) + cold_summarize;
  const double inc_total = best(&Rep::inc_close) + inc_summarize;
  const Rep& work = reps[0];
  const bool repeatable =
      std::all_of(reps.begin(), reps.end(),
                  [&](const Rep& rep) { return rep == work; });
  // Incrementality: untouched summary keys hit the store; only affected
  // sections re-summarize — at most a fifth of the cold run's summaries.
  const bool incremental = work.inc_hits > 0 &&
                           5 * work.inc_computed <= work.cold_computed &&
                           work.inc_reexecuted < work.sections;

  std::printf("edit: the latest-executing f64 constant of %zu apps\n",
              edited.size());
  std::printf("splice: traced %llu of %llu golden instructions, columns %s\n",
              static_cast<unsigned long long>(traced),
              static_cast<unsigned long long>(golden_instrs),
              columns_equal ? "identical" : "DIFFER");
  std::printf("cold: summarize %8.2f ms + close %8.2f ms  "
              "(%zu summaries computed, %zu hits, %llu instr retired)\n",
              cold_summarize * 1e3, best(&Rep::cold_close) * 1e3,
              work.cold_computed, work.cold_hits,
              static_cast<unsigned long long>(work.cold_retired));
  std::printf("inc:  summarize %8.2f ms + close %8.2f ms  "
              "(%zu summaries computed, %zu hits, %llu of %zu sections "
              "re-executed, %llu trials avoided, %llu instr retired)\n",
              inc_summarize * 1e3, best(&Rep::inc_close) * 1e3,
              work.inc_computed, work.inc_hits,
              static_cast<unsigned long long>(work.inc_reexecuted),
              work.sections, static_cast<unsigned long long>(work.inc_avoided),
              static_cast<unsigned long long>(work.inc_retired));
  std::printf("work: %s across %d interleaved repetitions (times are each "
              "side's best)\n",
              repeatable ? "identical" : "VARIES", kReps);
  std::printf("identity: %s; incremental: %s\n",
              inc_equal ? "OK" : "MISMATCH",
              incremental ? "OK" : "VIOLATED");
  std::printf("total-time ratio: %.2fx (suffix re-execution through the "
              "edit is semantically required and not gated)\n",
              inc_total > 0 ? cold_total / inc_total : 0.0);
  std::printf("compose speedup: %.2fx\n",
              cold_summarize / std::max(inc_summarize, 1e-6));

  if (!spliced) {
    std::printf("edit-proportional trace: VIOLATED (%s)\n",
                columns_equal ? "an edited session traced the full run"
                              : "spliced columns differ from a scratch trace");
  }
  return (all_equal && inc_equal && incremental && spliced && repeatable)
             ? 0
             : 1;
}
