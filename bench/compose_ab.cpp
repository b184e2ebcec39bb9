// Compositional-campaign A/B: exhaustive snapshot-forked trials vs the
// per-section composed engine (src/compose/), cold and warm-incremental.
//
// Three legs. (1) Equivalence sweep: on every application the composed
// engine's outcome counts must be bit-identical to
// fault::run_prepared_campaign on the same prepared plans — the binary
// exits nonzero on any mismatch. (2) Cold composed run on the designated
// app (CG) against an empty artifact store, publishing every section
// summary. (3) One-instruction constant edit in the latest-executing code,
// then a warm-incremental run against the same store: untouched summary
// keys must hit, only affected sections may re-summarize, and the counts
// must equal a from-scratch exhaustive campaign on the edited module.
// The edited session's golden trace must also be edit-proportional: spliced
// onto the cold run's lineage root (store/lineage.h), tracing fewer
// instructions than the golden run and equal to a scratch trace in every
// column — a count gate, so a silent fallback to a full trace fails.
//
// The gated ratio is the SUMMARIZATION phase (ComposedResult::
// summarize_seconds): store loads plus per-site boundary measurement —
// the work a warm store collapses. Trial closure (close_seconds) is
// excluded from the gate by design: a trial whose suffix runs through the
// edited code must re-execute for the counts to stay exact, so that cost
// is semantically irreducible, not a caching miss. The total-time ratio
// is printed alongside for honesty. scripts/bench_smoke.sh section 9
// gates on `compose speedup` >= 5x.
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
  const std::string app_name = "CG";
  std::string store_dir;
  {
    std::string templ =
        (std::filesystem::temp_directory_path() / "ft_compose_ab_XXXXXX")
            .string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    store_dir = buf.data();
  }
  auto store = std::make_shared<store::ArtifactStore>(store_dir + "/store");

  auto app = apps::build_app(app_name);
  auto cold_session = std::make_shared<core::AnalysisSession>(app);
  cold_session->attach_store(store);
  const auto cold = cold_session->run_compositional(ccfg);
  const double cold_total = cold.summarize_seconds + cold.close_seconds;

  // The edit: replicate the engine's section decomposition on the pristine
  // module, then tweak the latest-executing f64 constant.
  const auto pristine = fault::prepare_campaign(
      *cold_session->whole_program_sites(), fault::TargetClass::Internal,
      app.base, ccfg);
  const auto plan = compose::plan_sections(
      *cold_session->program(), *cold_session->golden_trace(),
      *cold_session->region_instances(), pristine);
  auto mutated = app;
  const auto pc = mutate_one_instruction(mutated, *cold_session->program(),
                                         plan,
                                         cold_session->golden()->instructions);
  if (pc == kNoPc) {
    std::fprintf(stderr, "no tweakable f64 constant in %s\n",
                 app_name.c_str());
    return 1;
  }

  auto inc_session = std::make_shared<core::AnalysisSession>(mutated);
  inc_session->attach_store(store);
  const auto inc = inc_session->run_compositional(ccfg);
  const double inc_total = inc.summarize_seconds + inc.close_seconds;

  // Identity: the incremental counts must equal a from-scratch exhaustive
  // campaign on the edited module.
  const auto inc_exhaustive = exhaustive_counts(*inc_session, ccfg, pool);
  const bool inc_equal = same_counts(inc.counts, inc_exhaustive);
  // Incrementality: untouched summary keys hit the store; only affected
  // sections re-summarize.
  const bool incremental = inc.summary_store_hits > 0 &&
                           inc.summaries_computed < cold.summaries_computed &&
                           inc.sections_reexecuted < inc.sections_total;

  // Edit-proportional golden trace: the edited session must have spliced
  // its trace onto the cold session's lineage root — tracing only the rows
  // from the edit's first execution on — and the spliced trace must equal
  // a from-scratch traced run of the edited module in every column. Gated
  // on counts, so a silent fallback to a full traced run fails here.
  const std::uint64_t inc_instrs = inc_session->golden()->instructions;
  const std::uint64_t inc_traced = inc_session->traced_instructions_executed();
  trace::ColumnTrace scratch(inc_session->program());
  {
    vm::VmOptions opts = mutated.base;
    opts.column_sink = &scratch;
    (void)vm::Vm::run(*inc_session->program(), opts);
  }
  const auto a = inc_session->golden_trace()->raw();
  const auto b = scratch.raw();
  const auto same = [](const void* x, const void* y, std::size_t n) {
    return n == 0 || std::memcmp(x, y, n) == 0;
  };
  const bool columns_equal =
      a.rows == b.rows && a.ops == b.ops && a.num_extras == b.num_extras &&
      same(a.pc, b.pc, 4 * a.rows) &&
      same(a.activation, b.activation, 4 * a.rows) &&
      same(a.ops_offset, b.ops_offset, 4 * a.rows) &&
      same(a.result_bits, b.result_bits, 8 * a.rows) &&
      same(a.op_bits, b.op_bits, 8 * a.ops) &&
      same(a.extras, b.extras, 24 * a.num_extras);
  const bool spliced = inc_traced < inc_instrs && columns_equal;

  std::printf("edit: %s pc %u (latest-executing f64 constant)\n",
              app_name.c_str(), pc);
  std::printf("splice: traced %llu of %llu golden instructions, columns %s\n",
              static_cast<unsigned long long>(inc_traced),
              static_cast<unsigned long long>(inc_instrs),
              columns_equal ? "identical" : "DIFFER");
  std::printf("cold: summarize %8.2f ms + close %8.2f ms  "
              "(%zu summaries computed, %zu hits)\n",
              cold.summarize_seconds * 1e3, cold.close_seconds * 1e3,
              cold.summaries_computed, cold.summary_store_hits);
  std::printf("inc:  summarize %8.2f ms + close %8.2f ms  "
              "(%zu summaries computed, %zu hits, %llu of %zu sections "
              "re-executed, %llu trials avoided)\n",
              inc.summarize_seconds * 1e3, inc.close_seconds * 1e3,
              inc.summaries_computed, inc.summary_store_hits,
              static_cast<unsigned long long>(inc.sections_reexecuted),
              inc.sections_total,
              static_cast<unsigned long long>(inc.trials_avoided));
  std::printf("identity: %s; incremental: %s\n",
              inc_equal ? "OK" : "MISMATCH",
              incremental ? "OK" : "VIOLATED");
  std::printf("total-time ratio: %.2fx (suffix re-execution through the "
              "edit is semantically required and not gated)\n",
              inc_total > 0 ? cold_total / inc_total : 0.0);
  std::printf("compose speedup: %.2fx\n",
              cold.summarize_seconds /
                  std::max(inc.summarize_seconds, 1e-6));

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  if (!spliced) {
    std::printf("edit-proportional trace: VIOLATED (%s)\n",
                columns_equal ? "the edited session traced the full run"
                              : "spliced columns differ from a scratch trace");
  }
  return (all_equal && inc_equal && incremental && spliced) ? 0 : 1;
}
