// Persistent-store A/B: cold vs warm run_analysis on the same request.
//
// The cold run starts from an empty artifact store and computes everything
// — golden run, columnar trace, site enumerations, every campaign — while
// publishing each artifact as it is produced. The warm run replays the
// IDENTICAL request against the now-populated store: the golden result and
// trace come back via zero-copy mmap, the enumerations and campaign
// outcome counts via content-addressed blobs, and nothing is re-executed.
// The report's proof counters make "nothing" checkable, not vibes:
// trials_executed == 0 and golden_traced_instructions == 0 on the warm
// side, with identical outcome counts on both sides. The binary exits
// nonzero if the warm run executed any work or any count diverges;
// scripts/bench_smoke.sh section 6 gates on warm wall-clock >= 5x faster.
//
// A second leg re-runs an edited module warm. One store holds the edit as
// a derived trace spliced onto the pristine module's lineage root
// (store/lineage.h: the root's prefix is copied and the suffix appended on
// every load); the other holds the same edit as its own full segment
// (mmap, no copy), the only form a store had before lineage roots. The
// binary exits nonzero if either warm re-run executed work or their counts
// differ; the two times are printed, not gated.
//
//   store_warm_ab [--trials=N] [--seed=N] [--app=NAME] [--reps=N]
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "store/artifact_store.h"

namespace {

using namespace ft;

/// `spec` with its latest-first-executing f64 constant edited the way
/// bench/compose_ab.cpp edits it.
apps::AppSpec edit_latest_constant(const apps::AppSpec& spec) {
  core::AnalysisSession session(spec);
  const auto trace = session.golden_trace();
  const auto cols = trace->raw();
  const auto* code = session.program()->code();
  const std::uint32_t n = session.program()->code_size();
  std::vector<std::uint64_t> first(n, cols.rows);
  for (std::uint64_t r = cols.rows; r-- > 0;) first[cols.pc[r]] = r;
  std::uint32_t pc = 0;
  std::uint64_t latest = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    const auto& ins = spec.module.function(code[p].func)
                          .blocks[code[p].block]
                          .instrs[code[p].instr];
    const bool immf = std::any_of(ins.ops.begin(), ins.ops.end(), [](auto& o) {
      return o.kind == ir::OperandKind::ImmF;
    });
    if (immf && first[p] < cols.rows && first[p] >= latest) {
      pc = p;
      latest = first[p];
    }
  }
  auto out = spec;
  for (auto& op : out.module.function(code[pc].func)
                      .blocks[code[pc].block]
                      .instrs[code[pc].instr]
                      .ops) {
    if (op.kind == ir::OperandKind::ImmF) {
      op.imm_f = op.imm_f * 1.0009765625 + 0.0009765625;
    }
  }
  return out;
}

/// Best-of-`reps` warm whole-app request and golden-trace fetch of `spec`
/// against the store at `dir`.
struct WarmRerun {
  double request_ms = 1e30;
  double trace_ms = 1e30;
  core::AnalysisReport report;
  std::uint64_t fetch_traced = 0;  // instructions traced by the fetches
};

WarmRerun warm_rerun(const apps::AppSpec& spec, const std::string& dir,
                     const fault::CampaignConfig& cfg, int reps) {
  WarmRerun out;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch sw;
    auto rep = core::run_analysis(
        core::AnalysisRequest().app(spec).app_campaign(cfg).store_dir(dir));
    const double ms = sw.seconds() * 1e3;
    if (ms < out.request_ms) {
      out.request_ms = ms;
      out.report = std::move(rep);
    }
    auto st = std::make_shared<store::ArtifactStore>(dir);
    core::AnalysisSession session(spec);
    session.attach_store(st);
    sw.reset();
    (void)session.golden_trace();
    out.trace_ms = std::min(out.trace_ms, sw.seconds() * 1e3);
    out.fetch_traced += session.traced_instructions_executed();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto name = cli.get("app", "CG");
  const auto reps = static_cast<int>(cli.get_int("reps", 3));
  bench::print_header("store A/B - cold compute vs warm artifact replay",
                      cfg);

  // Build the app once outside the measured region; both sides pay only
  // decode + analysis, which is exactly what the store can or cannot skip.
  const auto spec = apps::build_app(name);
  std::string store_dir;
  {
    std::string templ =
        (std::filesystem::temp_directory_path() / "ft_warm_ab_XXXXXX")
            .string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    store_dir = buf.data();
  }
  const auto request = [&] {
    return core::AnalysisRequest()
        .app(spec)
        .analysis_regions()
        .target(fault::TargetClass::Internal)
        .target(fault::TargetClass::Input)
        .success_rates(cfg.campaign(60))
        .app_campaign(cfg.campaign(40))
        .store_dir(store_dir + "/store");
  };

  util::Stopwatch sw;
  const auto cold = core::run_analysis(request());
  const double cold_s = sw.seconds();

  // Best-of-reps for the warm side: it is fast enough that a scheduler
  // hiccup would otherwise dominate the ratio.
  double warm_s = 1e30;
  core::AnalysisReport warm;
  for (int r = 0; r < reps; ++r) {
    sw.reset();
    auto rep = core::run_analysis(request());
    const double s = sw.seconds();
    if (s < warm_s) {
      warm_s = s;
      warm = std::move(rep);
    }
  }

  std::printf("app: %s, %zu campaign units cold, %zu trials\n", name.c_str(),
              cold.campaign_units, cold.total_trials);
  std::printf("cold: %8.1f ms  (%zu trials executed, %llu traced instr, "
              "%llu store bytes written)\n",
              cold_s * 1e3, cold.trials_executed,
              static_cast<unsigned long long>(cold.golden_traced_instructions),
              static_cast<unsigned long long>(cold.store_bytes_written));
  std::printf("warm: %8.1f ms  (%zu trials executed, %llu traced instr, "
              "%zu campaigns from store, %llu hits / %llu misses)\n",
              warm_s * 1e3, warm.trials_executed,
              static_cast<unsigned long long>(warm.golden_traced_instructions),
              warm.campaigns_from_store,
              static_cast<unsigned long long>(warm.store_hits),
              static_cast<unsigned long long>(warm.store_misses));
  std::printf("warm speedup: %.2fx\n", cold_s / warm_s);

  // Identity: every outcome count the analysis reports must be
  // bit-identical between the computed and the replayed run.
  bool identical = cold.entries.size() == warm.entries.size() &&
                   cold.total_trials == warm.total_trials;
  for (std::size_t i = 0; identical && i < cold.entries.size(); ++i) {
    const auto& a = cold.entries[i].campaign;
    const auto& b = warm.entries[i].campaign;
    identical = a.trials == b.trials && a.success == b.success &&
                a.failed == b.failed && a.crashed == b.crashed &&
                a.population_bits == b.population_bits;
  }
  if (identical && cold.apps.size() == 1 && warm.apps.size() == 1 &&
      cold.apps[0].whole_app.has_value() &&
      warm.apps[0].whole_app.has_value()) {
    const auto& a = *cold.apps[0].whole_app;
    const auto& b = *warm.apps[0].whole_app;
    identical = a.trials == b.trials && a.success == b.success &&
                a.failed == b.failed && a.crashed == b.crashed;
  }
  const bool warm_idle =
      warm.trials_executed == 0 && warm.golden_traced_instructions == 0 &&
      warm.campaigns_from_store > 0 && warm.store_hits > 0;
  std::printf("identity: %s; warm executed nothing: %s\n",
              identical ? "OK" : "MISMATCH", warm_idle ? "OK" : "VIOLATED");

  const store::ArtifactStore st(store_dir + "/store");
  const auto stats = st.disk_stats();
  const auto hit_total = warm.store_hits + warm.store_misses;
  std::printf("store stats: entries=%llu bytes=%llu hit_rate=%.1f%%\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes),
              hit_total == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(warm.store_hits) /
                        static_cast<double>(hit_total));

  // --- leg 2: warm re-run of an edited module, derived vs full segment ----
  const auto edited = edit_latest_constant(spec);
  const auto campaign = cfg.campaign(40);
  const std::string derived_dir = store_dir + "/derived";
  const std::string full_dir = store_dir + "/full";
  const auto cold_request = [&](const apps::AppSpec& s, const std::string& d) {
    return core::run_analysis(
        core::AnalysisRequest().app(s).app_campaign(campaign).store_dir(d));
  };
  (void)cold_request(spec, derived_dir);  // the lineage root
  const auto spliced = cold_request(edited, derived_dir);
  const auto full = cold_request(edited, full_dir);
  const auto via_derived = warm_rerun(edited, derived_dir, campaign, reps);
  const auto via_full = warm_rerun(edited, full_dir, campaign, reps);
  const auto& a = *via_derived.report.apps.at(0).whole_app;
  const auto& b = *via_full.report.apps.at(0).whole_app;
  const bool edit_identical = a.trials == b.trials && a.success == b.success &&
                              a.failed == b.failed && a.crashed == b.crashed;
  const bool edit_idle = via_derived.report.trials_executed == 0 &&
                         via_derived.report.golden_traced_instructions == 0 &&
                         via_derived.fetch_traced == 0 &&
                         via_full.report.trials_executed == 0 &&
                         via_full.report.golden_traced_instructions == 0 &&
                         via_full.fetch_traced == 0;
  std::printf("edited re-run: cold traced %llu (spliced) vs %llu (full) "
              "instr\n",
              static_cast<unsigned long long>(
                  spliced.golden_traced_instructions),
              static_cast<unsigned long long>(full.golden_traced_instructions));
  std::printf("edited re-run warm: request %.2f ms (derived) vs %.2f ms "
              "(full segment); golden trace fetch %.2f ms vs %.2f ms\n",
              via_derived.request_ms, via_full.request_ms,
              via_derived.trace_ms, via_full.trace_ms);
  std::printf("edited re-run: identity: %s; warm executed nothing: %s\n",
              edit_identical ? "OK" : "MISMATCH",
              edit_idle ? "OK" : "VIOLATED");

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  return identical && warm_idle && edit_identical && edit_idle ? 0 : 1;
}
