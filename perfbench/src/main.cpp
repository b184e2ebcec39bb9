// The repository benchmark: one closed-loop client runs one workload
// against the library's public entry points and prints its metrics.
//
//   ftbench --workload sweep|explain|edit-loop --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--trace-out FILE]
//
// --trace 0 (the end-to-end run): set up several times and report the
// median set-up time, then run requests for S seconds (and at least 100, so
// p90 has 10 samples beyond it) up to the end of a round of the request
// mix, then check every request against its oracle outside the timed
// window.
//
// --trace 1 (the layer-by-layer traced run): set up and run every request
// kind, the named one first, with a span around each call into a layer;
// prints the per-layer metrics and writes the spans as Chrome trace-event
// JSON to --trace-out.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinRequests = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir = ".bench_build/work";
  std::filesystem::path trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Factory = std::unique_ptr<Workload> (*)(Context&);

[[nodiscard]] Factory factory(const std::string& name) {
  if (name == "sweep") return make_sweep;
  if (name == "explain") return make_explain;
  if (name == "edit-loop") return make_edit_loop;
  return nullptr;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && factory(a.workload) != nullptr && a.seconds > 0;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_table(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

[[nodiscard]] double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// Worker count: two, plus the client, stays within four CPUs; smaller
/// hosts get one worker.
[[nodiscard]] std::size_t worker_count() { return online_cpus() >= 3 ? 2 : 1; }

/// Runs `fn`, returning false (and logging) if it throws.
bool guarded(const char* what, std::size_t index, const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s %zu failed: %s\n", what, index, e.what());
    return false;
  }
}

/// Oracle checks of requests [first, end) or of `indices`; returns the
/// number that matched.
std::size_t check_all(Workload& w, const std::vector<std::size_t>& indices) {
  std::size_t ok = 0;
  for (const std::size_t i : indices) {
    bool match = false;
    guarded("check", i, [&] { match = w.check(i); });
    ok += match ? 1 : 0;
  }
  return ok;
}

std::size_t check_all(Workload& w, std::size_t first, std::size_t end) {
  std::vector<std::size_t> indices(end - first);
  std::iota(indices.begin(), indices.end(), first);
  return check_all(w, indices);
}

// --- end-to-end run -------------------------------------------------------------

int run_end_to_end(const Args& a) {
  ft::util::Scheduler sched(worker_count());
  Tracer tracer(false);
  Layers layers;
  Context ctx{sched, a.seed, a.work_dir, tracer, layers};
  const Factory make = factory(a.workload);

  // Set-up, several times: app builds, sessions, golden artifacts and one
  // warm-up round of the request mix. The last instance is kept.
  std::vector<double> setup_ms;
  std::unique_ptr<Workload> w;
  for (std::size_t k = 0; k < kSetups; ++k) {
    w.reset();
    const auto t0 = Clock::now();
    w = make(ctx);
    w->setup();
    for (std::size_t i = 0; i < kRound; ++i) w->run(i);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }

  // Timed window: closed loop, one client.
  std::vector<double> latency;
  std::vector<std::size_t> completed;
  std::size_t trials = 0;
  long max_threads = process_threads();
  const std::size_t end = w->capacity();
  const auto start = Clock::now();
  for (std::size_t i = kRound; i < end; ++i) {
    // Stop at a round boundary, so every run weighs the apps alike.
    if (i % kRound == 0 && latency.size() >= kMinRequests &&
        ms_between(start, Clock::now()) >= a.seconds * 1e3) {
      break;
    }
    const auto t0 = Clock::now();
    std::size_t n = 0;
    const bool ok = guarded("request", i, [&] { n = w->run(i); });
    latency.push_back(ms_between(t0, Clock::now()));
    if (ok) {
      completed.push_back(i);
      trials += n;
    }
  }
  const double window_s = ms_between(start, Clock::now()) * 1e-3;
  max_threads = std::max(max_threads, process_threads());

  // Oracles, outside the timed window.
  const std::size_t ok = check_all(*w, completed);
  const bool warmup_ok = check_all(*w, 0, kRound) == kRound;
  const std::size_t attempted = latency.size();
  const double p90 = quantile(latency, 0.9);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(latency.begin(), latency.end(), [&](double v) { return v > p90; }));
  const bool threads_ok = max_threads <= online_cpus();

  const std::vector<Metric> metrics = {
      {"setup_s", quantile(setup_ms, 0.5) * 1e-3, "s"},
      {"requests_per_s", static_cast<double>(completed.size()) / window_s, "1/s"},
      {"trials_per_s", static_cast<double>(trials) / window_s, "1/s"},
      {"latency_p50_ms", quantile(latency, 0.5), "ms"},
      {"latency_p90_ms", p90, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac", ratio(static_cast<double>(ok), static_cast<double>(attempted)), "frac"},
  };
  std::printf("workload %s  seed %llu  workers %zu  window %.2f s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              sched.size(), window_s);
  std::printf("  requests %zu (p90 has %zu samples beyond it), ok %zu, "
              "warm-up oracles %s, threads %ld of %ld CPUs\n",
              attempted, beyond, ok, warmup_ok ? "ok" : "FAILED", max_threads,
              online_cpus());
  if (const auto s = w->summary(); !s.empty()) std::printf("  %s\n", s.c_str());
  print_table(metrics);
  const bool correct = ok == attempted && warmup_ok && threads_ok && beyond >= 10;
  print_json(correct, attempted, attempted - ok, metrics);
  return correct ? 0 : 1;
}

// --- layer-by-layer traced run ------------------------------------------------------

int run_traced(const Args& a) {
  ft::util::Scheduler sched(worker_count());
  Tracer tracer(true);
  Layers layers;
  Context ctx{sched, a.seed, a.work_dir, tracer, layers};

  std::vector<std::string> kinds = {a.workload};
  for (const char* k : {"sweep", "explain", "edit-loop"}) {
    if (a.workload != k) kinds.emplace_back(k);
  }
  const double budget_ms = a.seconds * 1e3 / static_cast<double>(kinds.size());
  std::size_t attempted = 0;
  std::size_t ok = 0;
  bool warmup_ok = true;
  long max_threads = 0;
  double overhead = 0;
  double sweep_cpu_util = 0;
  std::int64_t request_id = 0;

  for (const auto& kind : kinds) {
    tracer.set_request(-1);
    auto w = factory(kind)(ctx);
    {
      auto s = tracer.span(kind + ".setup");
      w->setup();
      for (std::size_t i = 0; i < kRound; ++i) w->run(i);
    }
    // One untraced round as the baseline of the traced requests' cost,
    // then traced requests; the first traced round adds to the counts.
    double untraced_ms = 0;
    for (std::size_t i = kRound; i < 2 * kRound; ++i) {
      const auto t0 = Clock::now();
      w->run(i);
      untraced_ms += ms_between(t0, Clock::now());
    }
    double traced_ms = 0;
    std::vector<std::size_t> completed;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t i = 2 * kRound; i < w->capacity(); ++i) {
      const bool counted = i < 3 * kRound;
      if (!counted && ms_between(start, Clock::now()) >= budget_ms) break;
      tracer.set_request(request_id++);
      const auto t0 = Clock::now();
      if (guarded("traced request", i, [&] { w->run_traced(i, counted); })) {
        completed.push_back(i);
      }
      if (counted) traced_ms += ms_between(t0, Clock::now());
      ++attempted;
    }
    const double wall_s = ms_between(start, Clock::now()) * 1e-3;
    tracer.set_request(-1);
    max_threads = std::max(max_threads, process_threads());
    if (kind == a.workload) overhead = ratio(traced_ms, untraced_ms) - 1.0;
    if (kind == "sweep") {
      sweep_cpu_util = ratio(process_cpu_seconds() - cpu0,
                             wall_s * static_cast<double>(sched.size()));
    }
    ok += check_all(*w, completed);
    warmup_ok = warmup_ok && check_all(*w, 0, 2 * kRound) == 2 * kRound;
    std::printf("%s: %zu traced requests in %.2f s\n", kind.c_str(),
                completed.size(), wall_s);
    if (const auto s = w->summary(); !s.empty()) std::printf("  %s\n", s.c_str());
  }

  const auto med = [&](const char* n) { return layers.median(n); };
  const auto tot = [&](const char* n) { return layers.total(n); };
  const std::vector<Metric> metrics = {
      {"apps.build_ms", med("apps.build_ms"), "ms"},
      {"core.session_ms", med("core.session_ms"), "ms"},
      {"core.prep_ms", med("core.prep_ms"), "ms"},
      {"core.service_overhead_ms", med("core.service_overhead_ms"), "ms"},
      {"core.first_progress_ms", med("core.first_progress_ms"), "ms"},
      {"vm.golden_ms", med("vm.golden_ms"), "ms"},
      {"trace.golden_trace_ms", med("trace.golden_trace_ms"), "ms"},
      {"vm.trial_instr_per_s", ratio(tot("vm.trial_instructions"), tot("vm.trial_seconds")), "1/s"},
      {"vm.traced_instr_per_s", ratio(tot("vm.traced_records"), tot("vm.traced_seconds")), "1/s"},
      {"fault.sites_ms", med("fault.sites_ms"), "ms"},
      {"fault.prepare_ms", med("fault.prepare_ms"), "ms"},
      {"fault.snapshots_ms", med("fault.snapshots_ms"), "ms"},
      {"fault.campaign_ms", med("fault.campaign_ms"), "ms"},
      {"fault.instr_per_trial", ratio(tot("fault.instructions"), tot("fault.trials")), "count"},
      {"fault.prefix_saved_frac",
       ratio(tot("fault.prefix_saved"), tot("fault.prefix_saved") + tot("fault.instructions")),
       "frac"},
      {"fault.early_exit_frac", ratio(tot("fault.early_exits"), tot("fault.trials")), "frac"},
      {"fault.snapshots_taken", tot("fault.snapshots_taken"), "count"},
      {"util.sched.tasks", tot("util.sched.tasks"), "count"},
      {"util.sched.steals", tot("util.sched.steals"), "count"},
      {"util.sched.queue_depth_max", static_cast<double>(sched.queue_depth_max()), "count"},
      {"util.sched.cpu_util", sweep_cpu_util, "frac"},
      {"util.sched.threads", static_cast<double>(max_threads), "count"},
      {"acl.diff_ms", med("acl.diff_ms"), "ms"},
      {"acl.diff_records", tot("acl.diff_records"), "count"},
      {"acl.minflt_per_diff", ratio(tot("acl.minflt"), tot("acl.diffs")), "count"},
      {"trace.events_ms", med("trace.events_ms"), "ms"},
      {"trace.bytes_per_record", ratio(tot("trace.faulty_bytes"), tot("trace.faulty_records")), "B"},
      {"patterns.detect_ms", med("patterns.detect_ms"), "ms"},
      {"store.load_ms", med("store.load_ms"), "ms"},
      {"store.publish_ms", med("store.publish_ms"), "ms"},
      {"store.hits", tot("store.hits"), "count"},
      {"store.misses", tot("store.misses"), "count"},
      {"store.hit_frac", ratio(tot("store.hits"), tot("store.hits") + tot("store.misses")), "frac"},
      {"store.bytes_read", tot("store.bytes_read"), "B"},
      {"store.bytes_written", tot("store.bytes_written"), "B"},
      {"store.corrupt", tot("store.corrupt"), "count"},
      {"compose.plan_ms", med("compose.plan_ms"), "ms"},
      {"compose.campaign_ms", med("compose.campaign_ms"), "ms"},
      {"compose.summarize_ms", med("compose.summarize_ms"), "ms"},
      {"compose.close_ms", med("compose.close_ms"), "ms"},
      {"compose.sections_reexecuted", tot("compose.sections_reexecuted"), "count"},
      {"compose.summaries_computed", tot("compose.summaries_computed"), "count"},
      {"compose.summary_store_hits", tot("compose.summary_store_hits"), "count"},
      {"compose.trials_avoided", tot("compose.trials_avoided"), "count"},
      {"bench.trace_overhead_frac", overhead, "frac"},
  };
  bool trace_written = true;
  if (!a.trace_out.empty()) {
    trace_written = tracer.write_chrome_json(a.trace_out);
    std::printf("trace: %zu spans -> %s%s\n", tracer.size(),
                a.trace_out.string().c_str(), trace_written ? "" : " (FAILED)");
  }
  std::printf("traced run (%s first), %zu workers, threads %ld of %ld CPUs, "
              "warm-up oracles %s\n",
              a.workload.c_str(), sched.size(), max_threads, online_cpus(),
              warmup_ok ? "ok" : "FAILED");
  print_table(metrics);
  const bool correct =
      ok == attempted && warmup_ok && trace_written && max_threads <= online_cpus();
  print_json(correct, attempted, attempted - ok, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ftbench --workload sweep|explain|edit-loop --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  try {
    return a.trace ? perfbench::run_traced(a) : perfbench::run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench: %s\n", e.what());
    return 1;
  }
}
