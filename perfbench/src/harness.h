// Shared pieces of the repository benchmark: timing, span recording with
// Chrome trace-event export, per-layer sample collection, process probes,
// a timing ArtifactStore, and the Workload interface the three request
// kinds implement.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "store/artifact_store.h"
#include "util/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Deterministic per-request seed from the workload seed and a stream tag.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Median / nearest-rank quantile of a sample (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Records spans (name, start, end, parent, request id) on the calling
/// thread and writes them as Chrome trace-event JSON. Spans are opened and
/// closed in LIFO order by Span objects; a disabled tracer still times.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer* t, std::string name);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Close the span (idempotent); returns its duration in ms.
    double end();

   private:
    Tracer* tracer_;
    std::string name_;
    Clock::time_point start_;
    std::int64_t index_ = -1;  // slot in the tracer's span list
    double ms_ = -1.0;
  };

  [[nodiscard]] Span span(std::string name) { return Span(this, std::move(name)); }
  void set_request(std::int64_t id) { request_ = id; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Write every recorded span as a Chrome trace-event JSON document.
  bool write_chrome_json(const std::filesystem::path& path) const;

 private:
  struct Record {
    std::string name;
    double start_us = 0;
    double end_us = -1;
    std::int64_t parent = -1;
    std::int64_t request = -1;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
  std::int64_t request_ = -1;
};

/// Per-layer metric samples. `sample` keeps every value (reported as the
/// median), `add` accumulates a total.
class Layers {
 public:
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void add(const std::string& name, double v) { totals_[name] += v; }
  [[nodiscard]] double median(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> totals_;
};

// --- process probes ------------------------------------------------------------
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] long thread_minor_faults();
/// The "Threads:" line of /proc/self/status.
[[nodiscard]] long process_threads();
[[nodiscard]] long online_cpus();

/// ArtifactStore that times every load and publish from outside the base
/// implementation; counts come from the base counters.
class TimingStore final : public ft::store::ArtifactStore {
 public:
  using ArtifactStore::ArtifactStore;

  std::shared_ptr<const ft::trace::ColumnTrace> load_trace(
      std::uint64_t key, std::shared_ptr<const ft::vm::DecodedProgram> program,
      std::uint64_t program_hash) override;
  bool publish_trace(std::uint64_t key, const ft::trace::ColumnTrace& t,
                     std::uint64_t program_hash) override;
  std::optional<ft::vm::RunResult> load_golden(std::uint64_t key) override;
  bool publish_golden(std::uint64_t key, const ft::vm::RunResult& run) override;
  std::optional<ft::fault::SiteEnumerationResult> load_sites(
      std::uint64_t key) override;
  bool publish_sites(std::uint64_t key,
                     const ft::fault::SiteEnumerationResult& s) override;
  std::optional<ft::fault::CampaignResult> load_campaign(
      std::uint64_t key) override;
  bool publish_campaign(std::uint64_t key,
                        const ft::fault::CampaignResult& r) override;
  std::optional<std::string> load_summary(std::uint64_t key) override;
  bool publish_summary(std::uint64_t key, const std::string& payload) override;

  /// Busy time summed over every thread that called in, in ms.
  [[nodiscard]] double load_ms() const noexcept { return load_ns_ * 1e-6; }
  [[nodiscard]] double publish_ms() const noexcept {
    return publish_ns_ * 1e-6;
  }

 private:
  template <class F>
  auto timed(std::atomic<std::uint64_t>& acc, F&& f) {
    const auto t0 = Clock::now();
    auto r = f();
    acc.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count()),
                  std::memory_order_relaxed);
    return r;
  }
  std::atomic<std::uint64_t> load_ns_{0};
  std::atomic<std::uint64_t> publish_ns_{0};
};

/// Removes a directory tree when it goes out of scope (every exit path).
class ScopedDir {
 public:
  explicit ScopedDir(std::filesystem::path p) : path_(std::move(p)) {}
  ~ScopedDir();
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

 private:
  std::filesystem::path path_;
};

/// Outcome-count equality (what the faults did); accounting fields differ
/// legitimately between execution strategies and are not compared.
[[nodiscard]] bool same_counts(const ft::fault::CampaignResult& a,
                               const ft::fault::CampaignResult& b);

/// What every workload receives: the one executor all campaign work runs
/// on, the workload seed, a work directory inside the repository, and the
/// tracing sinks.
struct Context {
  ft::util::Scheduler& sched;
  std::uint64_t seed = 0;
  std::filesystem::path work_dir;
  Tracer& tracer;
  Layers& layers;
};

/// apps::build_app (including golden baking) then the AnalysisSession
/// constructor (decode + JIT compile), each timed as its layer. `spec`,
/// when given, receives a copy of the built app before the session takes it.
[[nodiscard]] std::shared_ptr<ft::core::AnalysisSession> build_session(
    const std::string& app, Context& ctx, ft::apps::AppSpec* spec = nullptr);
/// The fault-free run and the traced golden run, each timed as its layer.
void golden_artifacts(ft::core::AnalysisSession& session, Context& ctx);

/// One round of the request mix: every app once and CG, the paper's main
/// case study, twice. The heaviest app then makes up 2/11 of the requests,
/// so the p90 latency falls inside one app's latencies rather than on the
/// edge between two apps, where it would jump between them.
inline constexpr std::size_t kRound = 11;

/// The app of request `index` and how many earlier requests of the run
/// (counting from index 0) named the same app.
struct Pick {
  std::string app;
  std::size_t nth = 0;
};
[[nodiscard]] Pick pick_app(std::uint64_t seed, std::size_t index);
/// Requests per round that name `app`.
[[nodiscard]] std::size_t picks_per_round(const std::string& app);

/// One request kind. Request `index` is fully determined by the workload
/// seed and the index; indices [0, kRound) are the warm-up round.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build all state from scratch (apps, sessions, golden artifacts).
  virtual void setup() = 0;
  /// Run request `index` untraced; returns the trials it classified.
  virtual std::size_t run(std::size_t index) = 0;
  /// Run request `index` with a span around each layer call, sampling the
  /// per-layer times; `count` also adds the request's work to the count
  /// totals (only the first traced round counts, so counts repeat exactly
  /// for a seed).
  virtual std::size_t run_traced(std::size_t index, bool count) = 0;
  /// Requests one run can make (indices [0, capacity())).
  [[nodiscard]] virtual std::size_t capacity() const { return SIZE_MAX; }
  /// Check the recorded result of request `index` against its oracle.
  [[nodiscard]] virtual bool check(std::size_t index) = 0;
  /// One human-readable line printed after the run (may be empty).
  [[nodiscard]] virtual std::string summary() const { return {}; }
};

[[nodiscard]] std::unique_ptr<Workload> make_sweep(Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_explain(Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_edit_loop(Context& ctx);

}  // namespace perfbench
