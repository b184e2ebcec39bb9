#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "util/rng.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state =
      seed * 0x9E3779B97F4A7C15ull ^ (tag + 0x632BE59BD9B4E019ull);
  return ft::util::splitmix64(state) ^ ft::util::splitmix64(state);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5) {
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {

const std::vector<std::string>& rotation() {
  static const std::vector<std::string> r = [] {
    auto names = ft::apps::all_app_names();
    names.push_back("CG");
    return names;
  }();
  return r;
}

}  // namespace

Pick pick_app(std::uint64_t seed, std::size_t index) {
  const auto& r = rotation();
  const std::size_t offset = seed % kRound;
  const std::size_t slot = (offset + index) % kRound;
  Pick p{r[slot], 0};
  // Occurrences in the full rounds before this one, then in this round.
  const std::size_t round_start = index - index % kRound;
  p.nth = round_start / kRound * picks_per_round(p.app);
  for (std::size_t i = round_start; i < index; ++i) {
    if (r[(offset + i) % kRound] == p.app) ++p.nth;
  }
  return p;
}

std::size_t picks_per_round(const std::string& app) {
  const auto& r = rotation();
  return static_cast<std::size_t>(std::count(r.begin(), r.end(), app));
}

// --- Tracer ---------------------------------------------------------------------

Tracer::Span::Span(Tracer* t, std::string name)
    : tracer_(t), name_(std::move(name)), start_(Clock::now()) {
  if (!tracer_->enabled_) return;
  Record r;
  r.name = name_;
  r.start_us = ms_between(tracer_->origin_, start_) * 1e3;
  r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  r.request = tracer_->request_;
  index_ = static_cast<std::int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(r));
  tracer_->open_.push_back(index_);
}

double Tracer::Span::end() {
  if (ms_ >= 0) return ms_;
  const auto now = Clock::now();
  ms_ = ms_between(start_, now);
  if (index_ >= 0) {
    tracer_->spans_[static_cast<std::size_t>(index_)].end_us =
        ms_between(tracer_->origin_, now) * 1e3;
    if (!tracer_->open_.empty() && tracer_->open_.back() == index_) {
      tracer_->open_.pop_back();
    }
  }
  return ms_;
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"perfbench\"}}";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_us < 0) continue;
    out << ",\n{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- Layers ---------------------------------------------------------------------

double Layers::median(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : quantile(it->second, 0.5);
}

double Layers::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

// --- process probes ---------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

long thread_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

long process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stol(line.substr(8));
    }
  }
  return -1;
}

long online_cpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

// --- TimingStore -------------------------------------------------------------------

std::shared_ptr<const ft::trace::ColumnTrace> TimingStore::load_trace(
    std::uint64_t key, std::shared_ptr<const ft::vm::DecodedProgram> program,
    std::uint64_t program_hash) {
  return timed(load_ns_, [&] {
    return ArtifactStore::load_trace(key, std::move(program), program_hash);
  });
}

bool TimingStore::publish_trace(std::uint64_t key,
                                const ft::trace::ColumnTrace& t,
                                std::uint64_t program_hash) {
  return timed(publish_ns_,
               [&] { return ArtifactStore::publish_trace(key, t, program_hash); });
}

std::optional<ft::vm::RunResult> TimingStore::load_golden(std::uint64_t key) {
  return timed(load_ns_, [&] { return ArtifactStore::load_golden(key); });
}

bool TimingStore::publish_golden(std::uint64_t key,
                                 const ft::vm::RunResult& run) {
  return timed(publish_ns_,
               [&] { return ArtifactStore::publish_golden(key, run); });
}

std::optional<ft::fault::SiteEnumerationResult> TimingStore::load_sites(
    std::uint64_t key) {
  return timed(load_ns_, [&] { return ArtifactStore::load_sites(key); });
}

bool TimingStore::publish_sites(std::uint64_t key,
                                const ft::fault::SiteEnumerationResult& s) {
  return timed(publish_ns_,
               [&] { return ArtifactStore::publish_sites(key, s); });
}

std::optional<ft::fault::CampaignResult> TimingStore::load_campaign(
    std::uint64_t key) {
  return timed(load_ns_, [&] { return ArtifactStore::load_campaign(key); });
}

bool TimingStore::publish_campaign(std::uint64_t key,
                                   const ft::fault::CampaignResult& r) {
  return timed(publish_ns_,
               [&] { return ArtifactStore::publish_campaign(key, r); });
}

std::optional<std::string> TimingStore::load_summary(std::uint64_t key) {
  return timed(load_ns_, [&] { return ArtifactStore::load_summary(key); });
}

bool TimingStore::publish_summary(std::uint64_t key,
                                  const std::string& payload) {
  return timed(publish_ns_,
               [&] { return ArtifactStore::publish_summary(key, payload); });
}

ScopedDir::~ScopedDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::shared_ptr<ft::core::AnalysisSession> build_session(
    const std::string& app, Context& ctx, ft::apps::AppSpec* spec) {
  auto b = ctx.tracer.span("apps.build_app");
  auto built = ft::apps::build_app(app);
  ctx.layers.sample("apps.build_ms", b.end());
  if (spec) *spec = built;
  auto s = ctx.tracer.span("core.AnalysisSession");
  auto session = std::make_shared<ft::core::AnalysisSession>(std::move(built));
  ctx.layers.sample("core.session_ms", s.end());
  return session;
}

void golden_artifacts(ft::core::AnalysisSession& session, Context& ctx) {
  auto g = ctx.tracer.span("vm.golden");
  (void)session.golden();
  ctx.layers.sample("vm.golden_ms", g.end());
  auto t = ctx.tracer.span("trace.golden_trace");
  (void)session.golden_trace();
  ctx.layers.sample("trace.golden_trace_ms", t.end());
}

bool same_counts(const ft::fault::CampaignResult& a,
                 const ft::fault::CampaignResult& b) {
  return a.trials == b.trials && a.success == b.success &&
         a.failed == b.failed && a.crashed == b.crashed &&
         a.detected_recovered == b.detected_recovered &&
         a.detected_unrecoverable == b.detected_unrecoverable &&
         a.population_bits == b.population_bits;
}

}  // namespace perfbench
