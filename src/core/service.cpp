#include "core/service.h"

#include <atomic>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "store/artifact_store.h"

namespace ft::core {

// ---------------------------------------------------------------------------
// Single-flight store view
// ---------------------------------------------------------------------------

/// In-flight compute state shared by every per-request store view: one
/// Flight per (kind, key) currently being computed by some request.
struct CampaignService::FlightTable {
  struct Flight {
    const void* owner = nullptr;  // the view that claimed the key
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;       // guarded by mu
    bool published = false;  // guarded by mu
  };
  using Key = std::pair<int, std::uint64_t>;

  std::mutex mu;
  std::map<Key, std::shared_ptr<Flight>> map;  // guarded by mu
  std::atomic<std::uint64_t> joined{0};
};

namespace {

using FlightTable = CampaignService::FlightTable;

constexpr int kCampaignKind = 0;

/// Per-request delegating view over the shared store that gives campaign
/// outcome keys single-flight semantics: a miss either claims the key (the
/// caller computes and publishes) or waits for the claiming request's
/// publish and then serves the stored counts. Golden/trace/sites keys pass
/// through — their dedup already happens at the shared-session layer.
///
/// Failure safety: a claimed key the owning request never publishes (a
/// thrown golden run, a failed store write) is released when the view is
/// destroyed at request teardown, waking waiters with published == false so
/// they loop and claim the compute themselves. Claims are per-view, so one
/// request's failure never wedges another's key.
class SingleFlightStore final : public store::ArtifactStore {
 public:
  SingleFlightStore(std::shared_ptr<store::ArtifactStore> inner,
                    std::shared_ptr<CampaignService::FlightTable> table)
      : store::ArtifactStore(DelegatingView{}, inner->root()),
        inner_(std::move(inner)),
        table_(std::move(table)) {}

  ~SingleFlightStore() override {
    // Release every claim the request never published (it failed or threw):
    // waiters wake, observe published == false, and compute themselves.
    std::vector<FlightTable::Key> leaked;
    {
      std::lock_guard lock(table_->mu);
      leaked = claims_;
    }
    for (const auto& k : leaked) complete(k, /*published=*/false);
  }

  std::optional<fault::CampaignResult> load_campaign(
      std::uint64_t key) override {
    const FlightTable::Key k{kCampaignKind, key};
    for (;;) {
      if (auto r = inner_->load_campaign(key)) return r;
      std::shared_ptr<FlightTable::Flight> flight;
      bool claimed = false;
      {
        std::lock_guard lock(table_->mu);
        auto it = table_->map.find(k);
        if (it == table_->map.end()) {
          auto f = std::make_shared<FlightTable::Flight>();
          f->owner = this;
          table_->map.emplace(k, std::move(f));
          claims_.push_back(k);
          claimed = true;
        } else if (it->second->owner == this) {
          // A key is claimed once per request (run_analysis looks each
          // campaign key up once); seeing our own claim again would mean
          // waiting on ourselves, so treat it as our own miss.
          return std::nullopt;
        } else {
          flight = it->second;
        }
      }
      if (claimed) {
        // The producer may have published and retired its flight between
        // our miss above and our claim — publishes hit the inner store
        // BEFORE the flight completes, so a recheck now observes any such
        // result and we never recompute stored counts. Waiters who joined
        // the short-lived claim wake with published == true and reload.
        if (auto r = inner_->load_campaign(key)) {
          complete(k, /*published=*/true);
          return r;
        }
        return std::nullopt;  // this request owns the compute
      }
      table_->joined.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock lock(flight->mu);
      flight->cv.wait(lock, [&] { return flight->done; });
      if (!flight->published) continue;  // producer failed: retry/claim
      // Producer published: the reload above serves the stored counts.
    }
  }

  bool publish_campaign(std::uint64_t key,
                        const fault::CampaignResult& r) override {
    const bool ok = inner_->publish_campaign(key, r);
    complete({kCampaignKind, key}, ok);
    return ok;
  }

  // Everything else delegates; session-level sharing already dedups the
  // golden artifacts behind these.
  std::shared_ptr<const trace::ColumnTrace> load_trace(
      std::uint64_t key, std::shared_ptr<const vm::DecodedProgram> program,
      std::uint64_t program_hash) override {
    return inner_->load_trace(key, std::move(program), program_hash);
  }
  bool publish_trace(std::uint64_t key, const trace::ColumnTrace& t,
                     std::uint64_t program_hash) override {
    return inner_->publish_trace(key, t, program_hash);
  }
  std::optional<store::LineageRoot> load_lineage(std::uint64_t key,
                                                 std::size_t code_size,
                                                 bool& found) override {
    return inner_->load_lineage(key, code_size, found);
  }
  bool publish_lineage(std::uint64_t key, const store::LineageRoot& root,
                       bool replace) override {
    return inner_->publish_lineage(key, root, replace);
  }
  std::optional<store::RootPrefix> load_root_prefix(
      const store::LineageRoot& root, std::span<const std::uint8_t> changed,
      trace::ColumnTrace& out) override {
    return inner_->load_root_prefix(root, changed, out);
  }
  bool publish_derived_trace(std::uint64_t key, const store::LineageRoot& root,
                             std::uint64_t prefix_rows,
                             const trace::ColumnTrace& t,
                             std::uint64_t program_hash) override {
    return inner_->publish_derived_trace(key, root, prefix_rows, t,
                                         program_hash);
  }
  std::shared_ptr<const trace::ColumnTrace> load_derived_trace(
      std::uint64_t key, std::shared_ptr<const vm::DecodedProgram> program,
      std::uint64_t program_hash) override {
    return inner_->load_derived_trace(key, std::move(program), program_hash);
  }
  std::optional<fault::LadderFacts> load_facts(
      const store::RootSegment& seg, std::size_t max_sections) override {
    return inner_->load_facts(seg, max_sections);
  }
  bool publish_facts(std::uint64_t trace_key, const fault::LadderFacts& facts,
                     std::uint64_t program_hash) override {
    return inner_->publish_facts(trace_key, facts, program_hash);
  }
  std::optional<vm::RunResult> load_golden(std::uint64_t key) override {
    return inner_->load_golden(key);
  }
  bool publish_golden(std::uint64_t key, const vm::RunResult& run) override {
    return inner_->publish_golden(key, run);
  }
  std::optional<fault::SiteEnumerationResult> load_sites(
      std::uint64_t key) override {
    return inner_->load_sites(key);
  }
  bool publish_sites(std::uint64_t key,
                     const fault::SiteEnumerationResult& s) override {
    return inner_->publish_sites(key, s);
  }
  std::optional<std::string> load_summary(std::uint64_t key) override {
    return inner_->load_summary(key);
  }
  bool publish_summary(std::uint64_t key,
                       const std::string& payload) override {
    return inner_->publish_summary(key, payload);
  }
  Counters counters() const noexcept override { return inner_->counters(); }

 private:
  void complete(const FlightTable::Key& k, bool published) {
    std::shared_ptr<FlightTable::Flight> flight;
    {
      std::lock_guard lock(table_->mu);
      auto it = table_->map.find(k);
      if (it == table_->map.end() || it->second->owner != this) return;
      flight = it->second;
      table_->map.erase(it);
      std::erase(claims_, k);
    }
    {
      std::lock_guard lock(flight->mu);
      flight->done = true;
      flight->published = published;
    }
    flight->cv.notify_all();
  }

  std::shared_ptr<store::ArtifactStore> inner_;
  std::shared_ptr<CampaignService::FlightTable> table_;
  std::vector<FlightTable::Key> claims_;  // guarded by table_->mu
};

}  // namespace

// ---------------------------------------------------------------------------
// CampaignService
// ---------------------------------------------------------------------------

CampaignService::CampaignService(ServiceOptions opts)
    : scheduler_(opts.scheduler ? opts.scheduler : &util::global_scheduler()),
      store_(std::move(opts.store)),
      flights_(std::make_shared<FlightTable>()) {
  if (!store_ && !opts.store_dir.empty()) {
    store_ = std::make_shared<store::ArtifactStore>(opts.store_dir);
  }
}

CampaignService::~CampaignService() {
  // Every admitted request task captures `this`; wait them out.
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::shared_ptr<AnalysisSession> CampaignService::session_for(
    const std::string& name) {
  std::shared_future<std::shared_ptr<AnalysisSession>> fut;
  std::promise<std::shared_ptr<AnalysisSession>> prom;
  bool creator = false;
  {
    std::lock_guard lock(mu_);
    auto it = sessions_.find(name);
    if (it != sessions_.end()) {
      fut = it->second;
      sessions_shared_.fetch_add(1, std::memory_order_relaxed);
    } else {
      creator = true;
      fut = prom.get_future().share();
      sessions_.emplace(name, fut);
      sessions_created_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (creator) {
    // Build outside the lock: concurrent requesters of the same app wait on
    // the shared future (call_once semantics), requesters of other apps
    // proceed. A failed build is uncached so the next caller retries.
    try {
      auto session = std::make_shared<AnalysisSession>(apps::build_app(name));
      if (store_) session->attach_store(store_);
      prom.set_value(std::move(session));
    } catch (...) {
      {
        std::lock_guard lock(mu_);
        sessions_.erase(name);
      }
      prom.set_exception(std::current_exception());
    }
  }
  return fut.get();
}

AnalysisReport CampaignService::execute(std::uint64_t id,
                                        AnalysisRequest request,
                                        ServiceSubscriber subscriber) {
  // Admission rewrites the request against the shared state; results are
  // unchanged by construction (same specs, same seeds, same configs).
  for (auto& ref : request.apps_) {
    if (!ref.session && !ref.spec) ref.session = session_for(ref.name);
  }
  if (store_ && !request.store_ && request.store_dir_.empty()) {
    request.store_ = std::make_shared<SingleFlightStore>(store_, flights_);
  }
  if (!request.pool_) request.pool_ = scheduler_;
  if (subscriber) {
    request.progress_ = [id, subscriber = std::move(subscriber)](
                            const UnitProgress& unit) {
      subscriber(ServiceSnapshot{id, unit});
    };
  }
  return run_analysis(request);
}

std::future<AnalysisReport> CampaignService::submit(
    AnalysisRequest request, ServiceSubscriber subscriber) {
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  requests_admitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    ++inflight_;
  }
  auto promise = std::make_shared<std::promise<AnalysisReport>>();
  auto fut = promise->get_future();
  scheduler_->submit([this, id, promise, request = std::move(request),
                      subscriber = std::move(subscriber)]() mutable {
    // All service bookkeeping happens BEFORE the promise resolves, and the
    // notify happens under mu_: once a client observes the future (or a
    // stats() snapshot taken after it), the counters are final, and the
    // destructor — released by the inflight_ decrement — can never see this
    // task still touching idle_cv_.
    const auto finish = [this] {
      std::lock_guard lock(mu_);
      --inflight_;
      idle_cv_.notify_all();
    };
    try {
      auto report = execute(id, std::move(request), std::move(subscriber));
      requests_completed_.fetch_add(1, std::memory_order_relaxed);
      finish();
      promise->set_value(std::move(report));
    } catch (...) {
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
      finish();
      promise->set_exception(std::current_exception());
    }
  });
  return fut;
}

AnalysisReport CampaignService::run(AnalysisRequest request,
                                    ServiceSubscriber subscriber) {
  return submit(std::move(request), std::move(subscriber)).get();
}

CampaignService::Stats CampaignService::stats() const {
  Stats s;
  s.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  s.requests_completed = requests_completed_.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  s.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  s.sessions_shared = sessions_shared_.load(std::memory_order_relaxed);
  s.flights_joined = flights_->joined.load(std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  s.inflight = inflight_;
  return s;
}

}  // namespace ft::core
