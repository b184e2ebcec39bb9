/// @file
/// Async campaign service: the thin front end that multiplexes many
/// concurrent AnalysisRequests onto one shared work-stealing scheduler and
/// one shared artifact store (the "campaign-as-a-service" shape in
/// ROADMAP.md).
///
/// What the service adds over calling run_analysis directly:
///
///  * Admission from many threads — submit() is safe to call concurrently;
///    each admitted request executes as a task on the shared scheduler and
///    resolves a future with its AnalysisReport. All requests' campaign
///    chunks interleave on the same worker deques, so a short survey is not
///    stuck behind a long one (work stealing + help-first waiting, see
///    util/scheduler.h).
///
///  * Golden-artifact dedup — apps named by registry name resolve to ONE
///    shared AnalysisSession per name via call_once-style futures: the first
///    request builds (or store-loads) the golden run/trace/sites, every
///    concurrent and later request reuses them. AnalysisSession's caches are
///    already thread-safe, so sharing is free.
///
///  * In-flight store-key dedup — campaign outcome keys get single-flight
///    semantics: when request A is already computing key K, request B's
///    lookup waits for A's publish and then serves the (bit-identical)
///    stored counts instead of re-running the trials. A failed producer
///    releases its claims so waiters recompute — no hangs.
///
///  * Progress streaming — a per-request subscriber receives
///    UnitProgress snapshots (tagged with the request id) as chunks
///    complete, the feed an interactive resilience dashboard consumes.
///
/// Determinism: none of this changes results. Reports are bit-identical to
/// a serial run_analysis of the same request — sharing sessions and stores
/// only changes where artifacts come from, which the store/trials_executed
/// proof counters make observable (tests/service_test.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/analysis.h"
#include "util/scheduler.h"

namespace ft::store {
class ArtifactStore;
}  // namespace ft::store

namespace ft::core {

/// Configuration of a CampaignService.
struct ServiceOptions {
  /// Scheduler all admitted requests run on; nullptr means
  /// util::global_scheduler() (the process-wide work-stealing scheduler).
  util::Scheduler* scheduler = nullptr;
  /// Shared artifact store (wins over store_dir). Requests that do not
  /// carry their own store run against it through the single-flight view.
  std::shared_ptr<store::ArtifactStore> store;
  /// When non-empty and no store was given, open (or create) one here.
  std::string store_dir;
};

/// One progress snapshot of one admitted request.
struct ServiceSnapshot {
  std::uint64_t request_id = 0;
  UnitProgress unit;
};
using ServiceSubscriber = std::function<void(const ServiceSnapshot&)>;

/// The async front end. Thread-safe; destruction waits for every admitted
/// request to finish. See the file comment for semantics.
class CampaignService {
 public:
  explicit CampaignService(ServiceOptions opts = {});
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Admit a request. Returns a future resolving to its report (or to the
  /// exception run_analysis threw). The request is rewritten against the
  /// service's shared state: registry-name apps resolve to shared sessions,
  /// an unset store seam gets the service store behind the single-flight
  /// view, an unset pool seam gets the service scheduler. A non-empty
  /// subscriber streams per-unit progress snapshots tagged with this
  /// request's id.
  std::future<AnalysisReport> submit(AnalysisRequest request,
                                     ServiceSubscriber subscriber = {});

  /// submit() + get(): the blocking convenience spelling. Must be called
  /// from outside the service's scheduler — a worker blocking on its own
  /// queue's future is a deadlock waiting to happen.
  AnalysisReport run(AnalysisRequest request,
                     ServiceSubscriber subscriber = {});

  /// The shared session for a registry app name, building it (first caller)
  /// or waiting for/reusing the in-flight or cached one. Throws what
  /// apps::build_app / session construction threw; a failed build is not
  /// cached, so a later call retries.
  std::shared_ptr<AnalysisSession> session_for(const std::string& name);

  struct Stats {
    std::uint64_t requests_admitted = 0;
    std::uint64_t requests_completed = 0;
    std::uint64_t requests_failed = 0;
    /// Sessions built by session_for (first requester per app name).
    std::uint64_t sessions_created = 0;
    /// session_for calls served by an existing (or in-flight) session.
    std::uint64_t sessions_shared = 0;
    /// Store-key lookups that waited for another request's in-flight
    /// compute instead of computing themselves.
    std::uint64_t flights_joined = 0;
    /// Requests admitted but not yet completed/failed.
    std::size_t inflight = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// The shared store (null when the service runs storeless).
  [[nodiscard]] const std::shared_ptr<store::ArtifactStore>& store()
      const noexcept {
    return store_;
  }

  /// Single-flight state shared by the per-request store views (opaque;
  /// defined in service.cpp).
  struct FlightTable;

 private:
  AnalysisReport execute(std::uint64_t id, AnalysisRequest request,
                         ServiceSubscriber subscriber);

  util::Scheduler* scheduler_ = nullptr;
  std::shared_ptr<store::ArtifactStore> store_;
  std::shared_ptr<FlightTable> flights_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t inflight_ = 0;  // guarded by mu_
  std::map<std::string,
           std::shared_future<std::shared_ptr<AnalysisSession>>>
      sessions_;  // guarded by mu_

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::uint64_t> requests_failed_{0};
  std::atomic<std::uint64_t> sessions_created_{0};
  std::atomic<std::uint64_t> sessions_shared_{0};
};

}  // namespace ft::core
