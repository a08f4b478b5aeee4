// The query service layer: one instance — loaded statically or served live —
// answering many OCQA requests.
//
// Every OcqaEngine call used to re-run the whole pipeline prefix — GHD
// search, Appendix-E normal form, Rep[k]/Seq[k] NFTA compilation — even for
// a query asked a moment earlier. The service amortizes that cost across a
// request stream with two caches and a batch executor:
//
//  * a **plan cache** (LRU over canonical query text + width config) holding
//    CompiledQuery artifacts, so a repeated query — including any variable
//    renaming of it — skips straight to the per-request trials;
//  * a **result cache** (LRU over effective instance fingerprint + canonical
//    query + answer tuple + mode + the accuracy/seed parameters that mode
//    reads) replaying fully computed responses byte-identically;
//  * a **batch executor** running independent requests across ThreadPool
//    lanes. Each request is itself executed serially (inner threads = 1),
//    so the engine's non-re-entrant pool is never touched concurrently, and
//    every estimate is a pure function of the request parameters — the
//    response vector is bit-identical at any lane count, in request order.
//
// **Live mode** (the LiveInstance constructor) adds MVCC epochs under the
// same machinery. Each request pins the current epoch's context (snapshot +
// engine) via shared_ptr, so writers never tear an in-flight query. The
// result cache key's fingerprint becomes epoch-aware, scoped to what a
// result can actually depend on:
//
//  * fpras/all requests (and any explain=1 request) depend on the full
//    instance — the Appendix-E normal form pads every relation into the
//    automaton, and plan cost fields read global statistics — so their
//    effective fingerprint is (base, epoch): any ingest invalidates them.
//  * exact/mc requests depend only on (a) the relations in the query's own
//    atoms — evaluation never reads others — and (b) the global
//    conflict-block structure, through the |ORep|/|CRS| denominators and
//    the samplers' RNG consumption. Their effective fingerprint is
//    (base, conflict_epoch, footprint relation epochs): a conflict-free
//    insert into a relation outside the query's footprint provably changes
//    neither the exact BigInt counts nor a single Monte-Carlo random draw
//    (singleton blocks are forced, and forced choices are RNG-silent —
//    repairs/sampling.h), so those entries keep replaying byte-identically
//    across the ingest.
//
// The plan cache survives ingest untouched: live entries are keyed
// (epoch, canonical) — a CompiledQuery embeds its epoch's normal-form
// instance, so older epochs' plans stay valid for their epoch and simply
// age out of the LRU.
//
// Two introspection hooks ride on the protocol: `explain=1` appends the
// compiled plan's deterministic `plan_*` fields to the payload (cache-key'd
// separately, still byte-identical on replay), and a bare `stats` line
// reports the cache counters plus per-plan planning times (never cached).

#ifndef UOCQA_SERVICE_SERVICE_H_
#define UOCQA_SERVICE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "db/database.h"
#include "db/keys.h"
#include "ocqa/engine.h"
#include "query/cq.h"
#include "service/live.h"
#include "service/lru_cache.h"
#include "service/request.h"

namespace uocqa {

struct ServiceOptions {
  /// Plan (compiled pipeline) cache capacity; 0 disables plan caching.
  size_t plan_cache_capacity = 64;
  /// Result (response replay) cache capacity; 0 disables result caching.
  size_t result_cache_capacity = 4096;
  /// Maximum decomposition width for the FPRAS pipeline (OcqaOptions).
  size_t max_width = 6;
  /// Registry the request path records into (stage latency histograms,
  /// cache/request counters, pool counters — see docs/ARCHITECTURE.md
  /// "Observability"); it is also the source of stats(). nullptr (default)
  /// makes the service own a private one, so per-service counters stay
  /// correct when several services share a process. Inject a shared
  /// registry (e.g. MetricsRegistry::Global()) to aggregate across
  /// services.
  MetricsRegistry* metrics = nullptr;
  /// Bounded admission for batch execution: within each barrier-delimited
  /// span of a batch, at most this many requests are admitted; the rest are
  /// shed deterministically (`err busy`, StatusCode::kUnavailable) without
  /// running. Shedding is positional — the span's first `max_queue`
  /// requests run, later ones shed — so the response vector stays
  /// bit-identical at every lane count. 0 (the default) disables shedding.
  size_t max_queue = 0;
  /// Log any query whose end-to-end service time reaches this many
  /// microseconds (canonical query text + per-stage breakdown) to
  /// `slow_query_sink`. 0 disables the slow-query log.
  uint64_t slow_query_micros = 0;
  /// Destination for slow-query lines; null means stderr. Called with the
  /// formatted line (no trailing newline), serialized by the service.
  std::function<void(const std::string&)> slow_query_sink;
};

/// Cache counters, as one readable line for logs and the serve front end.
/// Read back from the service's registry (one source of truth); the line
/// format is pinned byte-for-byte by tests.
struct ServiceStats {
  size_t requests = 0;
  size_t plan_hits = 0;
  size_t plan_misses = 0;
  size_t plan_evictions = 0;
  size_t result_hits = 0;
  size_t result_misses = 0;
  size_t result_evictions = 0;
  /// Live-instance fields (live services only; `has_live` gates rendering
  /// so static services' stats lines are unchanged).
  bool has_live = false;
  uint64_t epoch = 0;
  size_t facts = 0;
  size_t pending = 0;

  /// "requests=N plan_hits=... result_evictions=..." plus, for live
  /// services, " epoch=E facts=F pending=P".
  std::string ToString() const;
};

/// Serves OCQA requests against one instance.
///
/// Static mode (Database/KeySet constructor): the instance must stay alive
/// and unmodified for the service's lifetime; the write verbs error out;
/// response lines are exactly the pre-live format (no epoch field).
///
/// Live mode (LiveInstance constructor): the service serves the instance's
/// current snapshot, applies `add_fact`/`begin_snapshot` verbs to it, and
/// stamps every response with the epoch it was served against. The
/// LiveInstance must outlive the service.
///
/// Thread safety: in static mode, Execute/ExecuteBatch may not be called
/// concurrently by external threads (batching is the supported way to
/// parallelize). In live mode Execute is additionally safe to call
/// concurrently with itself and with ExecuteBatch *from other threads* —
/// each request pins one epoch context and all shared state is internally
/// locked — which is what lets writers ingest while readers query.
class QueryService {
 public:
  QueryService(const Database& db, const KeySet& keys,
               const ServiceOptions& options = {});
  QueryService(LiveInstance& live, const ServiceOptions& options = {});

  /// Serves one request (equivalent to a one-element batch).
  ServiceResponse Execute(const Request& request);

  /// Serves requests on `threads` lanes (0 = hardware concurrency,
  /// 1 = serial). Responses come back in request order and are bit-identical
  /// at every lane count: write/epoch verbs (`add_fact`, `begin_snapshot`,
  /// `epoch`, `wal_sync`) and introspection verbs (`stats`, `metrics`) act
  /// as serial barriers, and the query runs between them execute
  /// concurrently against a fixed epoch.
  std::vector<ServiceResponse> ExecuteBatch(
      const std::vector<Request>& requests, size_t threads = 1);

  /// Parses each line with ParseRequestLine and serves the batch; a line
  /// that fails to parse yields an error response in its slot. Blank and
  /// comment lines are the caller's concern (the front ends skip them).
  std::vector<ServiceResponse> ExecuteBatchLines(
      const std::vector<std::string>& lines, size_t threads = 1);

  /// Snapshot of the cache counters.
  ServiceStats stats() const;

  /// The service's metrics registry — the injected one or the
  /// service-owned default; never null. The serve front end's
  /// --metrics-file reads PrometheusText() from here.
  MetricsRegistry* metrics() const { return metrics_; }

  /// The currently served database version and key set. In live mode the
  /// reference is only stable until the next begin_snapshot; pin the
  /// snapshot through the LiveInstance for anything longer-lived.
  const Database& db() const;
  const KeySet& keys() const { return *keys_; }
  /// The currently served snapshot's full-instance fingerprint (memoized
  /// per epoch, never rehashed on the request path).
  uint64_t instance_fingerprint() const;
  /// The currently served epoch (always 0 in static mode).
  uint64_t epoch() const;

 private:
  /// One epoch's serving state: the pinned snapshot and an engine over it,
  /// denominators pre-seeded from the snapshot's delta-maintained values.
  /// Requests copy the shared_ptr once and work off it for their whole
  /// lifetime, so a concurrent begin_snapshot never tears them.
  struct EpochContext {
    std::shared_ptr<const InstanceSnapshot> snapshot;
    std::unique_ptr<OcqaEngine> engine;
  };

  struct ResultKey {
    uint64_t fingerprint = 0;
    std::string canonical_query;
    std::vector<Value> answer;
    RequestMode mode = RequestMode::kAll;
    double epsilon = 0;
    double delta = 0;
    size_t samples = 0;
    uint64_t seed = 0;
    size_t max_width = 0;
    bool explain = false;

    bool operator==(const ResultKey& o) const;
  };
  struct ResultKeyHash {
    size_t operator()(const ResultKey& k) const;
  };

  /// Builds and publishes the context for `snapshot` (no-op republish if it
  /// is already current); returns the published context.
  std::shared_ptr<const EpochContext> InstallContext(
      std::shared_ptr<const InstanceSnapshot> snapshot);

  /// The pinned context for one request.
  std::shared_ptr<const EpochContext> CurrentContext() const;

  /// Resolves the registry and stage handles from `options_` (constructor
  /// helper; must run before the first InstallContext so epoch engines are
  /// wired).
  void InitMetrics();

  /// The full (uncached) execution of one request; `response.payload` is
  /// what the result cache stores.
  ServiceResponse Run(const Request& request);
  /// Instrumentation wrapper: times the whole query, renders the trace
  /// field, and feeds the slow-query log; the payload comes from
  /// RunQueryCore untouched.
  ServiceResponse RunQuery(const Request& request, const EpochContext& ctx);
  ServiceResponse RunQueryCore(const Request& request, const EpochContext& ctx,
                               metrics::StageTrace* trace,
                               std::string* canonical_out);
  ServiceResponse RunControl(const Request& request);

  /// The effective result-cache fingerprint of a query at `ctx` — see the
  /// file comment for the mode-dependent epoch scoping.
  uint64_t EffectiveFingerprint(const EpochContext& ctx,
                                const ConjunctiveQuery& query,
                                RequestMode mode, bool explain) const;

  /// The plan cache key for `canonical` at `ctx` (epoch-prefixed in live
  /// mode: a CompiledQuery embeds its epoch's normal-form instance).
  std::string PlanKey(const EpochContext& ctx,
                      const std::string& canonical) const;

  /// The stats-verb payload: the ServiceStats counters plus, per cached
  /// plan (most recently used first), the canonical query and its planning
  /// wall-clock time. Never cached — timings change between runs.
  std::string StatsPayload() const;

  /// The plan cache entry for `canonical` at `ctx`, compiling on miss.
  /// Never null on ok(); the shared_ptr keeps evicted plans alive for
  /// in-flight requests. Records the plan/compile/planner stages (and the
  /// request's trace spans when `trace` is active).
  Result<std::shared_ptr<CompiledQuery>> PlanFor(
      const EpochContext& ctx, const std::string& canonical,
      const ConjunctiveQuery& query, metrics::StageTrace* trace = nullptr);

  /// Runs requests [0, count): barrier verbs (add_fact, begin_snapshot,
  /// epoch, wal_sync, stats, metrics) serially in order, the query spans
  /// between them in parallel on BatchPool(threads) — the shared core of
  /// ExecuteBatch and ExecuteBatchLines. With options_.max_queue > 0, span
  /// positions past the limit are handed to `shed_one` instead of running.
  template <typename VerbOf, typename RunOne, typename ShedOne>
  void RunSegmented(size_t count, const VerbOf& verb_of, const RunOne& run_one,
                    const ShedOne& shed_one, size_t threads);

  /// Lanes for a batch call; nullptr when `threads` resolves to 1.
  ThreadPool* BatchPool(size_t threads);

  ServiceOptions options_;
  LiveInstance* live_ = nullptr;  ///< null in static mode
  const KeySet* keys_;
  /// Epoch-independent base of every effective fingerprint (the served
  /// snapshot's fingerprint at construction).
  uint64_t base_fingerprint_ = 0;

  mutable std::mutex context_mu_;
  std::shared_ptr<const EpochContext> context_;

  mutable std::mutex plan_mu_;
  LruCache<std::string, std::shared_ptr<CompiledQuery>> plan_cache_;
  mutable std::mutex result_mu_;
  LruCache<ResultKey, std::string, ResultKeyHash> result_cache_;

  /// Lanes for ExecuteBatch, (re)built on demand like OcqaEngine::PoolFor.
  std::unique_ptr<ThreadPool> pool_;

  /// Metrics wiring. Stage handles are resolved once at construction, never
  /// per request.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  struct StageHandles {
    metrics::Counter* requests = nullptr;
    metrics::Histogram* parse = nullptr;
    metrics::Histogram* plan = nullptr;
    metrics::Histogram* planner = nullptr;
    metrics::Histogram* compile = nullptr;
    metrics::Histogram* exact_dp = nullptr;
    metrics::Histogram* fpras_trials = nullptr;
    metrics::Histogram* mc_trials = nullptr;
    metrics::Histogram* result_cache = nullptr;
    metrics::Histogram* batch_dispatch = nullptr;
    metrics::Histogram* request = nullptr;
    metrics::Counter* shed = nullptr;
  } stages_;
  /// Serializes slow-query sink calls across batch lanes.
  std::mutex slow_mu_;
};

/// Adds the exact work counters of one request's RF_ur / RF_us numerators
/// to `trace`: `exact_repairs` (repair views checked) and `exact_blocks`
/// (conflict blocks varied after support pruning), both sides summed.
/// Shared by `trace=1` and `uocqa --profile`, like AddFprasCounts.
void AddExactCounts(const ExactRF& ur, const ExactRF& us,
                    metrics::StageTrace* trace);

/// Adds the FPRAS work counters of one request's RF_ur / RF_us estimates
/// (a failed side counts zero) to `trace`: `fpras_trials` (KLM trials run),
/// `fpras_unions`, `fpras_groups_disjoint` and `fpras_cells`. Shared by
/// `trace=1` and `uocqa --profile`, so both report the same names.
void AddFprasCounts(const Result<ApproxRF>& ur, const Result<ApproxRF>& us,
                    metrics::StageTrace* trace);

}  // namespace uocqa

#endif  // UOCQA_SERVICE_SERVICE_H_
