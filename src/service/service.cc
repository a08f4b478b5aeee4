#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "base/failpoint.h"
#include "base/hashing.h"
#include "base/strings.h"
#include "base/version.h"
#include "db/value.h"
#include "query/parser.h"
#include "service/canonical.h"

namespace uocqa {

namespace {

/// Doubles are rendered with every bit of precision: payload byte-equality
/// must coincide with bit-equality of the underlying estimates (the
/// service_test determinism checks rely on this).
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<Value> ParseAnswerTuple(const std::string& text) {
  std::vector<Value> out;
  if (text.empty()) return out;
  for (const std::string& piece : StrSplit(text, ',')) {
    out.push_back(ValuePool::Intern(std::string(StrTrim(piece))));
  }
  return out;
}

/// The add_fact `args=` grammar is the answer-tuple grammar: comma-separated
/// constants, whitespace-trimmed.
std::vector<std::string> ParseFactArgs(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  for (const std::string& piece : StrSplit(text, ',')) {
    out.emplace_back(StrTrim(piece));
  }
  return out;
}

/// A per-request deadline, armed iff the request carried timeout_ms > 0.
/// Expiry is the real clock OR the "service.deadline" failpoint — the site
/// is only evaluated while a deadline is armed, so tests can force the
/// N-th deadline check of a deadline-carrying request to expire without
/// depending on wall-clock timing.
class Deadline {
 public:
  explicit Deadline(uint64_t timeout_ms) : armed_(timeout_ms > 0) {
    if (armed_) {
      expires_at_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    }
  }

  bool Expired() {
    if (!armed_) return false;
    static failpoint::Site deadline_fp("service.deadline");
    if (deadline_fp.Triggered()) return true;
    return std::chrono::steady_clock::now() >= expires_at_;
  }

 private:
  bool armed_;
  std::chrono::steady_clock::time_point expires_at_;
};

}  // namespace

std::string ServiceStats::ToString() const {
  std::string out;
  out += "requests=" + std::to_string(requests);
  out += " plan_hits=" + std::to_string(plan_hits);
  out += " plan_misses=" + std::to_string(plan_misses);
  out += " plan_evictions=" + std::to_string(plan_evictions);
  out += " result_hits=" + std::to_string(result_hits);
  out += " result_misses=" + std::to_string(result_misses);
  out += " result_evictions=" + std::to_string(result_evictions);
  if (has_live) {
    out += " epoch=" + std::to_string(epoch);
    out += " facts=" + std::to_string(facts);
    out += " pending=" + std::to_string(pending);
  }
  return out;
}

bool QueryService::ResultKey::operator==(const ResultKey& o) const {
  return fingerprint == o.fingerprint &&
         canonical_query == o.canonical_query && answer == o.answer &&
         mode == o.mode && epsilon == o.epsilon && delta == o.delta &&
         samples == o.samples && seed == o.seed && max_width == o.max_width &&
         explain == o.explain;
}

size_t QueryService::ResultKeyHash::operator()(const ResultKey& k) const {
  size_t seed = std::hash<std::string>{}(k.canonical_query);
  HashCombine(&seed, static_cast<size_t>(k.fingerprint));
  for (Value v : k.answer) HashCombine(&seed, v);
  HashCombine(&seed, static_cast<size_t>(k.mode));
  HashCombine(&seed, std::hash<double>{}(k.epsilon));
  HashCombine(&seed, std::hash<double>{}(k.delta));
  HashCombine(&seed, k.samples);
  HashCombine(&seed, static_cast<size_t>(k.seed));
  HashCombine(&seed, k.max_width);
  HashCombine(&seed, static_cast<size_t>(k.explain));
  return seed;
}

QueryService::QueryService(const Database& db, const KeySet& keys,
                           const ServiceOptions& options)
    : options_(options),
      keys_(&keys),
      plan_cache_(options.plan_cache_capacity),
      result_cache_(options.result_cache_capacity) {
  InitMetrics();
  // Static mode: wrap the externally owned instance in a non-owning epoch-0
  // snapshot. Blocks and denominators stay unset — the engine computes its
  // own denominators lazily, exactly as before live instances existed.
  auto snapshot = std::make_shared<InstanceSnapshot>();
  snapshot->db = std::shared_ptr<const Database>(&db, [](const Database*) {});
  snapshot->fact_chain = ExtendFactChain(0, db, 0);
  snapshot->fingerprint =
      FingerprintFromChain(snapshot->fact_chain, db, keys);
  snapshot->relation_epochs.assign(db.schema().relation_count(), 0);
  base_fingerprint_ = snapshot->fingerprint;
  InstallContext(std::move(snapshot));
}

QueryService::QueryService(LiveInstance& live, const ServiceOptions& options)
    : options_(options),
      live_(&live),
      keys_(&live.keys()),
      plan_cache_(options.plan_cache_capacity),
      result_cache_(options.result_cache_capacity) {
  InitMetrics();
  std::shared_ptr<const InstanceSnapshot> snapshot = live.Current();
  base_fingerprint_ = snapshot->fingerprint;
  InstallContext(std::move(snapshot));
}

void QueryService::InitMetrics() {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  stages_.requests = metrics_->GetCounter("uocqa_requests_total");
  stages_.parse = metrics_->GetHistogram("uocqa_stage_parse_us");
  stages_.plan = metrics_->GetHistogram("uocqa_stage_plan_us");
  stages_.planner = metrics_->GetHistogram("uocqa_stage_planner_us");
  stages_.compile = metrics_->GetHistogram("uocqa_stage_compile_us");
  stages_.exact_dp = metrics_->GetHistogram("uocqa_stage_exact_dp_us");
  stages_.fpras_trials =
      metrics_->GetHistogram("uocqa_stage_fpras_trials_us");
  stages_.mc_trials = metrics_->GetHistogram("uocqa_stage_mc_trials_us");
  stages_.result_cache =
      metrics_->GetHistogram("uocqa_stage_result_cache_us");
  stages_.batch_dispatch =
      metrics_->GetHistogram("uocqa_stage_batch_dispatch_us");
  stages_.request = metrics_->GetHistogram("uocqa_stage_request_us");
  stages_.shed = metrics_->GetCounter("uocqa_requests_shed_total");
  // Pre-register the stages recorded by other layers (engine denominators,
  // live snapshot publish) so the exposition always lists the full stage
  // set, even before the first event.
  metrics_->GetHistogram("uocqa_stage_denominators_us");
  metrics_->GetHistogram("uocqa_stage_snapshot_publish_us");
  plan_cache_.BindCounters(
      metrics_->GetCounter("uocqa_plan_cache_hits_total"),
      metrics_->GetCounter("uocqa_plan_cache_misses_total"),
      metrics_->GetCounter("uocqa_plan_cache_evictions_total"));
  result_cache_.BindCounters(
      metrics_->GetCounter("uocqa_result_cache_hits_total"),
      metrics_->GetCounter("uocqa_result_cache_misses_total"),
      metrics_->GetCounter("uocqa_result_cache_evictions_total"));
  // Last writer wins if several services share one LiveInstance; each
  // service's own request-path stages stay per-service regardless.
  if (live_ != nullptr) live_->SetMetrics(metrics_);
}

std::shared_ptr<const QueryService::EpochContext> QueryService::InstallContext(
    std::shared_ptr<const InstanceSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(context_mu_);
    if (context_ && context_->snapshot == snapshot) return context_;
  }
  auto ctx = std::make_shared<EpochContext>();
  ctx->snapshot = std::move(snapshot);
  ctx->engine = std::make_unique<OcqaEngine>(*ctx->snapshot->db, *keys_);
  ctx->engine->SetMetrics(metrics_);
  if (ctx->snapshot->denominators != nullptr) {
    // Hand the snapshot's delta-maintained denominators to the fresh
    // engine: no request ever recomputes the block partition just to
    // divide by |ORep| or |CRS|.
    ctx->engine->SeedDenominators(ctx->snapshot->denominators->orep(),
                                  ctx->snapshot->denominators->crs());
  }
  std::lock_guard<std::mutex> lock(context_mu_);
  // A racing begin_snapshot may have published a newer epoch; never roll
  // the served context backwards.
  if (context_ == nullptr ||
      context_->snapshot->epoch <= ctx->snapshot->epoch) {
    context_ = ctx;
  }
  return context_;
}

std::shared_ptr<const QueryService::EpochContext> QueryService::CurrentContext()
    const {
  std::lock_guard<std::mutex> lock(context_mu_);
  return context_;
}

const Database& QueryService::db() const {
  return *CurrentContext()->snapshot->db;
}

uint64_t QueryService::instance_fingerprint() const {
  return CurrentContext()->snapshot->fingerprint;
}

uint64_t QueryService::epoch() const {
  return CurrentContext()->snapshot->epoch;
}

ServiceResponse QueryService::Execute(const Request& request) {
  return Run(request);
}

std::vector<ServiceResponse> QueryService::ExecuteBatch(
    const std::vector<Request>& requests, size_t threads) {
  std::vector<ServiceResponse> out(requests.size());
  auto verb_of = [&](size_t i) { return requests[i].verb; };
  auto run_one = [&](size_t i) { out[i] = Run(requests[i]); };
  auto shed_one = [&](size_t i) {
    out[i].status = Status::Unavailable(
        "request shed: admission queue full (max_queue=" +
        std::to_string(options_.max_queue) + ")");
  };
  RunSegmented(requests.size(), verb_of, run_one, shed_one, threads);
  return out;
}

std::vector<ServiceResponse> QueryService::ExecuteBatchLines(
    const std::vector<std::string>& lines, size_t threads) {
  std::vector<ServiceResponse> out(lines.size());
  std::vector<std::optional<Request>> parsed(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    Result<Request> r = ParseRequestLine(lines[i]);
    if (r.ok()) {
      parsed[i] = std::move(r).value();
    } else {
      out[i].status = r.status();
    }
  }
  // Parse failures are inert (their slot already holds the error), so they
  // never act as barriers.
  auto verb_of = [&](size_t i) {
    return parsed[i].has_value() ? parsed[i]->verb : RequestVerb::kQuery;
  };
  auto run_one = [&](size_t i) {
    if (parsed[i].has_value()) out[i] = Run(*parsed[i]);
  };
  // A parse failure keeps its (more specific) error even when its slot
  // falls in the shed region.
  auto shed_one = [&](size_t i) {
    if (!parsed[i].has_value()) return;
    out[i].status = Status::Unavailable(
        "request shed: admission queue full (max_queue=" +
        std::to_string(options_.max_queue) + ")");
  };
  RunSegmented(lines.size(), verb_of, run_one, shed_one, threads);
  return out;
}

template <typename VerbOf, typename RunOne, typename ShedOne>
void QueryService::RunSegmented(size_t count, const VerbOf& verb_of,
                                const RunOne& run_one, const ShedOne& shed_one,
                                size_t threads) {
  // Write/epoch/wal verbs are serial barriers: every request before one
  // sees the pre-verb state, every request after it the post-verb state, at
  // any lane count — that is what makes mixed read/write batches
  // deterministic. `stats` and `metrics` are barriers too, so their
  // counters cover exactly the requests before them.
  auto is_barrier = [](RequestVerb v) {
    return v == RequestVerb::kAddFact || v == RequestVerb::kBeginSnapshot ||
           v == RequestVerb::kEpoch || v == RequestVerb::kWalSync ||
           v == RequestVerb::kStats || v == RequestVerb::kMetrics;
  };
  size_t start = 0;
  auto run_span = [&](size_t begin, size_t end) {
    if (begin >= end) return;
    size_t admit_end = end;
    if (options_.max_queue > 0 && end - begin > options_.max_queue) {
      // Deterministic load shedding: the span models the admission queue
      // filling in request order — exactly the first max_queue requests of
      // the span run, the overflow answers `err busy` without running. The
      // decision is positional (stream order), never racy runtime depth, so
      // the same requests shed at every lane count.
      admit_end = begin + options_.max_queue;
      for (size_t i = admit_end; i < end; ++i) shed_one(i);
      metrics::Add(stages_.shed, end - admit_end);
    }
    // One record per parallel span: wall-clock from dispatch to the last
    // lane finishing, the batch executor's unit of work.
    metrics::ScopedTimer dispatch_timer(stages_.batch_dispatch);
    ParallelForOn(BatchPool(threads), admit_end - begin,
                  [&](size_t i) { run_one(begin + i); }, /*grain=*/1);
  };
  for (size_t i = 0; i < count; ++i) {
    if (is_barrier(verb_of(i))) {
      run_span(start, i);
      run_one(i);
      start = i + 1;
    }
  }
  run_span(start, count);
}

ThreadPool* QueryService::BatchPool(size_t threads) {
  size_t lanes = threads == 0 ? HardwareThreads() : threads;
  if (lanes == 1) return nullptr;
  if (!pool_ || pool_->thread_count() != lanes) {
    pool_ = std::make_unique<ThreadPool>(lanes, metrics_);
  }
  return pool_.get();
}

std::string QueryService::PlanKey(const EpochContext& ctx,
                                  const std::string& canonical) const {
  if (live_ == nullptr) return canonical;
  // A CompiledQuery embeds its epoch's normal-form instance, so live plans
  // are per-epoch. Canonical text always starts with "Ans(", so the prefix
  // is unambiguous.
  return "e" + std::to_string(ctx.snapshot->epoch) + ":" + canonical;
}

uint64_t QueryService::EffectiveFingerprint(const EpochContext& ctx,
                                            const ConjunctiveQuery& query,
                                            RequestMode mode,
                                            bool explain) const {
  const InstanceSnapshot& snap = *ctx.snapshot;
  if (live_ == nullptr) return snap.fingerprint;
  size_t seed = static_cast<size_t>(base_fingerprint_);
  if (mode == RequestMode::kFpras || mode == RequestMode::kAll || explain) {
    // Full-instance dependence: the Appendix-E normal form pads every
    // relation into the FPRAS automata, and explain's plan cost fields read
    // global statistics. Any ingest invalidates.
    HashCombine(&seed, static_cast<size_t>(snap.epoch));
    return static_cast<uint64_t>(seed);
  }
  // exact/mc: scoped to the query's own relations plus the global conflict
  // structure (see the file comment in service.h for the argument).
  HashCombine(&seed, static_cast<size_t>(snap.conflict_epoch));
  std::vector<RelationId> footprint;
  footprint.reserve(query.atoms().size());
  for (const QueryAtom& atom : query.atoms()) {
    footprint.push_back(atom.relation);
  }
  std::sort(footprint.begin(), footprint.end());
  footprint.erase(std::unique(footprint.begin(), footprint.end()),
                  footprint.end());
  for (RelationId rel : footprint) {
    HashCombine(&seed, static_cast<size_t>(rel));
    uint64_t rel_epoch = rel < snap.relation_epochs.size()
                             ? snap.relation_epochs[rel]
                             : 0;
    HashCombine(&seed, static_cast<size_t>(rel_epoch));
  }
  return static_cast<uint64_t>(seed);
}

Result<std::shared_ptr<CompiledQuery>> QueryService::PlanFor(
    const EpochContext& ctx, const std::string& canonical,
    const ConjunctiveQuery& query, metrics::StageTrace* trace) {
  // plan_us covers the whole lookup-or-compile; on a cache hit it is just
  // the lock + LRU touch.
  metrics::ScopedStage plan_stage(stages_.plan, trace, "plan_us");
  std::string key = PlanKey(ctx, canonical);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    std::optional<std::shared_ptr<CompiledQuery>> hit = plan_cache_.Get(key);
    if (hit.has_value()) return *hit;
  }
  OcqaOptions options;
  options.max_width = options_.max_width;
  Result<CompiledQuery> compiled = [&]() -> Result<CompiledQuery> {
    metrics::ScopedStage compile_stage(stages_.compile, trace, "compile_us");
    return ctx.engine->Compile(query, options);
  }();
  if (!compiled.ok()) return compiled.status();
  // The planner's share of the compile is measured inside Compile itself
  // (QueryPlan::planning_micros); mirror it as its own stage so the
  // histogram separates plan search from normal-form conversion.
  uint64_t planner_us =
      static_cast<uint64_t>(compiled.value().plan().planning_micros);
  metrics::Record(stages_.planner, planner_us);
  if (trace != nullptr && trace->active) {
    trace->spans.emplace_back("planner_us", planner_us);
  }
  auto plan = std::make_shared<CompiledQuery>(std::move(compiled).value());
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    // Another lane may have raced us to the same plan; keep the published
    // one so every request shares a single automaton memo. (Find, not Get:
    // this request's semantic miss was already counted above.)
    std::optional<std::shared_ptr<CompiledQuery>> existing =
        plan_cache_.Find(key);
    if (existing.has_value()) return *existing;
    plan_cache_.Put(key, plan);
  }
  return plan;
}

ServiceResponse QueryService::Run(const Request& request) {
  if (request.verb == RequestVerb::kStats) {
    // Introspection, not a query: skip the request counter and both caches
    // (timings change between runs, so the payload must never replay).
    ServiceResponse out;
    out.payload = StatsPayload();
    return out;
  }
  if (request.verb == RequestVerb::kMetrics) {
    // Same introspection contract as stats: never counted, never cached.
    ServiceResponse out;
    out.payload = metrics_->OneLineText();
    return out;
  }
  if (request.verb == RequestVerb::kVersion) {
    ServiceResponse out;
    out.payload = VersionFields();
    return out;
  }
  stages_.requests->Increment();
  if (request.verb != RequestVerb::kQuery) return RunControl(request);
  // Pin this request's epoch: everything below — parse, cache lookups, the
  // solvers — runs against one immutable snapshot, however many snapshots
  // a concurrent writer publishes meanwhile.
  std::shared_ptr<const EpochContext> ctx = CurrentContext();
  return RunQuery(request, *ctx);
}

ServiceResponse QueryService::RunControl(const Request& request) {
  ServiceResponse out;
  switch (request.verb) {
    case RequestVerb::kEpoch: {
      std::shared_ptr<const EpochContext> ctx = CurrentContext();
      out.payload = "facts=" + std::to_string(ctx->snapshot->db->size());
      out.has_epoch = true;
      out.epoch = ctx->snapshot->epoch;
      return out;
    }
    case RequestVerb::kAddFact: {
      if (live_ == nullptr) {
        out.status = Status::InvalidArgument(
            "add_fact requires a live service");
        return out;
      }
      out.status = live_->Add(request.fact_relation,
                              ParseFactArgs(request.fact_args));
      if (!out.status.ok()) {
        // A dead WAL writer reports Unavailable; rewrap so the response
        // renders as a hard error, not the retryable `err busy` that code
        // means for load shedding.
        if (out.status.code() == StatusCode::kUnavailable) {
          out.status = Status::Internal(out.status.message());
        }
        return out;
      }
      out.payload = "pending=" + std::to_string(live_->pending());
      std::shared_ptr<const EpochContext> ctx = CurrentContext();
      out.has_epoch = true;
      out.epoch = ctx->snapshot->epoch;
      return out;
    }
    case RequestVerb::kBeginSnapshot: {
      if (live_ == nullptr) {
        out.status = Status::InvalidArgument(
            "begin_snapshot requires a live service");
        return out;
      }
      Status wal_status;
      std::shared_ptr<const InstanceSnapshot> snapshot =
          live_->Snapshot(&wal_status);
      if (!wal_status.ok()) {
        // Nothing was published (write-ahead ordering): keep serving the
        // previous epoch and report the durability failure hard.
        out.status = Status::Internal(wal_status.message());
        return out;
      }
      std::shared_ptr<const EpochContext> ctx =
          InstallContext(std::move(snapshot));
      out.payload = "facts=" + std::to_string(ctx->snapshot->db->size());
      out.has_epoch = true;
      out.epoch = ctx->snapshot->epoch;
      return out;
    }
    case RequestVerb::kWalSync: {
      if (live_ == nullptr) {
        out.status = Status::InvalidArgument(
            "wal_sync requires a live service");
        return out;
      }
      if (live_->has_wal()) {
        Status st = live_->SyncWal();
        if (!st.ok()) {
          out.status = Status::Internal(st.message());
          return out;
        }
        out.payload = std::string("synced=1 policy=") +
                      WalSyncPolicyName(live_->wal_policy());
      } else {
        out.payload = "synced=0 policy=off";
      }
      std::shared_ptr<const EpochContext> ctx = CurrentContext();
      out.has_epoch = true;
      out.epoch = ctx->snapshot->epoch;
      return out;
    }
    case RequestVerb::kQuery:
    case RequestVerb::kStats:
    case RequestVerb::kMetrics:
    case RequestVerb::kVersion:
      break;
  }
  out.status = Status::InvalidArgument("unhandled request verb");
  return out;
}

ServiceResponse QueryService::RunQuery(const Request& request,
                                       const EpochContext& ctx) {
  // The wrapper owns everything timing-related; RunQueryCore computes the
  // payload bytes and never sees whether tracing is on, which is how the
  // bytes-never-change contract is enforced structurally.
  metrics::StageTrace trace;
  trace.active = request.trace || options_.slow_query_micros > 0;
  std::string canonical;
  ServiceResponse out;
  {
    metrics::ScopedStage total(stages_.request, &trace, "total_us");
    out = RunQueryCore(request, ctx, &trace, &canonical);
  }
  // total_us is the last span the scope above appended (when collecting).
  if (request.trace) out.trace = trace.ToString();
  if (options_.slow_query_micros > 0 && !trace.spans.empty() &&
      trace.spans.back().second >= options_.slow_query_micros) {
    std::string line = "slow_query query=" +
                       QuoteProtocolValue(canonical.empty()
                                              ? request.query_text
                                              : canonical) +
                       " " + trace.ToString();
    std::lock_guard<std::mutex> lock(slow_mu_);
    if (options_.slow_query_sink) {
      options_.slow_query_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  return out;
}

ServiceResponse QueryService::RunQueryCore(const Request& request,
                                           const EpochContext& ctx,
                                           metrics::StageTrace* trace,
                                           std::string* canonical_out) {
  ServiceResponse out;
  const Database& db = *ctx.snapshot->db;
  const OcqaEngine& engine = *ctx.engine;
  if (live_ != nullptr) {
    out.has_epoch = true;
    out.epoch = ctx.snapshot->epoch;
  }
  // The deadline is checked at the stage seams below; an expired request
  // abandons its remaining stages, discards any partial payload, and never
  // enters the result cache (a timeout must not poison later requests).
  Deadline deadline(request.timeout_ms);
  auto timed_out = [&](ServiceResponse* r) {
    if (!deadline.Expired()) return false;
    r->status = Status::DeadlineExceeded(
        "deadline of " + std::to_string(request.timeout_ms) +
        " ms exceeded");
    r->payload.clear();
    r->cache_hit = false;
    return true;
  };
  out.status = ValidateAccuracy(request.epsilon, request.delta,
                                request.samples);
  if (!out.status.ok()) return out;

  Result<ConjunctiveQuery> query = [&]() -> Result<ConjunctiveQuery> {
    metrics::ScopedStage parse_stage(stages_.parse, trace, "parse_us");
    return ParseQuery(request.query_text, db.schema());
  }();
  if (!query.ok()) {
    out.status = query.status();
    return out;
  }
  std::vector<Value> answer = ParseAnswerTuple(request.answer_text);
  if (answer.size() != query->answer_vars().size()) {
    out.status = Status::InvalidArgument(
        "answer arity mismatch: query has " +
        std::to_string(query->answer_vars().size()) +
        " answer variables, answer provided " +
        std::to_string(answer.size()) + " constants");
    return out;
  }

  std::string& canonical = *canonical_out;
  canonical = CanonicalQueryText(*query);
  ResultKey key;
  key.fingerprint =
      EffectiveFingerprint(ctx, *query, request.mode, request.explain);
  key.canonical_query = canonical;
  key.answer = answer;
  key.mode = request.mode;
  // Key on the accuracy parameters the mode's solvers read and no others,
  // so requests differing only in an unread field share one entry (exact
  // reads none of them).
  const bool reads_fpras = request.mode == RequestMode::kAll ||
                           request.mode == RequestMode::kFpras;
  const bool reads_mc = request.mode == RequestMode::kAll ||
                        request.mode == RequestMode::kMc;
  if (reads_fpras) {
    key.epsilon = request.epsilon;
    key.delta = request.delta;
  }
  if (reads_mc) key.samples = request.samples;
  if (reads_fpras || reads_mc) key.seed = request.seed;
  key.max_width = options_.max_width;
  key.explain = request.explain;
  {
    metrics::ScopedStage cache_stage(stages_.result_cache, trace,
                                     "result_cache_us");
    std::lock_guard<std::mutex> lock(result_mu_);
    std::optional<std::string> hit = result_cache_.Get(key);
    if (hit.has_value()) {
      out.payload = std::move(*hit);
      out.cache_hit = true;
      trace->AddCount("cache_hit", 1);
      return out;
    }
  }
  trace->AddCount("cache_hit", 0);
  if (timed_out(&out)) return out;

  std::string payload;
  auto append = [&payload](const std::string& field) {
    if (!payload.empty()) payload += " ";
    payload += field;
  };
  bool all = request.mode == RequestMode::kAll;

  bool traced_planner_nodes = false;
  auto trace_planner_nodes = [&](const CompiledQuery& plan) {
    if (traced_planner_nodes) return;
    traced_planner_nodes = true;
    double cost = plan.plan().order_cost;
    trace->AddCount("planner_nodes",
                    cost > 0 ? static_cast<uint64_t>(cost) : 0);
  };

  if (all || request.mode == RequestMode::kExact) {
    metrics::ScopedStage exact_stage(stages_.exact_dp, trace, "exact_dp_us");
    ExactRF ur = engine.ExactUr(*query, answer);
    ExactRF us = engine.ExactUs(*query, answer);
    append("exact_ur=" + ur.numerator.ToString() + "/" +
           ur.denominator.ToString());
    append("exact_us=" + us.numerator.ToString() + "/" +
           us.denominator.ToString());
    AddExactCounts(ur, us, trace);
  }
  if (timed_out(&out)) return out;
  if (all || request.mode == RequestMode::kFpras) {
    Result<std::shared_ptr<CompiledQuery>> plan =
        PlanFor(ctx, canonical, *query, trace);
    if (!plan.ok()) {
      append("fpras_error='" + plan.status().ToString() + "'");
    } else {
      trace_planner_nodes(**plan);
      OcqaOptions options;
      options.fpras.epsilon = request.epsilon;
      options.fpras.delta = request.delta;
      options.fpras.seed = request.seed;
      options.max_width = options_.max_width;
      options.threads = 1;  // batch lanes are the parallelism
      metrics::ScopedStage fpras_stage(stages_.fpras_trials, trace,
                                       "fpras_trials_us");
      Result<ApproxRF> ur = engine.ApproxUr(**plan, answer, options);
      append(ur.ok() ? "fpras_ur=" + FormatDouble(ur->value) : "fpras_ur=na");
      Result<ApproxRF> us = engine.ApproxUs(**plan, answer, options);
      append(us.ok() ? "fpras_us=" + FormatDouble(us->value) : "fpras_us=na");
      AddFprasCounts(ur, us, trace);
    }
  }
  if (timed_out(&out)) return out;
  if (all || request.mode == RequestMode::kMc) {
    metrics::ScopedStage mc_stage(stages_.mc_trials, trace, "mc_trials_us");
    append("mc_ur=" + FormatDouble(engine.MonteCarloUr(
                          *query, answer, request.samples, request.seed,
                          /*threads=*/1)));
    append("mc_us=" + FormatDouble(engine.MonteCarloUs(
                          *query, answer, request.samples, request.seed,
                          /*threads=*/1)));
    trace->AddCount("mc_samples", 2 * request.samples);
  }
  if (request.explain) {
    // The plan's Fields() are deterministic (no timing), so explain
    // payloads replay byte-identically like every other cached result.
    // Compiling through PlanFor shares the plan cache even in exact/mc
    // modes, where the solvers themselves don't need the artifact.
    Result<std::shared_ptr<CompiledQuery>> plan =
        PlanFor(ctx, canonical, *query, trace);
    if (plan.ok()) {
      trace_planner_nodes(**plan);
      append((*plan)->plan().Fields());
    } else {
      append("explain_error='" + plan.status().ToString() + "'");
    }
  }

  // A request that ran out of budget after its last solver stage still
  // reports the timeout — and, critically, its payload must not be cached:
  // the entry would be indistinguishable from a completed one.
  if (timed_out(&out)) return out;
  {
    // Failpoint: drop the insertion (the entry never lands in the cache).
    // The response is computed either way — the timeout/shed tests use this
    // to pin that payload bytes never depend on cache insertion succeeding.
    static failpoint::Site cache_insert_fp("service.result_cache.insert");
    if (!cache_insert_fp.Triggered()) {
      metrics::ScopedTimer put_timer(stages_.result_cache);
      std::lock_guard<std::mutex> lock(result_mu_);
      result_cache_.Put(key, payload);
    }
  }
  out.payload = std::move(payload);
  return out;
}

std::string QueryService::StatsPayload() const {
  // The live-instance fields now ride inside ServiceStats::ToString(); the
  // payload bytes are unchanged from when this function appended them.
  std::string out = stats().ToString();
  std::lock_guard<std::mutex> lock(plan_mu_);
  out += " plans_cached=" + std::to_string(plan_cache_.size());
  plan_cache_.ForEach([&out](const std::string& key,
                             const std::shared_ptr<CompiledQuery>& plan) {
    out += " plan=" + QuoteProtocolValue(key) + " planning_us=" +
           std::to_string(plan->plan().planning_micros);
  });
  return out;
}

ServiceStats QueryService::stats() const {
  // The registry is the single source of truth: the request counter and
  // both caches record there, so the stats verb and the Prometheus
  // exposition can never disagree.
  auto value = [this](const char* name) {
    return static_cast<size_t>(metrics_->GetCounter(name)->Value());
  };
  ServiceStats out;
  out.requests = static_cast<size_t>(stages_.requests->Value());
  out.plan_hits = value("uocqa_plan_cache_hits_total");
  out.plan_misses = value("uocqa_plan_cache_misses_total");
  out.plan_evictions = value("uocqa_plan_cache_evictions_total");
  out.result_hits = value("uocqa_result_cache_hits_total");
  out.result_misses = value("uocqa_result_cache_misses_total");
  out.result_evictions = value("uocqa_result_cache_evictions_total");
  if (live_ != nullptr) {
    std::shared_ptr<const EpochContext> ctx = CurrentContext();
    out.has_live = true;
    out.epoch = ctx->snapshot->epoch;
    out.facts = ctx->snapshot->db->size();
    out.pending = live_->pending();
  }
  return out;
}

void AddExactCounts(const ExactRF& ur, const ExactRF& us,
                    metrics::StageTrace* trace) {
  trace->AddCount("exact_repairs", ur.repairs_checked + us.repairs_checked);
  trace->AddCount("exact_blocks", ur.blocks_varied + us.blocks_varied);
}

void AddFprasCounts(const Result<ApproxRF>& ur, const Result<ApproxRF>& us,
                    metrics::StageTrace* trace) {
  auto sum = [&](size_t ApproxRF::*field) -> uint64_t {
    return (ur.ok() ? (*ur).*field : 0) + (us.ok() ? (*us).*field : 0);
  };
  trace->AddCount("fpras_trials", sum(&ApproxRF::klm_trials));
  trace->AddCount("fpras_unions", sum(&ApproxRF::union_trials));
  trace->AddCount("fpras_groups_disjoint", sum(&ApproxRF::groups_disjoint));
  trace->AddCount("fpras_cells", sum(&ApproxRF::cells));
}

}  // namespace uocqa
