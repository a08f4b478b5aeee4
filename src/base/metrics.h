// Engine-wide metrics: a registry of named counters, gauges, and log₂
// latency histograms, cheap enough to stay on in Release builds.
//
// The service layer spans eight subsystems (index → planner → compiled
// NFTA → SIMD kernels → FPRAS/exact solvers → caches → MVCC live
// instances); until this module the only window into a running instance was
// the cache hit/miss counters. The registry gives every stage of the
// request path a named instrument:
//
//  * `Counter`   — monotone atomic uint64 (requests served, pool steals);
//  * `Gauge`     — last-written atomic int64 (pending delta depth, epoch);
//  * `Histogram` — fixed log₂ buckets over non-negative values (latency in
//    microseconds by convention, `*_us` names), with p50/p95/p99 readout.
//
// Design constraints, in order:
//
//  1. **Observability never changes a single response byte.** Instruments
//     only ever *read* the clock and *write* their own atomics; nothing in
//     this module feeds back into planning, sampling, or cache decisions.
//     The service determinism suites pin payload bytes with tracing on and
//     off (tests/observability_test.cc).
//  2. **No-op when absent.** Every consumer holds nullable handle pointers
//     and records through the null-tolerant helpers below (or ScopedStage,
//     which skips even the clock read when it has nowhere to write), so the
//     engine, live instances and thread pools run unchanged without a
//     service. A service always has a registry.
//  3. **Hot-path cost is one relaxed fetch_add** (plus one steady_clock
//     read per timed stage). Handles are resolved by name once, at
//     registration time, never per request.
//
// A registry is *instantiable*: QueryService owns one per service so that
// per-service stats stay correct when several services share a process
// (every test suite does this). `Registry::Global()` is the process-wide
// default for contexts with no owning service.

#ifndef UOCQA_BASE_METRICS_H_
#define UOCQA_BASE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace uocqa {
namespace metrics {

/// A monotone counter. All operations are relaxed atomics: totals are
/// exact, cross-instrument snapshots may be momentarily skewed while other
/// threads record (exposition is diagnostic, never semantic).
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A last-written value (may go down: pending queue depth, current epoch).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket log₂ histogram over uint64 values (latencies in
/// microseconds by convention).
///
/// Bucket i holds values v with BitWidth(v) == i: bucket 0 is exactly
/// {0}, bucket i (i >= 1) is [2^(i-1), 2^i - 1]. 65 buckets cover the full
/// uint64 range, so recording never clamps. Recording is two relaxed
/// fetch_adds (bucket + sum) — no locks, safe from any thread.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  /// Inclusive upper bound of bucket `i` — what percentiles report.
  static uint64_t BucketUpperBound(size_t i);
  /// The bucket `value` lands in.
  static size_t BucketIndex(uint64_t value);

  void Record(uint64_t value);

  /// A point-in-time copy, with the percentile math in one place.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// Upper-bound estimate of the q-quantile (q in [0, 1]): the inclusive
    /// upper edge of the first bucket whose cumulative count reaches
    /// ceil(q * count) (at least 1). Returns 0 for an empty histogram.
    /// Exact whenever all recorded values share a bucket; otherwise off by
    /// at most the bucket width (a factor of 2).
    uint64_t Percentile(double q) const;
  };
  Snapshot Take() const;

 private:
  // No separate count cell: Snapshot::count is the bucket sum, so Record
  // stays at two fetch_adds.
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Null-tolerant recording helpers: the uninstrumented path costs one
/// branch.
inline void Add(Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->Add(n);
}
inline void Set(Gauge* g, int64_t v) {
  if (g != nullptr) g->Set(v);
}
inline void Record(Histogram* h, uint64_t v) {
  if (h != nullptr) h->Record(v);
}

/// A named registry of instruments. Get-or-create by name; returned
/// pointers are stable for the registry's lifetime (instruments are never
/// removed), so consumers resolve names once and keep the handle.
///
/// Names follow Prometheus conventions ([a-zA-Z_][a-zA-Z0-9_]*, the
/// exposition renders them verbatim): `uocqa_<subsystem>_<what>[_total|_us]`.
/// A name identifies one instrument of one kind; asking for an existing
/// name as a different kind returns a distinct instrument (kinds live in
/// separate namespaces) — avoid relying on that.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// The process-wide default registry (never destroyed).
  static Registry* Global();

  /// Prometheus text exposition format, version 0.0.4: counters as
  /// `# TYPE n counter` / `n v`, gauges as gauge, histograms as cumulative
  /// `n_bucket{le="..."}` series (le = inclusive bucket upper bounds, up to
  /// the highest non-empty bucket, then `+Inf`) plus `n_sum` / `n_count`.
  /// Instruments are rendered in name order per kind — byte-stable given
  /// stable values.
  std::string PrometheusText() const;

  /// One-line exposition for the service `metrics` verb: space-separated
  /// `name=value` for counters and gauges, and
  /// `name_count= name_sum= name_p50= name_p95= name_p99=` per histogram,
  /// in name order per kind (counters, then gauges, then histograms).
  std::string OneLineText() const;

 private:
  mutable std::mutex mu_;
  // std::map: exposition iterates in name order without re-sorting.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// A per-request span collection — the `trace=1` / `--profile` /
/// slow-query-log rendering unit. Plain data, single-threaded, owned by one
/// request for its lifetime; `active == false` makes every ScopedStage
/// attached to it skip collection.
struct StageTrace {
  bool active = false;
  /// (stage key, micros), in completion order. Keys are `*_us` names.
  std::vector<std::pair<const char*, uint64_t>> spans;
  /// Extra per-request counters (trials run, planner nodes, ...).
  std::vector<std::pair<const char*, uint64_t>> counts;

  void AddCount(const char* key, uint64_t v) {
    if (active) counts.emplace_back(key, v);
  }

  /// `key=value` pairs separated by single spaces, spans first.
  std::string ToString() const;
};

/// RAII stage timer feeding a histogram, a StageTrace, or both; with
/// neither (null histogram, null/inactive trace) it never reads the clock.
class ScopedStage {
 public:
  ScopedStage(Histogram* h, StageTrace* trace, const char* key)
      : h_(h),
        trace_(trace != nullptr && trace->active ? trace : nullptr),
        key_(key) {
    if (h_ != nullptr || trace_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedStage() {
    if (h_ == nullptr && trace_ == nullptr) return;
    uint64_t us = ElapsedMicros();
    if (h_ != nullptr) h_->Record(us);
    if (trace_ != nullptr) trace_->spans.emplace_back(key_, us);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  Histogram* h_;
  StageTrace* trace_;
  const char* key_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer for a single histogram (no trace) — the simple case.
class ScopedTimer : public ScopedStage {
 public:
  explicit ScopedTimer(Histogram* h) : ScopedStage(h, nullptr, "") {}
};

}  // namespace metrics

/// The registry type under its issue-facing name.
using MetricsRegistry = metrics::Registry;

}  // namespace uocqa

#endif  // UOCQA_BASE_METRICS_H_
