// The OCQA engine: end-to-end solvers for OCQA_ur and OCQA_us (paper §3.1).
//
// Given (D, Sigma, Q, c̄) with Q self-join-free of bounded generalized
// hypertreewidth, the FPRAS pipeline (Theorem 3.6) is:
//   1. compute a GHD of Q (join tree if acyclic, width-k search otherwise —
//      the paper's §3.2 only needs *some* width-O(k) decomposition);
//   2. convert (D, Q, H) to normal form (Appendix E; width k+1);
//   3. compile Rep[k] / Seq[k] into an NFTA (Lemmas 5.2, 5.3);
//   4. approximate the numerator via the ♯NFTA FPRAS (Theorem 4.6 / D.1);
//   5. divide by the polynomial-time exact denominator |ORep| / |CRS| [13].
//
// The engine also exposes: exact numerators through the same automata
// (behaviour-set counting — validates the compilation against brute force),
// brute-force exact RF (repairs/counting.h), Monte-Carlo baselines over the
// exact-uniform samplers (the data-complexity regime of [13]), and the
// ♯SRepairs variant for classical subset repairs (§5.1).

#ifndef UOCQA_OCQA_ENGINE_H_
#define UOCQA_OCQA_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "automata/fpras.h"
#include "base/bigint.h"
#include "base/metrics.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "db/database.h"
#include "db/keys.h"
#include "hypertree/normal_form.h"
#include "planner/planner.h"
#include "ocqa/rep_builder.h"
#include "ocqa/seq_builder.h"
#include "query/cq.h"
#include "repairs/counting.h"

namespace uocqa {

/// Options of one engine call.
struct OcqaOptions {
  /// FPRAS tuning knobs (accuracy targets, sample budgets, seed). The
  /// engine overrides `fpras.threads` with the resolved `threads` below.
  FprasConfig fpras;
  /// Maximum decomposition width to search for cyclic queries.
  size_t max_width = 6;
  /// Execution lanes for the parallel paths (FPRAS trials, Monte-Carlo
  /// sampling, block partitioning): 0 = hardware concurrency, 1 = strictly
  /// serial. Results are bit-identical at every value — parallel work is
  /// split into fixed chunks with one deterministic RNG stream each — so
  /// this knob trades wall-clock time only.
  size_t threads = 0;
};

/// Result of an approximate relative-frequency computation.
struct ApproxRF {
  double numerator = 0;   ///< estimated count
  double denominator = 0; ///< exact count (as double)
  double value = 0;       ///< numerator / denominator (0 if denominator 0)
  size_t automaton_states = 0;
  size_t automaton_transitions = 0;
  // FPRAS work counters for this call (diagnostics; fully determined by the
  // config and automaton, so reporting them cannot perturb the estimate).
  /// KLM union estimations run (groups whose components really overlap).
  size_t union_trials = 0;
  /// KLM trials run, summed over those unions.
  size_t klm_trials = 0;
  /// Multi-component groups proved pairwise disjoint and summed exactly.
  size_t groups_disjoint = 0;
  /// Non-empty (state, size) cells built.
  size_t cells = 0;
};

/// The reusable output of the engine's shared pipeline prefix: the GHD of
/// the query, its Appendix-E normal form, and the key set remapped onto the
/// normal-form schema — plus a memo of the Rep[k]/Seq[k] automata compiled
/// from it, keyed by answer tuple. (The exact |ORep| / |CRS| denominators
/// depend only on the instance and are memoized engine-side, shared by all
/// plans.)
///
/// Produced once per (query, width config) by OcqaEngine::Compile, a
/// CompiledQuery serves any number of subsequent calls: repeated queries —
/// including variable renamings, which compile to the same artifact — skip
/// decomposition, normal-form conversion, and NFTA compilation entirely.
/// This is the unit the service layer's plan cache stores.
///
/// Thread safety: the automaton memo is guarded by an internal mutex (held
/// across a first-touch build, so cold concurrent compiles of the same plan
/// serialize — the hot path is a memo hit), and every automaton's lazy
/// views — the symbol index and the flattened CompiledNfta that all solvers
/// run on (compiled_nfta.h) — are warmed before it is published, so one
/// CompiledQuery may serve concurrent requests that each run with
/// `threads = 1` (the service batch executor's contract). The normal-form
/// instance itself is immutable after Compile.
class CompiledQuery {
 public:
  const NormalFormInstance& nf() const { return nf_; }
  /// The key set over the normal-form schema.
  const KeySet& keys() const { return keys_; }

  /// The query plan this artifact was compiled from: the cost-ranked
  /// decomposition (whose normal form is nf()), the planned atom order for
  /// backtracking evaluation, cost estimates, and the planning wall-clock
  /// time. Cached with the CompiledQuery, so the service's explain flag and
  /// stats verb read it back without replanning.
  const QueryPlan& plan() const { return plan_; }

  /// The Rep[k] automaton for `answer_tuple`, compiled on first use and
  /// memoized. The pointer stays valid for the CompiledQuery's lifetime.
  Result<const RepAutomaton*> Rep(const std::vector<Value>& answer_tuple,
                                  bool classical_repairs = false) const;
  /// The Seq[k] automaton for `answer_tuple`, compiled on first use.
  Result<const SeqAutomaton*> Seq(const std::vector<Value>& answer_tuple)
      const;

  /// Number of automata currently memoized (diagnostics).
  size_t cached_automata() const;

 private:
  friend class OcqaEngine;
  CompiledQuery() : mu_(std::make_unique<std::mutex>()) {}

  NormalFormInstance nf_;
  KeySet keys_;  // over nf_.db's schema
  QueryPlan plan_;

  // Guards the memos below (shared by concurrent serving requests).
  std::unique_ptr<std::mutex> mu_;
  mutable std::map<std::pair<bool, std::vector<Value>>,
                   std::unique_ptr<RepAutomaton>>
      rep_;
  mutable std::map<std::vector<Value>, std::unique_ptr<SeqAutomaton>> seq_;
};

class OcqaEngine {
 public:
  OcqaEngine(const Database& db, const KeySet& keys) : db_(db), keys_(keys) {}

  // -- plan compilation (the shared pipeline prefix, reusable) --------------
  /// Runs the pipeline prefix once — decompose, normalize, remap keys — and
  /// returns the reusable artifact. Every automaton-based solver below has
  /// an overload taking a CompiledQuery that skips this prefix.
  Result<CompiledQuery> Compile(const ConjunctiveQuery& query,
                                const OcqaOptions& options = {}) const;

  // -- exact (exponential-time numerators; ground truth) --------------------
  /// Numerators enumerate only the answer's support blocks (see
  /// repairs/counting.h); denominators are the engine's cached |ORep| and
  /// |CRS|.
  ExactRF ExactUr(const ConjunctiveQuery& query,
                  const std::vector<Value>& answer_tuple) const;
  ExactRF ExactUs(const ConjunctiveQuery& query,
                  const std::vector<Value>& answer_tuple) const;

  // -- combined-complexity FPRAS (Theorem 3.6) ------------------------------
  Result<ApproxRF> ApproxUr(const ConjunctiveQuery& query,
                            const std::vector<Value>& answer_tuple,
                            const OcqaOptions& options = {}) const;
  Result<ApproxRF> ApproxUs(const ConjunctiveQuery& query,
                            const std::vector<Value>& answer_tuple,
                            const OcqaOptions& options = {}) const;
  /// Same, over a previously compiled plan (skips the pipeline prefix; the
  /// result is bit-identical to the query-based overload at every cache
  /// state and thread count).
  Result<ApproxRF> ApproxUr(const CompiledQuery& compiled,
                            const std::vector<Value>& answer_tuple,
                            const OcqaOptions& options = {}) const;
  Result<ApproxRF> ApproxUs(const CompiledQuery& compiled,
                            const std::vector<Value>& answer_tuple,
                            const OcqaOptions& options = {}) const;

  // -- exact numerators through the compiled automata (validation path) -----
  Result<BigInt> RepairsEntailingViaAutomaton(
      const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
      const OcqaOptions& options = {}) const;
  Result<BigInt> SequencesEntailingViaAutomaton(
      const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
      const OcqaOptions& options = {}) const;
  Result<BigInt> RepairsEntailingViaAutomaton(
      const CompiledQuery& compiled,
      const std::vector<Value>& answer_tuple) const;
  Result<BigInt> SequencesEntailingViaAutomaton(
      const CompiledQuery& compiled,
      const std::vector<Value>& answer_tuple) const;

  // -- classical subset repairs (♯SRepairs, §5.1 remark) ---------------------
  /// |{D' subset repair : c̄ ∈ Q(D')}| exactly, via the ⊥-free automaton.
  Result<BigInt> ClassicalRepairsEntailingViaAutomaton(
      const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
      const OcqaOptions& options = {}) const;
  Result<BigInt> ClassicalRepairsEntailingViaAutomaton(
      const CompiledQuery& compiled,
      const std::vector<Value>& answer_tuple) const;
  /// Number of classical subset repairs (prod of block sizes).
  BigInt CountClassicalRepairs() const;
  /// Brute-force exact count of subset repairs entailing the query.
  BigInt ClassicalRepairsEntailingBruteForce(
      const ConjunctiveQuery& query,
      const std::vector<Value>& answer_tuple) const;

  // -- repair sampling conditioned on the answer ----------------------------
  /// Draws `count` approximately-uniform samples from
  /// {D' ∈ ORep(D,Sigma) : c̄ ∈ Q(D')} via the Rep[k] automaton's tree
  /// sampler, decoded back to kept fact ids of the *original* database
  /// (sorted). Useful for "show me plausible consistent worlds supporting
  /// this answer" exploration.
  Result<std::vector<std::vector<FactId>>> SampleEntailingRepairs(
      const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
      size_t count, const OcqaOptions& options = {},
      uint64_t seed = 1) const;
  Result<std::vector<std::vector<FactId>>> SampleEntailingRepairs(
      const CompiledQuery& compiled, const std::vector<Value>& answer_tuple,
      size_t count, const OcqaOptions& options = {},
      uint64_t seed = 1) const;

  // -- Monte-Carlo baselines (data-complexity regime, [13]) -----------------
  /// Fraction of `samples` uniform operational repairs that entail the
  /// answer. Samples are drawn in fixed chunks of kMcChunk, chunk c from
  /// RNG stream c of `seed`, and evaluated across `threads` lanes
  /// (0 = hardware concurrency, 1 = serial); the estimate is bit-identical
  /// at every thread count.
  double MonteCarloUr(const ConjunctiveQuery& query,
                      const std::vector<Value>& answer_tuple, size_t samples,
                      uint64_t seed, size_t threads = 0) const;
  /// Same over uniform complete repairing sequences.
  double MonteCarloUs(const ConjunctiveQuery& query,
                      const std::vector<Value>& answer_tuple, size_t samples,
                      uint64_t seed, size_t threads = 0) const;

  const Database& db() const { return db_; }
  const KeySet& keys() const { return keys_; }

  /// Seeds the |ORep| / |CRS| denominator memo with externally computed
  /// exact values, pinned to the database's current fact count. The
  /// live-instance snapshots delta-maintain both denominators across epochs
  /// (repairs/denominators.h) and hand them to each epoch's engine here, so
  /// a fresh engine never recomputes the block partition just to divide.
  void SeedDenominators(BigInt orep, BigInt crs) const;

  /// Monte-Carlo samples per RNG stream chunk (the unit of parallel work).
  static constexpr size_t kMcChunk = 64;

  /// Points the engine's instruments at `metrics` (nullptr detaches): the
  /// denominator-compute latency histogram (`uocqa_stage_denominators_us`,
  /// recorded only when OrepCount/CrsCount actually compute — memo hits are
  /// free) and the pool counters of any ThreadPool built afterwards.
  /// Observation only: no engine result depends on the registry. Const for
  /// the same reason the memos are mutable — the service wires an engine it
  /// only holds const access to.
  void SetMetrics(MetricsRegistry* metrics) const;

 private:
  /// Exact denominators |ORep| / |CRS| over the engine's instance, shared
  /// by every compiled plan. Memoized per instance state — the database
  /// only ever accumulates facts, so the fact count identifies it — and
  /// mutex-guarded for concurrent compiled-plan calls (the service batch
  /// executor). The returned reference stays valid until the database is
  /// mutated, which the engine's callers must not do concurrently anyway.
  const BigInt& OrepCount(ThreadPool* pool) const;
  const BigInt& CrsCount(ThreadPool* pool) const;

  /// The engine's pool, (re)built for `threads` resolved lanes; nullptr for
  /// 1 lane. The engine itself is not re-entrant: callers parallelize
  /// through the options, not by sharing one engine across threads.
  ThreadPool* PoolFor(size_t threads) const;

  const Database& db_;
  const KeySet& keys_;
  mutable std::unique_ptr<ThreadPool> pool_;

  mutable MetricsRegistry* metrics_ = nullptr;
  mutable metrics::Histogram* denominators_hist_ = nullptr;

  mutable std::mutex denom_mu_;
  mutable size_t denom_facts_ = 0;  // db_.size() the memos were taken at
  mutable std::optional<BigInt> orep_count_;
  mutable std::optional<BigInt> crs_count_;
};

}  // namespace uocqa

#endif  // UOCQA_OCQA_ENGINE_H_
