// Randomized approximation for ♯NFTA (paper Theorem D.1, following the
// approach of Arenas, Croquevielle, Jayaram, Riveros [6]).
//
// For a state q and size s,
//   L(q,s) = ⋃_{τ=(q,a,(q1..qr))} ⋃_{s1+..+sr=s-1} a(L(q1,s1)×…×L(q_r,s_r)).
// Components are Cartesian products, so their sizes multiply exactly and a
// uniform sample is a tuple of child samples. Components with distinct
// (symbol, child-size vector) keys are disjoint, so the union splits into
// an exact sum over key groups. Within a group, two components overlap iff
// at every child position their child languages at that size intersect;
// the estimator decides that exactly (a memoized product-non-emptiness
// relation over pairs of states), so a group whose components are pairwise
// disjoint is an exact sum too. Only the remaining groups run the
// Karp–Luby–Madras union estimator, with an exact polynomial membership
// oracle (run the automaton on the tree). Approximately-uniform samples
// come from minimal-index rejection.
//
// Only work the estimate depends on is done: a per-state size-support
// bitset (the sizes s with L(q,s) ≠ ∅, a fixpoint over sumsets of the
// children's supports) lets the cell table skip every empty (state, size)
// cell and every composition with an empty part, so only non-empty cells
// are ever built.
//
// Engineering notes versus [6] (see docs/ARCHITECTURE.md): [6] track
// per-level sketches with certified polynomial constants; we use the same
// decomposition but direct recursive estimation with per-union sample
// budgets chosen empirically, validated against the exact behaviour-set
// counter in tests (E5). Estimates are doubles (counts up to ~1e308).
//
// Hot-path layout (see docs/ARCHITECTURE.md): the estimator runs over the
// automaton's CompiledNfta view. Proportional selection uses per-group /
// per-cell prefix-sum arrays probed by binary search, consuming exactly
// one uniform per pick. Trial trees are built in a per-chunk node pool (no
// per-node heap LabeledTree), each node caching its subtree size and its
// behaviour row; the membership oracle reads the cached rows.

#ifndef UOCQA_AUTOMATA_FPRAS_H_
#define UOCQA_AUTOMATA_FPRAS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hashing.h"
#include "base/rng.h"
#include "base/version.h"
#include "base/thread_pool.h"
#include "automata/compiled_nfta.h"
#include "automata/nfta.h"

namespace uocqa {

/// Tuning knobs for the ♯NFTA FPRAS. Estimates are a deterministic function
/// of (automaton, config) — including `threads`: any thread count yields the
/// same bits, because trials are split into fixed-size chunks with one
/// Rng::Stream per chunk.
struct FprasConfig {
  /// Target relative error.
  double epsilon = 0.25;
  /// Target failure probability.
  double delta = 0.1;
  /// Per-union sample budget bounds.
  size_t min_samples = 128;
  size_t max_samples = 65536;
  /// Retry bound for minimal-index rejection sampling before giving up and
  /// accepting a (slightly biased) sample.
  size_t max_rejection_attempts = 64;
  /// RNG seed (estimates are deterministic given the seed).
  uint64_t seed = 1;
  /// The RNG-consumption schema the estimator implements (see
  /// docs/ARCHITECTURE.md): each union's seed is keyed by its cell and
  /// group, and each trial draws from its own Rng::Stream keyed by the
  /// trial index. Informational only — there is one schema and nothing
  /// reads this field; it names the layout recorded runs were made with.
  int seed_schema = kDefaultSeedSchema;
  /// Split each union into disjoint groups keyed by (symbol, child sizes),
  /// return groups proved pairwise disjoint as exact sums, and sample only
  /// within the rest (on by default; the ablation benchmark bench_e11
  /// quantifies the win). When false, the plain Karp–Luby–Madras estimator
  /// runs over all components of a cell at once.
  bool group_disjoint_components = true;
  /// Execution lanes for the KLM union-estimation trials: 1 = serial,
  /// 0 = hardware concurrency. Changes wall-clock time only, never the
  /// estimate (see the class comment on determinism).
  size_t threads = 1;
};

class NftaFpras {
 public:
  /// Wraps `nfta` (not owned; must outlive this object and stay unchanged;
  /// the estimator snapshots its compiled view). When `config.threads != 1`,
  /// KLM trials run on `pool` if given, else on an internally owned pool of
  /// `config.threads` lanes.
  NftaFpras(const Nfta& nfta, FprasConfig config = {},
            ThreadPool* pool = nullptr);

  /// Estimate of |L_s(A)| for the initial state.
  double EstimateExactSize(size_t size);

  /// Estimate of |⋃_{s <= max_size} L_s(A)| (the ♯NFTA output).
  double EstimateUpTo(size_t max_size);

  /// Estimate of |L(q, s)|.
  double EstimateFrom(NftaState q, size_t size);

  /// Approximately-uniform sample from L(q, s); nullopt if (estimated)
  /// empty. Serial (unlike the estimation paths, which may use the pool).
  std::optional<LabeledTree> Sample(Rng& rng, NftaState q, size_t size);

  // Work counters (diagnostics). Like the estimates, they are a function
  // of (automaton, config and the estimates asked for so far) only.
  /// KLM union estimations run (groups that needed trials).
  size_t union_estimations() const { return union_estimations_; }
  /// KLM trials run, summed over all union estimations.
  size_t klm_trials() const { return klm_trials_; }
  /// Multi-component groups proved pairwise disjoint (summed exactly).
  size_t groups_disjoint() const { return groups_disjoint_; }
  /// Non-empty (state, size) cells built.
  size_t cells_built() const { return cells_.size(); }

 private:
  /// Pool-backed flat trees for rejection trials: one contiguous node
  /// vector per chunk, cleared (capacity kept) between trials, each node
  /// caching its subtree size so the min-index oracle never recomputes it.
  struct TreePool {
    static constexpr uint32_t kNil = 0xffffffffu;
    struct Node {
      NftaSymbol symbol = 0;
      uint32_t size = 0;        // subtree node count
      uint32_t first_child = kNil;
      uint32_t last_child = kNil;
      uint32_t next_sibling = kNil;
    };
    std::vector<Node> nodes;

    uint32_t New(NftaSymbol s, uint32_t size) {
      nodes.push_back(Node{s, size, kNil, kNil, kNil});
      return static_cast<uint32_t>(nodes.size() - 1);
    }
    void AddChild(uint32_t parent, uint32_t child) {
      if (nodes[parent].first_child == kNil) {
        nodes[parent].first_child = child;
      } else {
        nodes[nodes[parent].last_child].next_sibling = child;
      }
      nodes[parent].last_child = child;
    }
    void Clear() { nodes.clear(); }
    /// Drops nodes [n, size()) — used to reclaim rejected sampling attempts
    /// so surviving subtrees stay contiguous (node n's subtree is exactly
    /// [n, n + size_n) in preorder).
    void Truncate(size_t n) { nodes.resize(n); }
  };

  /// Per-chunk context for the lockstep trial batches (and, as a one-trial
  /// batch, for the public Sample): one shared pool holds every trial's
  /// winning tree (rejected attempts are reclaimed by truncation), with a
  /// behaviour row maintained per pooled node — computed once in post-order
  /// as each subtree completes, so min-index checks at every nesting level
  /// read cached rows instead of re-evaluating subtrees.
  struct BatchCtx {
    TreePool pool;                // shared across the chunk's trials
    std::vector<Rng> rngs;        // per-trial streams (phase-resumable)
    std::vector<uint32_t> picks;  // per-trial picked component index
    std::vector<uint32_t> roots;  // per-trial winner root, kNil if none
    std::vector<uint64_t> rows;   // per pooled node: wps behaviour words
    std::vector<const uint64_t*> child_ptrs;  // combine scratch
  };

  struct Component {
    CompiledNfta::TransitionId transition = 0;
    std::vector<size_t> child_sizes;
    double size = 0;  // product of child estimates
  };
  /// Components sharing (symbol, child_sizes); only these can overlap.
  struct Group {
    std::vector<Component> components;
    /// prefix[i] = components[0].size + ... + components[i-1].size,
    /// accumulated left to right.
    std::vector<double> prefix;
    double estimate = 0;
    /// Root of the group's trial streams: a function of the seed and the
    /// group's identity (state, size, group key) only, so an estimate never
    /// depends on the order in which cells were built.
    uint64_t union_seed = 0;
  };
  struct Cell {
    double estimate = 0;
    std::vector<Group> groups;
    /// Prefix sums of group estimates (group_prefix.back() == estimate).
    std::vector<double> group_prefix;
  };

  /// Build-or-return, single hash probe for a non-empty cell; an empty one
  /// (outside the size support) is never built. Build path only (mutates
  /// cells_). `size` must be within the support computed so far.
  const Cell& GetCell(NftaState q, size_t size);
  /// Read-only lookup for trial threads; nullptr for an empty cell.
  const Cell* FindCell(NftaState q, size_t size) const;

  /// Makes the size support cover sizes up to `max_size` (recomputed at
  /// twice the old bound when it grows, so a sweep of sizes recomputes it
  /// O(log) times).
  void EnsureSupport(size_t max_size);
  /// Is L(q, size) non-empty? False beyond the computed support.
  bool Supported(NftaState q, size_t size) const;
  /// Support row of q: supp_words_ words, bit s set iff L(q, s) ≠ ∅.
  const uint64_t* SupportRow(NftaState q) const {
    return supp_.data() + q * supp_words_;
  }

  /// Does L(p, size) ∩ L(p2, size) contain a tree? Memoized over
  /// unordered state pairs; NE(p, p, s) is the size support itself.
  bool Intersects(NftaState p, NftaState p2, size_t size);
  /// Are the group's components pairwise disjoint? Two components (same
  /// symbol and child sizes) overlap iff every child position's languages
  /// intersect.
  bool PairwiseDisjoint(const Group& group);
  /// Is there a split of `remaining` into positive parts t_i, one per
  /// position, with Intersects(a[i], b[i], t_i) at every position?
  bool ChildrenIntersect(const NftaState* a, const NftaState* b, size_t rank,
                         size_t remaining);

  /// Union estimate of one group (components share symbol+sizes): the
  /// exact sum when the group is a single component or proved pairwise
  /// disjoint, else KLM. Trials are chunked (kTrialChunk) and may run on
  /// the pool; every cell the trials sample from is already built, so the
  /// parallel section only ever reads `cells_`.
  double EstimateGroup(Group* group);

  /// The KLM trials: each chunk runs its kTrialChunk trials in lockstep
  /// phases (batched picks -> batched row-caching tree builds -> batched
  /// min-index checks over the cached rows), with one Rng::Stream of the
  /// group's union seed per trial, keyed by the trial index.
  void RunTrialsBatched(const Group& group, double sum, size_t samples,
                        std::vector<std::pair<size_t, size_t>>* counts);

  /// Index of the first component of `group` containing the pooled tree
  /// `root`; -1 if none. Child behaviours are read from the batch's cached
  /// rows, child sizes from the cached per-node sizes.
  int MinIndexBatched(const Group& group, uint32_t root,
                      const BatchCtx& ctx) const;

  /// Approximately-uniform flat sample from L(q, size) into ctx->pool
  /// (TreePool::kNil if empty or rejected to exhaustion), and from one
  /// component (a tuple of child samples). Every pooled node's behaviour
  /// row is computed exactly once — in post-order, as its subtree completes
  /// — so the nested min-index rejection reads cached rows instead of
  /// re-running the bitset evaluation at every nesting level.
  uint32_t SampleFlatBatched(Rng& rng, NftaState q, size_t size,
                             BatchCtx* ctx);
  uint32_t SampleComponentFlatBatched(Rng& rng, const Component& c,
                                      BatchCtx* ctx);

  /// Computes `node`'s behaviour row into ctx->rows (children's rows must
  /// already be cached; leaves copy the per-symbol leaf row).
  void ComputeRow(BatchCtx* ctx, uint32_t node) const;

  /// Lazily builds the per-symbol rank-0 behaviour rows the batched build
  /// copies for leaf nodes. Must be called before the parallel section.
  void EnsureLeafRows();

  /// The pool trials run on (lazily created when owned), or nullptr for
  /// serial execution.
  ThreadPool* pool();

  /// Trials per RNG stream chunk: fixed so the (chunk -> stream) map — and
  /// hence the estimate — is independent of the thread count.
  static constexpr size_t kTrialChunk = 64;

  const Nfta& nfta_;
  std::shared_ptr<const CompiledNfta> compiled_keep_;
  const CompiledNfta& c_;  // *compiled_keep_
  FprasConfig config_;
  ThreadPool* external_pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unordered_map<std::pair<NftaState, size_t>, Cell,
                     PairHash<NftaState, size_t>>
      cells_;
  size_t union_estimations_ = 0;
  size_t klm_trials_ = 0;
  size_t groups_disjoint_ = 0;

  // Size support: state_count() rows of supp_words_ words covering sizes
  // 0..supp_max_ (bit 0 is never set).
  std::vector<uint64_t> supp_;
  size_t supp_words_ = 0;
  size_t supp_max_ = 0;
  // NE(p, p2, s) memo for p < p2, keyed by ((p << 32) | p2, s).
  std::unordered_map<std::pair<uint64_t, size_t>, bool,
                     PairHash<uint64_t, size_t>>
      intersects_;
  BatchCtx sample_ctx_;  // the serial public Sample()'s one-trial batch

  // Per-symbol rank-0 behaviour rows (words_per_set() words each), built
  // once on first batched estimation; leaves are the common case in trial
  // trees and their combine is a plain row copy.
  bool leaf_rows_ready_ = false;
  std::vector<uint64_t> leaf_rows_;
};

}  // namespace uocqa

#endif  // UOCQA_AUTOMATA_FPRAS_H_
