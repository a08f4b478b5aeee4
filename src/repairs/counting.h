// Exact counting for uniform operational CQA (paper §3 and [13]).
//
// Denominators (polynomial time, re-implementing the results of [13] the
// paper builds on):
//   |ORep(D,Sigma)| = prod over blocks B of (|B| == 1 ? 1 : |B| + 1)
//   |CRS(D,Sigma)|  = interleaving-convolution of per-block resolution
//                     counts by length.
//
// Per-block sequence counting uses three length-indexed polynomials; all of
// them follow the same recurrence (remove one of m facts, or one of C(m,2)
// pairs) with different boundary conditions:
//   total:      cnt[0]=cnt[1]=[1]    (any outcome)
//   keep-alpha: K[0]=[1]             (r = facts to remove besides alpha;
//                                     alpha itself never removed)
//   keep-none:  E[0]=[1], E[1]=0     (a lone fact can never be removed:
//                                     no violating pair remains to justify
//                                     the deletion — see shape(1,⊥)=∅)
// Blocks interleave with binomial weights: two independent sequences of
// lengths i and j merge in C(i+j, i) ways.
//
// Numerators |{D' ∈ ORep : c̄ ∈ Q(D')}| and |{s ∈ CRS : c̄ ∈ Q(s(D))}| are
// #P-hard (Thm 3.4); this module provides exponential-time exact versions
// used as ground truth for the FPRAS and served by `mode=exact`. They first
// compute the answer's support: every fact in some image h(Q) with
// h(x̄) = c̄ over the full instance. A homomorphism into a repair is one
// into D, so a repair's verdict depends only on the outcomes of the support
// blocks (conflict blocks holding a support fact). Only those are
// enumerated; every other block contributes a closed-form factor (|B| + 1
// repairs, BlockTotalPoly(|B|) sequences). The work is exponential in the
// number of support blocks, not of all blocks.

#ifndef UOCQA_REPAIRS_COUNTING_H_
#define UOCQA_REPAIRS_COUNTING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/bigint.h"
#include "db/blocks.h"
#include "db/database.h"
#include "db/keys.h"
#include "query/cq.h"
#include "query/eval.h"

namespace uocqa {

/// Length-indexed counts: poly[l] = number of sequences of length l.
using LenPoly = std::vector<BigInt>;

/// Number of complete resolution sequences of a block with n facts, by
/// length, over any outcome.
LenPoly BlockTotalPoly(size_t n);

/// ... that keep one designated fact, where r = n - 1 facts must go.
LenPoly BlockKeepOnePoly(size_t r);

/// ... that empty the block of n facts.
LenPoly BlockKeepNonePoly(size_t n);

/// Interleaves two independent sequence families: c[l] = sum_i a[i] *
/// b[l-i] * C(l, i).
LenPoly InterleavePolys(const LenPoly& a, const LenPoly& b);

/// Sum of all coefficients.
BigInt PolySum(const LenPoly& p);

/// |ORep(D, Sigma)| in O(|D|).
BigInt CountOperationalRepairs(const BlockPartition& blocks);

/// |CRS(D, Sigma)| in polynomial time (BigInt arithmetic).
BigInt CountCompleteSequencesExact(const BlockPartition& blocks);

/// The outcome of one block in a repair: the kept fact, or nullopt (block
/// emptied). Singleton blocks must keep their fact.
using BlockOutcome = std::optional<FactId>;

/// Number of complete repairing sequences producing exactly the repair given
/// by `outcomes` (one entry per block, aligned with `blocks`).
BigInt CountSequencesForOutcome(const BlockPartition& blocks,
                                const std::vector<BlockOutcome>& outcomes);

/// Iterates over every operational repair (as an outcome vector plus the
/// kept fact ids, sorted) until `fn` returns false. The number of repairs is
/// the product of per-block choices — exponential; small inputs only.
///
/// `vary` optionally restricts the enumeration to the listed blocks
/// (indices into blocks(), each once): every combination of their outcomes
/// is visited, while every other block reports nullopt and contributes no
/// fact to `kept`. nullptr varies all blocks.
void ForEachRepair(
    const BlockPartition& blocks,
    const std::function<bool(const std::vector<BlockOutcome>&,
                             const std::vector<FactId>&)>& fn,
    const std::vector<size_t>* vary = nullptr);

/// Decides whether repairs of `db` entail `answer_tuple` under `query`,
/// without materializing them. Each repair is evaluated as a view over the
/// base instance: db's own index, with a kept-fact mask that hides every
/// fact outside the repair. The evaluator (resolved relations, atom order)
/// and the mask are built once; each check only sets and clears the kept
/// facts' mask bytes. This is the one place where a repair is evaluated:
/// exact enumeration, Monte Carlo and the extensions all go through it.
///
/// `atom_order` optionally fixes the evaluator's atom order (a permutation
/// of 0..atom_count-1); nullptr uses GreedyAtomOrder over db. Order affects
/// cost only, never the verdict. Not thread-safe: give each lane (e.g. each
/// Monte-Carlo chunk) its own checker. `db` and `query` must outlive it.
class RepairChecker {
 public:
  RepairChecker(const Database& db, const ConjunctiveQuery& query,
                std::vector<Value> answer_tuple,
                const std::vector<size_t>* atom_order = nullptr);

  // The evaluator holds the address of mask_.
  RepairChecker(const RepairChecker&) = delete;
  RepairChecker& operator=(const RepairChecker&) = delete;

  /// Whether the repair keeping exactly the facts `kept` (ids of db)
  /// entails the answer.
  bool Entails(const std::vector<FactId>& kept);

 private:
  std::vector<uint8_t> mask_;  // all zero between calls
  std::vector<Value> answer_tuple_;
  QueryEvaluator eval_;
};

/// Exact numerator |{D' ∈ ORep(D,Sigma) : c̄ ∈ Q(D')}| by enumeration of
/// the support blocks' outcomes. `atom_order` optionally fixes the atom
/// order of the support pass and of the per-repair evaluator (a permutation
/// of 0..atom_count-1, e.g. planned once against the full database); order
/// affects enumeration cost only, never the count.
BigInt CountRepairsEntailing(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order = nullptr);

/// Exact numerator |{s ∈ CRS(D,Sigma) : c̄ ∈ Q(s(D))}| by enumeration of
/// the support blocks' outcomes with per-outcome sequence counting. An
/// entailing outcome weighs PolySum of its support blocks' polynomials
/// interleaved with the free blocks' BlockTotalPoly product (computed once
/// per call). That weight only depends on how many support blocks of each
/// size are emptied (block interleaving is commutative and associative), so
/// it runs once per such signature and is looked up for every other
/// entailing outcome.
BigInt CountSequencesEntailing(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order =
                                   nullptr);

/// An exact relative frequency as a ratio of BigInt counts.
struct ExactRF {
  BigInt numerator;
  BigInt denominator;
  // Work counters of the numerator (diagnostics; never change a count).
  /// Repair views checked against the query.
  uint64_t repairs_checked = 0;
  /// Conflict blocks (>= 2 facts) varied after support pruning.
  uint64_t blocks_varied = 0;

  double value() const {
    return denominator.IsZero() ? 0.0
                                : BigInt::RatioAsDouble(numerator, denominator);
  }
  bool operator==(const ExactRF& o) const {
    // Cross-multiplied equality (no rational normalization needed).
    return numerator * o.denominator == o.numerator * denominator;
  }
};

/// RF_ur(D, Sigma, Q, c̄), exact (exponential-time numerator).
ExactRF ExactRepairFrequency(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order = nullptr);

/// RF_us(D, Sigma, Q, c̄), exact (exponential-time numerator).
ExactRF ExactSequenceFrequency(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order =
                                   nullptr);

/// The same over a precomputed partition `blocks` of `db`, dividing by a
/// caller-supplied `denominator` (|ORep| resp. |CRS| of `blocks`), e.g. a
/// cached one: neither recomputes the partition or the denominator.
ExactRF ExactRepairFrequency(const Database& db, const BlockPartition& blocks,
                             BigInt denominator,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order = nullptr);
ExactRF ExactSequenceFrequency(const Database& db,
                               const BlockPartition& blocks,
                               BigInt denominator,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order =
                                   nullptr);

}  // namespace uocqa

#endif  // UOCQA_REPAIRS_COUNTING_H_
