// Homomorphism-based evaluation of conjunctive queries (paper §2).
//
// The evaluator matches query atoms against database facts by backtracking
// search. Atom order is chosen greedily from the database's cardinality
// statistics (estimated result size given the variables bound so far), and
// at every search step candidate facts come from the inverted
// (relation, position, value) index of the bound terms instead of a scan
// over the relation. Query and database may carry independently-built
// Schema objects; relations are reconciled by name.

#ifndef UOCQA_QUERY_EVAL_H_
#define UOCQA_QUERY_EVAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "db/database.h"
#include "query/cq.h"

namespace uocqa {

/// Sentinel for an unassigned variable in a (partial) homomorphism.
constexpr Value kUnassignedValue = static_cast<Value>(-1);

/// A total or partial assignment from VarId to constants.
using Assignment = std::vector<Value>;

/// Per query atom, the database relation holding its candidate facts,
/// reconciled by name (kInvalidRelation when the database lacks the
/// relation, which makes the atom unsatisfiable).
std::vector<RelationId> ResolveAtomRelations(const Database& db,
                                             const ConjunctiveQuery& query);

/// The statistics-driven greedy atom order QueryEvaluator uses by default:
/// repeatedly pick the unplaced atom with the smallest estimated result size
/// given the variables bound so far, preferring atoms connected to already
/// placed ones. Ties break on the smallest atom index, so the order is
/// deterministic across platforms and hash orders. Exposed so the planner
/// can use it as a baseline and a fallback.
std::vector<size_t> GreedyAtomOrder(const Database& db,
                                    const ConjunctiveQuery& query);

class QueryEvaluator {
 public:
  /// Resolves atom relations against the database and fixes the atom order
  /// to GreedyAtomOrder. The database must outlive the evaluator; the query
  /// is kept by reference as well.
  QueryEvaluator(const Database& db, const ConjunctiveQuery& query);

  /// Same, but evaluates atoms in the given order (a permutation of
  /// 0..atom_count-1, e.g. from the planner). Order only affects search
  /// cost, never the set of homomorphisms.
  ///
  /// A non-null `kept` makes the evaluator see a repair view: the
  /// sub-instance of `db` holding exactly the facts f with kept[f] != 0.
  /// Candidates still come from db's index; facts outside the view are
  /// skipped before they count as nodes. The mask is read on every call, so
  /// its owner may change it between calls; it must have db.size() entries
  /// and outlive the evaluator.
  QueryEvaluator(const Database& db, const ConjunctiveQuery& query,
                 std::vector<size_t> order,
                 const std::vector<uint8_t>* kept = nullptr);

  /// c̄ ∈ Q(D)? `answer_tuple` must have one constant per answer variable
  /// (empty for Boolean queries).
  bool Entails(const std::vector<Value>& answer_tuple) const;

  /// A witnessing homomorphism extending x̄ ↦ c̄, or nullopt.
  std::optional<Assignment> FindHomomorphism(
      const std::vector<Value>& answer_tuple) const;

  /// Number of homomorphisms h : Q -> D with h(x̄) = c̄ (total assignments
  /// of all query variables). Exponential in |Q| in the worst case; used by
  /// tests and baselines on small inputs.
  uint64_t CountHomomorphisms(const std::vector<Value>& answer_tuple) const;

  /// Invokes `fn` for every homomorphism extending x̄ ↦ c̄ until it returns
  /// false. Returns false iff enumeration was aborted.
  bool ForEachHomomorphism(const std::vector<Value>& answer_tuple,
                           const std::function<bool(const Assignment&)>& fn)
      const;

  /// Distinct answer tuples Q(D) (small-instance utility).
  std::vector<std::vector<Value>> Answers() const;

  /// The atom visit order in use.
  const std::vector<size_t>& order() const { return order_; }

  /// Candidate facts tried across all Search calls since construction — the
  /// backtracking-node count the planner's cost metric estimates. Cumulative
  /// over Entails/Count/ForEach calls; for per-call counts, difference two
  /// reads.
  uint64_t nodes_visited() const { return nodes_visited_; }

 private:
  /// Seeds a partial assignment with the answer tuple; false on clash
  /// (repeated answer variable bound to two constants).
  bool SeedAssignment(const std::vector<Value>& answer_tuple,
                      Assignment* assignment) const;

  /// Depth-first matching over atoms in order_[depth...]; calls fn on every
  /// completed assignment; returns false iff aborted by fn. `bound_scratch`
  /// is a reusable buffer for resolving bound terms (cleared at each node;
  /// safe to share across depths because the candidate list returned by the
  /// index does not reference it).
  bool Search(size_t depth, Assignment* assignment,
              std::vector<BoundArg>* bound_scratch,
              const std::function<bool(const Assignment&)>& fn) const;

  const Database& db_;
  const ConjunctiveQuery& query_;
  std::vector<RelationId> atom_rels_;  // per atom, db relation (by name)
  std::vector<size_t> order_;          // atom visit order
  const std::vector<uint8_t>* kept_;   // repair-view mask, or null
  mutable uint64_t nodes_visited_ = 0;
};

/// One-shot convenience: c̄ ∈ Q(D)?
bool Entails(const Database& db, const ConjunctiveQuery& query,
             const std::vector<Value>& answer_tuple = {});

}  // namespace uocqa

#endif  // UOCQA_QUERY_EVAL_H_
