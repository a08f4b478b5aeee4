// The planner facade: one call that fixes every degree of freedom the
// pipeline used to pick ad hoc — the atom evaluation order (previously
// QueryEvaluator's one-shot greedy) and the hypertree decomposition
// (previously the first one found). Planning runs once per compiled query
// (ocqa/engine.cc) so the service plan cache amortizes it, and is purely a
// search-effort optimization: the chosen order and decomposition never
// change homomorphism sets, exact counts, or (at a fixed seed)
// FPRAS/Monte-Carlo estimates.

#ifndef UOCQA_PLANNER_PLANNER_H_
#define UOCQA_PLANNER_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "db/database.h"
#include "hypertree/decomposition.h"
#include "planner/ghd_rank.h"
#include "planner/join_order.h"
#include "query/cq.h"

namespace uocqa {

struct QueryPlan {
  // Atom evaluation order.
  std::vector<size_t> join_order;
  double order_cost = 0;
  double greedy_cost = 0;
  bool exact_order = false;

  // Decomposition.
  HypertreeDecomposition decomposition;
  double decomposition_cost = 0;
  size_t decomposition_width = 0;
  size_t decomposition_candidates = 0;

  /// Relation name per query atom, for readable explain output.
  std::vector<std::string> atom_names;

  /// Wall-clock planning time, stamped by the caller (the engine); excluded
  /// from Fields() so cached result payloads replay byte-identically.
  int64_t planning_micros = 0;

  /// Deterministic `key=value` fields for the service explain payload:
  /// plan_order, plan_cost, plan_greedy_cost, plan_exact, plan_width,
  /// plan_bags, plan_decomp_cost, plan_candidates. No timing, no spaces
  /// inside values.
  std::string Fields() const;

  /// Human-readable multi-line form for `uocqa --explain`.
  std::string ToString() const;
};

/// Plans `query` over `db`: cost model, join order, ranked decomposition.
/// Fails exactly when DecomposeQuery would (no decomposition of width <=
/// max_width); join ordering itself cannot fail.
Result<QueryPlan> PlanQuery(const Database& db, const ConjunctiveQuery& query,
                            size_t max_width);

}  // namespace uocqa

#endif  // UOCQA_PLANNER_PLANNER_H_
