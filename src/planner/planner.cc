#include "planner/planner.h"

#include <cstdio>

#include "planner/cost.h"

namespace uocqa {

namespace {

/// Decomposition candidates ranked per width.
constexpr size_t kMaxGhdCandidates = 8;

/// Shortest round-trippable double (mirrors the service layer's formatting
/// so explain payloads are stable).
std::string PlanDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JoinIndices(const std::vector<size_t>& order) {
  std::string out;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(order[i]);
  }
  return out;
}

}  // namespace

std::string QueryPlan::Fields() const {
  std::string out;
  out += "plan_order=" + JoinIndices(join_order);
  out += " plan_cost=" + PlanDouble(order_cost);
  out += " plan_greedy_cost=" + PlanDouble(greedy_cost);
  out += " plan_exact=" + std::string(exact_order ? "1" : "0");
  out += " plan_width=" + std::to_string(decomposition_width);
  out += " plan_bags=" + std::to_string(decomposition.size());
  out += " plan_decomp_cost=" + PlanDouble(decomposition_cost);
  out += " plan_candidates=" + std::to_string(decomposition_candidates);
  return out;
}

std::string QueryPlan::ToString() const {
  std::string out;
  out += "join order:    ";
  for (size_t i = 0; i < join_order.size(); ++i) {
    if (i > 0) out += ", ";
    size_t atom = join_order[i];
    out += atom < atom_names.size() ? atom_names[atom] : "?";
    out += "#" + std::to_string(atom);
  }
  out += "\n  est. cost " + PlanDouble(order_cost) + " (greedy " +
         PlanDouble(greedy_cost) + ", " +
         (exact_order ? "exact subset DP" : "greedy/restarts") + ")\n";
  out += "decomposition: width " + std::to_string(decomposition_width) +
         ", " + std::to_string(decomposition.size()) + " bag(s), est. cost " +
         PlanDouble(decomposition_cost) + ", " +
         std::to_string(decomposition_candidates) +
         " candidate(s) considered\n";
  out += "planning time: " + std::to_string(planning_micros) + " us\n";
  return out;
}

Result<QueryPlan> PlanQuery(const Database& db, const ConjunctiveQuery& query,
                            size_t max_width) {
  CostModel model(db, query);
  QueryPlan plan;

  JoinOrderPlan order = PlanJoinOrder(db, query, model);
  plan.join_order = std::move(order.order);
  plan.order_cost = order.cost;
  plan.greedy_cost = order.greedy_cost;
  plan.exact_order = order.exact;

  UOCQA_ASSIGN_OR_RETURN(
      DecompositionChoice choice,
      RankDecompositions(db, query, model, max_width, kMaxGhdCandidates));
  plan.decomposition = std::move(choice.decomposition);
  plan.decomposition_cost = choice.cost;
  plan.decomposition_width = choice.width;
  plan.decomposition_candidates = choice.candidates_considered;

  plan.atom_names.reserve(query.atom_count());
  for (const QueryAtom& atom : query.atoms()) {
    plan.atom_names.push_back(query.schema().name(atom.relation));
  }
  return plan;
}

}  // namespace uocqa
