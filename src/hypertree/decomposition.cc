#include "hypertree/decomposition.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "db/database.h"

namespace uocqa {

namespace {

std::vector<VarId> NonAnswerVarsOfAtom(const ConjunctiveQuery& query,
                                       size_t atom_idx) {
  std::unordered_set<VarId> answers(query.answer_vars().begin(),
                                    query.answer_vars().end());
  std::vector<VarId> out;
  for (VarId v : query.atoms()[atom_idx].Variables()) {
    if (answers.find(v) == answers.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SortedContains(const std::vector<VarId>& haystack, VarId needle) {
  return std::binary_search(haystack.begin(), haystack.end(), needle);
}

bool SortedIncludes(const std::vector<VarId>& sub,
                    const std::vector<VarId>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace

DecompVertex HypertreeDecomposition::AddNode(std::vector<VarId> bag,
                                             std::vector<size_t> lambda,
                                             DecompVertex parent) {
  std::sort(bag.begin(), bag.end());
  bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
  std::sort(lambda.begin(), lambda.end());
  lambda.erase(std::unique(lambda.begin(), lambda.end()), lambda.end());
  DecompVertex id = static_cast<DecompVertex>(nodes_.size());
  DecompositionNode node;
  node.bag = std::move(bag);
  node.lambda = std::move(lambda);
  node.parent = parent;
  nodes_.push_back(std::move(node));
  if (parent == kInvalidVertex) {
    assert(root_ == kInvalidVertex && "decomposition already has a root");
    root_ = id;
  } else {
    assert(parent < id);
    nodes_[parent].children.push_back(id);
  }
  return id;
}

size_t HypertreeDecomposition::Width() const {
  size_t w = 0;
  for (const DecompositionNode& n : nodes_) w = std::max(w, n.lambda.size());
  return w;
}

size_t HypertreeDecomposition::Depth(DecompVertex v) const {
  size_t d = 0;
  while (nodes_[v].parent != kInvalidVertex) {
    v = nodes_[v].parent;
    ++d;
  }
  return d;
}

std::vector<DecompVertex> HypertreeDecomposition::VerticesInOrder() const {
  // BFS from the root with children visited in stored (insertion) order
  // realizes the paper's ≺T: depth first, then left-to-right.
  std::vector<DecompVertex> order;
  if (root_ == kInvalidVertex) return order;
  order.push_back(root_);
  for (size_t i = 0; i < order.size(); ++i) {
    for (DecompVertex c : nodes_[order[i]].children) order.push_back(c);
  }
  return order;
}

size_t HypertreeDecomposition::OrderRank(DecompVertex v) const {
  std::vector<DecompVertex> order = VerticesInOrder();
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == v) return i;
  }
  assert(false && "vertex not reachable from root");
  return order.size();
}

Status HypertreeDecomposition::Validate(const ConjunctiveQuery& query) const {
  if (nodes_.empty() || root_ == kInvalidVertex) {
    return Status::FailedPrecondition("empty decomposition");
  }
  // Tree shape: every node reachable from the root exactly once.
  if (VerticesInOrder().size() != nodes_.size()) {
    return Status::FailedPrecondition("decomposition is not a tree");
  }
  // lambda indices valid; chi(v) ⊆ vars(lambda(v)).
  for (const DecompositionNode& n : nodes_) {
    std::unordered_set<VarId> covered;
    for (size_t ai : n.lambda) {
      if (ai >= query.atom_count()) {
        return Status::FailedPrecondition("lambda references missing atom");
      }
      for (VarId v : query.atoms()[ai].Variables()) covered.insert(v);
    }
    for (VarId v : n.bag) {
      if (covered.find(v) == covered.end()) {
        return Status::FailedPrecondition(
            "bag variable " + query.VarName(v) +
            " not covered by lambda atoms");
      }
    }
  }
  // Condition (1): every atom's non-answer variables inside some bag.
  for (size_t ai = 0; ai < query.atom_count(); ++ai) {
    std::vector<VarId> need = NonAnswerVarsOfAtom(query, ai);
    bool found = false;
    for (const DecompositionNode& n : nodes_) {
      if (SortedIncludes(need, n.bag)) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::FailedPrecondition(
          "atom " + std::to_string(ai) + " has no bag containing its vars");
    }
  }
  // Condition (2): connectedness of every variable.
  std::unordered_set<VarId> answers(query.answer_vars().begin(),
                                    query.answer_vars().end());
  for (VarId var : query.AllVariables()) {
    if (answers.count(var) > 0) {
      // Answer variables must not occur in bags at all.
      for (const DecompositionNode& n : nodes_) {
        if (SortedContains(n.bag, var)) {
          return Status::FailedPrecondition(
              "answer variable " + query.VarName(var) + " occurs in a bag");
        }
      }
      continue;
    }
    // Vertices containing var must induce a connected subtree: each such
    // vertex except one (the shallowest) must have its parent in the set.
    std::vector<DecompVertex> holders;
    for (DecompVertex v = 0; v < nodes_.size(); ++v) {
      if (SortedContains(nodes_[v].bag, var)) holders.push_back(v);
    }
    if (holders.empty()) continue;
    std::unordered_set<DecompVertex> holder_set(holders.begin(),
                                                holders.end());
    size_t roots = 0;
    for (DecompVertex v : holders) {
      DecompVertex p = nodes_[v].parent;
      if (p == kInvalidVertex || holder_set.find(p) == holder_set.end()) {
        ++roots;
      }
    }
    if (roots != 1) {
      return Status::FailedPrecondition("variable " + query.VarName(var) +
                                        " violates connectedness");
    }
  }
  return Status::OK();
}

bool HypertreeDecomposition::IsCoveringVertex(const ConjunctiveQuery& query,
                                              DecompVertex v,
                                              size_t atom_idx) const {
  const DecompositionNode& n = nodes_[v];
  if (!std::binary_search(n.lambda.begin(), n.lambda.end(), atom_idx)) {
    return false;
  }
  return SortedIncludes(NonAnswerVarsOfAtom(query, atom_idx), n.bag);
}

DecompVertex HypertreeDecomposition::MinimalCoveringVertex(
    const ConjunctiveQuery& query, size_t atom_idx) const {
  for (DecompVertex v : VerticesInOrder()) {
    if (IsCoveringVertex(query, v, atom_idx)) return v;
  }
  return kInvalidVertex;
}

bool HypertreeDecomposition::IsComplete(const ConjunctiveQuery& query) const {
  for (size_t ai = 0; ai < query.atom_count(); ++ai) {
    if (MinimalCoveringVertex(query, ai) == kInvalidVertex) return false;
  }
  return true;
}

bool HypertreeDecomposition::IsStronglyComplete(
    const ConjunctiveQuery& query) const {
  if (!IsComplete(query)) return false;
  std::unordered_set<DecompVertex> minimal;
  for (size_t ai = 0; ai < query.atom_count(); ++ai) {
    minimal.insert(MinimalCoveringVertex(query, ai));
  }
  return minimal.size() == nodes_.size();
}

bool HypertreeDecomposition::IsUniform(size_t l) const {
  for (const DecompositionNode& n : nodes_) {
    if (!n.children.empty() && n.children.size() != l) return false;
  }
  return true;
}

std::string HypertreeDecomposition::ToString(
    const ConjunctiveQuery& query) const {
  std::string out;
  for (DecompVertex v : VerticesInOrder()) {
    const DecompositionNode& n = nodes_[v];
    out += "v" + std::to_string(v) + " (depth " +
           std::to_string(Depth(v)) + ", parent " +
           (n.parent == kInvalidVertex ? std::string("-")
                                       : std::to_string(n.parent)) +
           "): chi={";
    for (size_t i = 0; i < n.bag.size(); ++i) {
      if (i > 0) out += ',';
      out += query.VarName(n.bag[i]);
    }
    out += "} lambda={";
    for (size_t i = 0; i < n.lambda.size(); ++i) {
      if (i > 0) out += ',';
      out += query.schema().name(query.atoms()[n.lambda[i]].relation);
    }
    out += "}\n";
  }
  return out;
}

bool IsInNormalForm(const Database& db, const ConjunctiveQuery& query,
                    const HypertreeDecomposition& h) {
  // (i) every relation name in D also occurs in Q.
  std::unordered_set<std::string> query_rels;
  for (const QueryAtom& a : query.atoms()) {
    query_rels.insert(query.schema().name(a.relation));
  }
  for (const Fact& f : db.facts()) {
    if (query_rels.find(db.schema().name(f.relation)) == query_rels.end()) {
      return false;
    }
  }
  // (ii) strongly complete and 2-uniform.
  return h.IsStronglyComplete(query) && h.IsUniform(2);
}

}  // namespace uocqa
