#include "repairs/operations.h"

#include <algorithm>
#include <cassert>

namespace uocqa {

std::vector<FactId> ApplySequence(const Database& db,
                                  const RepairingSequence& seq) {
  std::vector<bool> present(db.size(), true);
  for (const Operation& op : seq) {
    for (FactId f : op.facts) present[f] = false;
  }
  std::vector<FactId> out;
  for (FactId id = 0; id < db.size(); ++id) {
    if (present[id]) out.push_back(id);
  }
  return out;
}

bool IsJustified(const Database& db, const PairwiseConstraints& keys,
                 const std::vector<bool>& present, const Operation& op) {
  for (FactId f : op.facts) {
    if (f >= db.size() || !present[f]) return false;
  }
  if (op.facts.size() == 2) {
    return keys.ViolatingPair(db.fact(op.facts[0]), db.fact(op.facts[1]));
  }
  if (op.facts.size() != 1) return false;
  // -{f}: some present g forms a violating pair with f.
  FactId f = op.facts[0];
  for (FactId g = 0; g < db.size(); ++g) {
    if (g == f || !present[g]) continue;
    if (keys.ViolatingPair(db.fact(f), db.fact(g))) return true;
  }
  return false;
}

SequenceCheck CheckSequence(const Database& db, const PairwiseConstraints& keys,
                            const RepairingSequence& seq) {
  SequenceCheck out;
  std::vector<bool> present(db.size(), true);
  for (const Operation& op : seq) {
    if (!IsJustified(db, keys, present, op)) return out;  // not repairing
    for (FactId f : op.facts) present[f] = false;
  }
  out.repairing = true;
  // Complete: no violating pair is left among the present facts.
  out.complete = JustifiedOperations(db, keys, present).empty();
  return out;
}

std::vector<Operation> JustifiedOperations(const Database& db,
                                           const PairwiseConstraints& keys,
                                           const std::vector<bool>& present) {
  std::vector<Operation> ops;
  for (FactId f = 0; f < db.size(); ++f) {
    if (!present[f]) continue;
    for (FactId g = f + 1; g < db.size(); ++g) {
      if (!present[g]) continue;
      if (!keys.ViolatingPair(db.fact(f), db.fact(g))) continue;
      ops.push_back(Operation::Single(f));
      ops.push_back(Operation::Single(g));
      ops.push_back(Operation::Pair(f, g));
    }
  }
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  return ops;
}

namespace {

void EnumerateRec(const Database& db, const PairwiseConstraints& keys,
                  std::vector<bool>& present, RepairingSequence& prefix,
                  size_t limit, std::vector<RepairingSequence>* out) {
  if (limit != 0 && out->size() >= limit) return;
  std::vector<Operation> ops = JustifiedOperations(db, keys, present);
  if (ops.empty()) {
    // No justified operation: the current database is consistent (under
    // primary keys any violation yields a justified operation), so the
    // prefix is a complete repairing sequence.
    out->push_back(prefix);
    return;
  }
  for (const Operation& op : ops) {
    for (FactId f : op.facts) present[f] = false;
    prefix.push_back(op);
    EnumerateRec(db, keys, present, prefix, limit, out);
    prefix.pop_back();
    for (FactId f : op.facts) present[f] = true;
    if (limit != 0 && out->size() >= limit) return;
  }
}

}  // namespace

std::vector<RepairingSequence> EnumerateCompleteSequences(
    const Database& db, const PairwiseConstraints& keys, size_t limit) {
  std::vector<RepairingSequence> out;
  std::vector<bool> present(db.size(), true);
  RepairingSequence prefix;
  EnumerateRec(db, keys, present, prefix, limit, &out);
  return out;
}

std::string SequenceToString(const Database& db,
                             const RepairingSequence& seq) {
  std::string out;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) out += " ; ";
    out += "-{";
    for (size_t j = 0; j < seq[i].facts.size(); ++j) {
      if (j > 0) out += ", ";
      out += FactToString(db.schema(), db.fact(seq[i].facts[j]));
    }
    out += '}';
  }
  return out;
}

}  // namespace uocqa
