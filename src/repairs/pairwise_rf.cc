#include "repairs/pairwise_rf.h"

#include <set>

#include "repairs/counting.h"
#include "repairs/operations.h"

namespace uocqa {

Result<PairwiseRf> ComputePairwiseRf(const Database& db,
                                     const PairwiseConstraints& constraints,
                                     const ConjunctiveQuery& query,
                                     const std::vector<Value>& answer_tuple,
                                     size_t max_sequences) {
  std::vector<RepairingSequence> sequences =
      EnumerateCompleteSequences(db, constraints,
                                 max_sequences == 0 ? 0 : max_sequences + 1);
  if (max_sequences != 0 && sequences.size() > max_sequences) {
    return Status::OutOfRange("more than " + std::to_string(max_sequences) +
                              " complete repairing sequences");
  }
  PairwiseRf out;
  out.sequences = sequences.size();
  RepairChecker checker(db, query, answer_tuple);
  std::set<std::vector<FactId>> repairs;
  std::set<std::vector<FactId>> entailing_repairs;
  for (const RepairingSequence& s : sequences) {
    std::vector<FactId> kept = ApplySequence(db, s);
    bool entails;
    auto it = entailing_repairs.find(kept);
    if (it != entailing_repairs.end()) {
      entails = true;
    } else if (repairs.find(kept) != repairs.end()) {
      entails = false;
    } else {
      entails = checker.Entails(kept);
      if (entails) entailing_repairs.insert(kept);
    }
    repairs.insert(kept);
    if (entails) ++out.sequences_entailing;
  }
  out.repairs = repairs.size();
  out.repairs_entailing = entailing_repairs.size();
  return out;
}

}  // namespace uocqa
