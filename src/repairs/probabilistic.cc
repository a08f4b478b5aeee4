#include "repairs/probabilistic.h"

#include <algorithm>
#include <cassert>

namespace uocqa {

ProbabilisticRepairModel::ProbabilisticRepairModel(const Database& db,
                                                   const KeySet& keys,
                                                   TrustModel trust)
    : db_(db),
      blocks_(BlockPartition::Compute(db, keys)),
      trust_(std::move(trust)) {
  block_dist_.resize(blocks_.block_count());
  for (size_t b = 0; b < blocks_.block_count(); ++b) {
    const Block& block = blocks_.block(b);
    std::vector<double>& dist = block_dist_[b];
    dist.assign(block.size() + 1, 0.0);
    if (block.size() == 1) {
      dist[0] = 1.0;  // singleton blocks are kept unconditionally
      continue;
    }
    double none = 1.0;
    double total_trust = 0.0;
    for (FactId f : block.facts) {
      double tau = trust_.TrustOf(f);
      assert(tau >= 0.0 && tau <= 1.0);
      none *= (1.0 - tau);
      total_trust += tau;
    }
    dist[block.size()] = none;
    double keep_mass = 1.0 - none;
    if (total_trust <= 0.0) {
      // All sources fully untrusted: the block is always emptied.
      dist[block.size()] = 1.0;
      continue;
    }
    for (size_t i = 0; i < block.size(); ++i) {
      dist[i] = keep_mass * trust_.TrustOf(block.facts[i]) / total_trust;
    }
  }
}

double ProbabilisticRepairModel::RepairProbability(
    const std::vector<BlockOutcome>& outcomes) const {
  assert(outcomes.size() == blocks_.block_count());
  double p = 1.0;
  for (size_t b = 0; b < blocks_.block_count(); ++b) {
    const Block& block = blocks_.block(b);
    if (!outcomes[b].has_value()) {
      p *= block_dist_[b][block.size()];
      continue;
    }
    size_t idx = static_cast<size_t>(
        std::find(block.facts.begin(), block.facts.end(), *outcomes[b]) -
        block.facts.begin());
    assert(idx < block.size());
    p *= block_dist_[b][idx];
  }
  return p;
}

double ProbabilisticRepairModel::AnswerProbabilityExact(
    const ConjunctiveQuery& query,
    const std::vector<Value>& answer_tuple) const {
  RepairChecker checker(db_, query, answer_tuple);
  double total = 0.0;
  ForEachRepair(blocks_, [&](const std::vector<BlockOutcome>& outcomes,
                             const std::vector<FactId>& kept) {
    if (checker.Entails(kept)) {
      total += RepairProbability(outcomes);
    }
    return true;
  });
  return total;
}

std::vector<FactId> ProbabilisticRepairModel::SampleRepair(Rng& rng) const {
  std::vector<FactId> kept;
  for (size_t b = 0; b < blocks_.block_count(); ++b) {
    const Block& block = blocks_.block(b);
    const std::vector<double>& dist = block_dist_[b];
    double r = rng.UniformDouble();
    double acc = 0.0;
    size_t choice = block.size();  // default: keep none
    for (size_t i = 0; i < dist.size(); ++i) {
      acc += dist[i];
      if (r < acc) {
        choice = i;
        break;
      }
    }
    if (choice < block.size()) kept.push_back(block.facts[choice]);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

double ProbabilisticRepairModel::AnswerProbabilityMc(
    const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
    size_t samples, Rng& rng) const {
  if (samples == 0) return 0.0;
  RepairChecker checker(db_, query, answer_tuple);
  size_t hits = 0;
  for (size_t i = 0; i < samples; ++i) {
    if (checker.Entails(SampleRepair(rng))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace uocqa
