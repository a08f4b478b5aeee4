#include "repairs/counting.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace uocqa {

namespace {

/// Shared recurrence: from m live facts, remove one (m ways) or a pair
/// (C(m,2) ways). `polys` must be seeded with indices 0 (and 1 if n >= 1).
LenPoly RunRecurrence(size_t n, std::vector<LenPoly> seeded) {
  for (size_t m = seeded.size(); m <= n; ++m) {
    const LenPoly& one_less = seeded[m - 1];
    const LenPoly& two_less = seeded[m - 2];
    LenPoly cur(std::max(one_less.size(), two_less.size()) + 1);
    uint64_t pairs = static_cast<uint64_t>(m) * (m - 1) / 2;
    for (size_t l = 0; l < one_less.size(); ++l) {
      cur[l + 1] += one_less[l] * static_cast<uint64_t>(m);
    }
    for (size_t l = 0; l < two_less.size(); ++l) {
      cur[l + 1] += two_less[l] * pairs;
    }
    seeded.push_back(std::move(cur));
  }
  return seeded[n];
}

/// The sequence polynomial of one block's outcome: keep one fact, or empty
/// the block.
LenPoly OutcomePoly(const Block& b, const BlockOutcome& outcome) {
  return outcome.has_value() ? BlockKeepOnePoly(b.size() - 1)
                             : BlockKeepNonePoly(b.size());
}

}  // namespace

LenPoly BlockTotalPoly(size_t n) {
  // cnt[0] = cnt[1] = 1 at length 0.
  if (n == 0) return {BigInt(1)};
  return RunRecurrence(n, {{BigInt(1)}, {BigInt(1)}});
}

LenPoly BlockKeepOnePoly(size_t r) {
  // K[0] = 1 at length 0; K[1] = 1 at length 1 (remove the single other
  // fact; justified because the kept fact is still present).
  if (r == 0) return {BigInt(1)};
  return RunRecurrence(r, {{BigInt(1)}, {BigInt(), BigInt(1)}});
}

LenPoly BlockKeepNonePoly(size_t n) {
  // E[0] = 1 at length 0; E[1] = 0 everywhere (a lone fact has no violating
  // partner, so its removal is never justified).
  if (n == 0) return {BigInt(1)};
  return RunRecurrence(n, {{BigInt(1)}, {}});
}

LenPoly InterleavePolys(const LenPoly& a, const LenPoly& b) {
  if (a.empty() || b.empty()) return {};
  LenPoly out(a.size() + b.size() - 1);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].IsZero()) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      if (b[j].IsZero()) continue;
      out[i + j] += a[i] * b[j] *
                    Binomial(static_cast<uint32_t>(i + j),
                             static_cast<uint32_t>(i));
    }
  }
  return out;
}

BigInt PolySum(const LenPoly& p) {
  BigInt out;
  for (const BigInt& c : p) out += c;
  return out;
}

BigInt CountOperationalRepairs(const BlockPartition& blocks) {
  BigInt out(1);
  for (const Block& b : blocks.blocks()) {
    if (b.size() >= 2) out *= static_cast<uint64_t>(b.size() + 1);
  }
  return out;
}

BigInt CountCompleteSequencesExact(const BlockPartition& blocks) {
  LenPoly acc{BigInt(1)};
  for (const Block& b : blocks.blocks()) {
    acc = InterleavePolys(acc, BlockTotalPoly(b.size()));
  }
  return PolySum(acc);
}

BigInt CountSequencesForOutcome(const BlockPartition& blocks,
                                const std::vector<BlockOutcome>& outcomes) {
  assert(outcomes.size() == blocks.block_count());
  LenPoly acc{BigInt(1)};
  for (size_t i = 0; i < blocks.block_count(); ++i) {
    acc = InterleavePolys(acc, OutcomePoly(blocks.block(i), outcomes[i]));
    if (acc.empty()) return BigInt();
  }
  return PolySum(acc);
}

void ForEachRepair(
    const BlockPartition& blocks,
    const std::function<bool(const std::vector<BlockOutcome>&,
                             const std::vector<FactId>&)>& fn,
    const std::vector<size_t>* vary) {
  std::vector<size_t> all;
  if (vary == nullptr) {
    all.resize(blocks.block_count());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    vary = &all;
  }
  std::vector<BlockOutcome> outcomes(blocks.block_count());
  std::vector<FactId> kept;
  // At depth k, block (*vary)[k] tries its options in order: a singleton
  // only keeps its fact; a larger block keeps fact 0..n-1, then is emptied.
  std::function<bool(size_t)> rec = [&](size_t k) -> bool {
    if (k == vary->size()) {
      std::vector<FactId> sorted = kept;
      std::sort(sorted.begin(), sorted.end());
      return fn(outcomes, sorted);
    }
    size_t i = (*vary)[k];
    const Block& b = blocks.block(i);
    for (FactId f : b.facts) {
      outcomes[i] = f;
      kept.push_back(f);
      bool go = rec(k + 1);
      kept.pop_back();
      if (!go) return false;
    }
    outcomes[i] = std::nullopt;
    return b.size() == 1 || rec(k + 1);
  };
  rec(0);
}

RepairChecker::RepairChecker(const Database& db,
                             const ConjunctiveQuery& query,
                             std::vector<Value> answer_tuple,
                             const std::vector<size_t>* atom_order)
    : mask_(db.size(), 0),
      answer_tuple_(std::move(answer_tuple)),
      eval_(db, query,
            atom_order ? *atom_order : GreedyAtomOrder(db, query), &mask_) {}

bool RepairChecker::Entails(const std::vector<FactId>& kept) {
  for (FactId f : kept) mask_[f] = 1;
  bool entails = eval_.Entails(answer_tuple_);
  for (FactId f : kept) mask_[f] = 0;
  return entails;
}

namespace {

/// Marks the answer's support blocks: the blocks holding a fact of some
/// image h(Q) with h(x̄) = c̄ over the full instance. nullopt when no such
/// homomorphism exists. A homomorphism into a repair is one into db, so a
/// repair's verdict depends only on the outcomes of these blocks.
std::optional<std::vector<uint8_t>> SupportBlocks(
    const Database& db, const BlockPartition& blocks,
    const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
    const std::vector<size_t>& order) {
  std::vector<RelationId> rels = ResolveAtomRelations(db, query);
  std::vector<Fact> images(query.atom_count());
  for (size_t a = 0; a < images.size(); ++a) {
    images[a].relation = rels[a];
    images[a].args.resize(query.atoms()[a].terms.size());
  }
  std::vector<uint8_t> in_support(blocks.block_count(), 0);
  bool found = false;
  QueryEvaluator eval(db, query, order);
  eval.ForEachHomomorphism(answer_tuple, [&](const Assignment& h) {
    found = true;
    for (size_t a = 0; a < images.size(); ++a) {
      const std::vector<Term>& terms = query.atoms()[a].terms;
      for (size_t j = 0; j < terms.size(); ++j) {
        images[a].args[j] = terms[j].is_const() ? terms[j].id : h[terms[j].id];
      }
      in_support[blocks.BlockOf(db.Find(images[a]))] = 1;
    }
    return true;
  });
  if (!found) return std::nullopt;
  return in_support;
}

/// Sets out->numerator to the exact numerator over `blocks` — entailing
/// repairs, or with `sequences` entailing complete repairing sequences — and
/// adds the work done to out's counters. Only the support blocks vary;
/// every other block is free, and its outcomes multiply each entailing
/// support outcome by |B| + 1 repairs, or interleave it with
/// BlockTotalPoly(|B|) sequences (BlockTotalPoly(n) = n·BlockKeepOnePoly(n−1)
/// + BlockKeepNonePoly(n), and interleaving is bilinear).
void CountEntailing(const Database& db, const BlockPartition& blocks,
                    const ConjunctiveQuery& query,
                    const std::vector<Value>& answer_tuple,
                    const std::vector<size_t>* atom_order, bool sequences,
                    ExactRF* out) {
  out->numerator = BigInt();
  std::vector<size_t> order =
      atom_order ? *atom_order : GreedyAtomOrder(db, query);
  std::optional<std::vector<uint8_t>> in_support =
      SupportBlocks(db, blocks, query, answer_tuple, order);
  if (!in_support.has_value()) return;

  std::vector<size_t> support;
  size_t max_block_size = 0;
  BigInt free_repairs(1);
  LenPoly free_sequences{BigInt(1)};
  for (size_t i = 0; i < blocks.block_count(); ++i) {
    size_t n = blocks.block(i).size();
    if ((*in_support)[i] != 0) {
      support.push_back(i);
      max_block_size = std::max(max_block_size, n);
      if (n >= 2) ++out->blocks_varied;
    } else if (n >= 2 && sequences) {
      free_sequences = InterleavePolys(free_sequences, BlockTotalPoly(n));
    } else if (n >= 2) {
      free_repairs *= static_cast<uint64_t>(n + 1);
    }
  }

  RepairChecker checker(db, query, answer_tuple, &order);
  // The weight of an entailing support outcome only depends on how many
  // support blocks of each size it empties (interleaving is commutative and
  // associative), so it is computed once per such signature.
  std::vector<uint32_t> signature(max_block_size + 1);
  std::map<std::vector<uint32_t>, BigInt> memo;
  BigInt count;
  ForEachRepair(
      blocks,
      [&](const std::vector<BlockOutcome>& outcomes,
          const std::vector<FactId>& kept) {
        ++out->repairs_checked;
        if (!checker.Entails(kept)) return true;
        if (!sequences) {
          count += uint64_t{1};
          return true;
        }
        std::fill(signature.begin(), signature.end(), 0);
        for (size_t i : support) {
          if (!outcomes[i].has_value()) ++signature[blocks.block(i).size()];
        }
        auto [it, inserted] = memo.try_emplace(signature);
        if (inserted) {
          LenPoly acc = free_sequences;
          for (size_t i : support) {
            acc = InterleavePolys(acc,
                                  OutcomePoly(blocks.block(i), outcomes[i]));
          }
          it->second = PolySum(acc);
        }
        count += it->second;
        return true;
      },
      &support);
  out->numerator = sequences ? std::move(count) : count * free_repairs;
}

}  // namespace

BigInt CountRepairsEntailing(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order) {
  ExactRF out;
  CountEntailing(db, BlockPartition::Compute(db, keys), query, answer_tuple,
                 atom_order, /*sequences=*/false, &out);
  return std::move(out.numerator);
}

BigInt CountSequencesEntailing(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order) {
  ExactRF out;
  CountEntailing(db, BlockPartition::Compute(db, keys), query, answer_tuple,
                 atom_order, /*sequences=*/true, &out);
  return std::move(out.numerator);
}

ExactRF ExactRepairFrequency(const Database& db, const BlockPartition& blocks,
                             BigInt denominator,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order) {
  ExactRF out;
  CountEntailing(db, blocks, query, answer_tuple, atom_order,
                 /*sequences=*/false, &out);
  out.denominator = std::move(denominator);
  return out;
}

ExactRF ExactSequenceFrequency(const Database& db,
                               const BlockPartition& blocks,
                               BigInt denominator,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order) {
  ExactRF out;
  CountEntailing(db, blocks, query, answer_tuple, atom_order,
                 /*sequences=*/true, &out);
  out.denominator = std::move(denominator);
  return out;
}

ExactRF ExactRepairFrequency(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt denominator = CountOperationalRepairs(blocks);
  return ExactRepairFrequency(db, blocks, std::move(denominator), query,
                              answer_tuple, atom_order);
}

ExactRF ExactSequenceFrequency(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt denominator = CountCompleteSequencesExact(blocks);
  return ExactSequenceFrequency(db, blocks, std::move(denominator), query,
                                answer_tuple, atom_order);
}

}  // namespace uocqa
