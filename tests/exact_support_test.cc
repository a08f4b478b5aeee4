// Differential tests for answer-support pruning in exact counting:
// CountRepairsEntailing / CountSequencesEntailing enumerate only the blocks
// holding a fact of some answer witness and fold every other block in as a
// closed-form factor. The oracle here is the unpruned enumeration —
// ForEachRepair over all blocks, a RepairChecker verdict per repair, and
// CountSequencesForOutcome per entailing repair — and the pruned counts must
// be BigInt-equal to it on seeded chain, star and cycle instances, for every
// tuple over the active domain, under greedy and planned atom orders.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "planner/cost.h"
#include "planner/join_order.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

// Boolean and non-Boolean queries over R1..R3; a repeated answer variable,
// constants, a relation the database lacks, and queries that leave whole
// relations (hence free blocks) outside the answer's support.
const char* const kQueries[] = {
    "Ans() :- R1(x,y), R2(y,z), R3(z,w)",
    "Ans() :- R1(c,x), R2(c,y), R3(c,z)",
    "Ans() :- R1(x,y), R2(y,z), R3(z,x)",
    "Ans(x) :- R1(x,y)",
    "Ans(x) :- R1(x,y), R2(y,z)",
    "Ans(x,z) :- R1(x,y), R2(y,z)",
    "Ans(c) :- R1(c,x), R3(c,y)",
    "Ans(x,x) :- R1(x,y), R2(y,x)",
    "Ans(y) :- R1('d1',y), R2(y,z)",
    "Ans() :- R2('d0',y)",
    "Ans() :- R1(x,y), Missing(y,z)",
};

/// Every tuple of `arity` over the active domain of `db`.
std::vector<std::vector<Value>> DomainTuples(const Database& db,
                                             size_t arity) {
  std::vector<Value> domain = db.ActiveDomain();
  std::vector<std::vector<Value>> out{{}};
  for (size_t a = 0; a < arity; ++a) {
    std::vector<std::vector<Value>> next;
    for (const std::vector<Value>& prefix : out) {
      for (Value v : domain) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

struct Shape {
  const char* name;
  ConjunctiveQuery (*make)(size_t);
  uint64_t salt;  // distinct instances per shape at the same seed
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class SupportPruningTest
    : public ::testing::TestWithParam<std::tuple<Shape, uint64_t>> {};

TEST_P(SupportPruningTest, PrunedCountsEqualFullEnumeration) {
  const Shape& shape = std::get<0>(GetParam());
  uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed * 3 + shape.salt);
  DbGenOptions gen;
  gen.blocks_per_relation = 3;
  gen.min_block_size = 1;
  gen.max_block_size = 3;
  gen.domain_size = 5;
  GeneratedInstance inst = GenerateDatabaseForQuery(rng, shape.make(3), gen);
  const Database& db = inst.db;
  BlockPartition blocks = BlockPartition::Compute(db, inst.keys);

  struct Case {
    const ConjunctiveQuery* query;
    std::vector<Value> answer;
  };
  // Checkers keep a reference to their query and are not movable: deques
  // keep both in place.
  std::deque<ConjunctiveQuery> queries;
  std::vector<Case> cases;
  std::deque<RepairChecker> checkers;
  for (const char* text : kQueries) {
    auto parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const ConjunctiveQuery& q = queries.emplace_back(std::move(*parsed));
    for (std::vector<Value>& answer :
         DomainTuples(db, q.answer_vars().size())) {
      checkers.emplace_back(db, q, answer);
      cases.push_back({&q, std::move(answer)});
    }
  }

  // The oracle: every repair, every case, no pruning.
  std::vector<BigInt> repairs(cases.size());
  std::vector<BigInt> sequences(cases.size());
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>& outcomes,
                            const std::vector<FactId>& kept) {
    BigInt weight;
    bool weighed = false;
    for (size_t i = 0; i < cases.size(); ++i) {
      if (!checkers[i].Entails(kept)) continue;
      if (!weighed) {
        weight = CountSequencesForOutcome(blocks, outcomes);
        weighed = true;
      }
      repairs[i] += uint64_t{1};
      sequences[i] += weight;
    }
    return true;
  });

  size_t answers = 0;
  size_t pruned_with_free_blocks = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const ConjunctiveQuery& q = *cases[i].query;
    CostModel model(db, q);
    std::vector<size_t> planned = PlanJoinOrder(db, q, model).order;
    std::vector<const std::vector<size_t>*> orders = {nullptr, &planned};
    for (const std::vector<size_t>* order : orders) {
      std::string where = std::string(shape.name) + " seed " +
                          std::to_string(seed) + ", " + q.ToString() +
                          (order == nullptr ? ", greedy" : ", planned") +
                          " order, answer #" + std::to_string(i);
      EXPECT_EQ(CountRepairsEntailing(db, inst.keys, q, cases[i].answer,
                                      order),
                repairs[i])
          << where;
      EXPECT_EQ(CountSequencesEntailing(db, inst.keys, q, cases[i].answer,
                                        order),
                sequences[i])
          << where;
    }
    ExactRF ur = ExactRepairFrequency(db, inst.keys, q, cases[i].answer);
    if (repairs[i].IsZero()) continue;
    ++answers;
    if (ur.blocks_varied < blocks.ViolatingBlockCount()) {
      ++pruned_with_free_blocks;
    }
  }
  // Both answers and non-answers occur, and some answers leave conflict
  // blocks free, so the free-block factors are exercised.
  EXPECT_GT(answers, 0u);
  EXPECT_LT(answers, cases.size());
  EXPECT_GT(pruned_with_free_blocks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SupportPruningTest,
    ::testing::Combine(::testing::Values(Shape{"chain", &ChainQuery, 0},
                                         Shape{"star", &StarQuery, 1},
                                         Shape{"cycle", &CycleQuery, 2}),
                       ::testing::Range(uint64_t{1}, uint64_t{7})));

TEST(ExactSupportTest, TotalPolyIsKeepOneTimesNPlusKeepNone) {
  for (size_t n = 1; n <= 10; ++n) {
    LenPoly total = BlockTotalPoly(n);
    LenPoly keep_one = BlockKeepOnePoly(n - 1);
    LenPoly keep_none = BlockKeepNonePoly(n);
    size_t len = std::max(keep_one.size(), keep_none.size());
    ASSERT_EQ(total.size(), len) << "n = " << n;
    for (size_t l = 0; l < len; ++l) {
      BigInt sum;
      if (l < keep_one.size()) sum += keep_one[l] * static_cast<uint64_t>(n);
      if (l < keep_none.size()) sum += keep_none[l];
      EXPECT_EQ(total[l], sum) << "n = " << n << ", length " << l;
    }
  }
}

TEST(ExactSupportTest, NoWitnessMeansNoEnumeration) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"a", "b"});
  db.Add("R", {"a", "c"});
  db.Add("R", {"d", "b"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans(x) :- R(x,y)");

  ExactRF none =
      ExactSequenceFrequency(db, keys, q, {ValuePool::Intern("b")});
  EXPECT_TRUE(none.numerator.IsZero());
  EXPECT_EQ(none.repairs_checked, 0u);
  EXPECT_EQ(none.blocks_varied, 0u);

  // d's only witness is the singleton block R(d, ·): nothing varies, one
  // repair view is checked, and the free block R(a, ·) contributes its
  // 3 outcomes.
  ExactRF d = ExactRepairFrequency(db, keys, q, {ValuePool::Intern("d")});
  EXPECT_EQ(d.numerator, BigInt(3));
  EXPECT_EQ(d.denominator, BigInt(3));
  EXPECT_EQ(d.repairs_checked, 1u);
  EXPECT_EQ(d.blocks_varied, 0u);
}

TEST(ExactSupportTest, ForEachRepairVariesOnlyListedBlocks) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"a", "1"});
  db.Add("R", {"a", "2"});
  db.Add("R", {"b", "1"});
  db.Add("R", {"c", "1"});
  db.Add("R", {"c", "2"});
  db.Add("R", {"c", "3"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  ASSERT_EQ(blocks.block_count(), 3u);

  size_t a = blocks.BlockOf(0);
  size_t b = blocks.BlockOf(2);
  size_t c = blocks.BlockOf(3);
  std::vector<size_t> vary = {b, c};
  size_t visits = 0;
  ForEachRepair(
      blocks,
      [&](const std::vector<BlockOutcome>& outcomes,
          const std::vector<FactId>& kept) {
        ++visits;
        EXPECT_FALSE(outcomes[a].has_value());
        EXPECT_EQ(outcomes[b], std::optional<FactId>(2));
        for (FactId f : kept) EXPECT_NE(blocks.BlockOf(f), a);
        EXPECT_EQ(kept.size(), outcomes[c].has_value() ? 2u : 1u);
        return true;
      },
      &vary);
  EXPECT_EQ(visits, 4u);  // the singleton keeps its fact; c has 3 + 1
}

}  // namespace
}  // namespace uocqa
