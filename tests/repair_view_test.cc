// Differential tests for repair views: RepairChecker evaluates each repair
// over the base instance's index with a kept-fact mask, and must give the
// verdict of the materialized repair, Entails(db.Subset(kept), q), for every
// operational repair, query shape, answer tuple and atom order. Also pins
// the memoized CountSequencesEntailing against the unmemoized per-outcome
// sum and, where the Seq[k] automaton is small enough, against its count.

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "ocqa/engine.h"
#include "planner/cost.h"
#include "planner/join_order.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

constexpr size_t kDomain = 4;

/// A random instance over binary R1, R2, R3 (key = first attribute) with
/// constants d0..d{kDomain-1}.
GeneratedInstance MakeInstance(uint64_t seed, size_t max_block_size) {
  Rng rng(seed);
  DbGenOptions gen;
  gen.blocks_per_relation = 2;
  gen.min_block_size = 1;
  gen.max_block_size = max_block_size;
  gen.domain_size = kDomain;
  return GenerateDatabaseForQuery(rng, ChainQuery(3), gen);
}

std::vector<size_t> PlannedOrder(const Database& db,
                                 const ConjunctiveQuery& query) {
  CostModel model(db, query);
  return PlanJoinOrder(db, query, model).order;
}

/// Every answer tuple of `arity` over the domain plus one constant that
/// occurs nowhere in the database.
std::vector<std::vector<Value>> AnswerTuples(size_t arity) {
  std::vector<Value> values;
  for (size_t i = 0; i < kDomain; ++i) {
    values.push_back(ValuePool::Intern("d" + std::to_string(i)));
  }
  values.push_back(ValuePool::Intern("absent"));
  std::vector<std::vector<Value>> out{{}};
  for (size_t a = 0; a < arity; ++a) {
    std::vector<std::vector<Value>> next;
    for (const std::vector<Value>& prefix : out) {
      for (Value v : values) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

// Chain, star and cycle shapes; Boolean and non-Boolean; a repeated answer
// variable; a constant term; a relation the database lacks.
const char* const kQueries[] = {
    "Ans() :- R1(x,y), R2(y,z)",
    "Ans() :- R1(x,y), R2(y,z), R3(z,w)",
    "Ans() :- R1(c,x), R2(c,y), R3(c,z)",
    "Ans() :- R1(x,y), R2(y,z), R3(z,x)",
    "Ans(x) :- R1(x,y), R2(y,z)",
    "Ans(x,z) :- R1(x,y), R2(y,z)",
    "Ans(c) :- R1(c,x), R3(c,y)",
    "Ans(x,x) :- R1(x,y), R2(y,x)",
    "Ans(y) :- R1('d1',y), R2(y,z)",
    "Ans() :- R2('d0',y)",
    "Ans() :- R1(x,y), Missing(y,z)",
};

class RepairViewTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepairViewTest, ViewVerdictEqualsMaterializedRepair) {
  GeneratedInstance inst = MakeInstance(GetParam(), 3);
  const Database& db = inst.db;
  BlockPartition blocks = BlockPartition::Compute(db, inst.keys);

  struct Case {
    const ConjunctiveQuery* query;
    std::vector<Value> answer;
    const char* order;
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
    std::vector<size_t> planned = PlannedOrder(db, q);
    for (std::vector<Value>& answer : AnswerTuples(q.answer_vars().size())) {
      cases.push_back({&q, answer, "greedy"});
      checkers.emplace_back(db, q, answer);
      cases.push_back({&q, answer, "planned"});
      checkers.emplace_back(db, q, answer, &planned);
    }
  }

  size_t repairs = 0;
  std::vector<size_t> entailing(cases.size(), 0);
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>&,
                            const std::vector<FactId>& kept) {
    ++repairs;
    Database repair = db.Subset(kept);
    for (size_t i = 0; i < cases.size(); ++i) {
      bool expected = Entails(repair, *cases[i].query, cases[i].answer);
      EXPECT_EQ(checkers[i].Entails(kept), expected)
          << "seed " << GetParam() << ", " << cases[i].order << " order, "
          << cases[i].query->ToString() << ", repair of " << kept.size()
          << " facts";
      if (expected) ++entailing[i];
    }
    return !HasFailure();
  });
  EXPECT_EQ(BigInt(repairs), CountOperationalRepairs(blocks));
  // The instance must exercise both verdicts somewhere.
  size_t some = 0;
  size_t all = 0;
  for (size_t n : entailing) {
    some += n > 0;
    all += n == repairs;
  }
  EXPECT_GT(some, 0u);
  EXPECT_LT(all, cases.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairViewTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

TEST(RepairViewTest, EvaluatorSkipsMaskedFactsBeforeCountingNodes) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"a", "b"});
  db.Add("R", {"a", "c"});
  db.Add("R", {"a", "d"});
  ConjunctiveQuery q = *ParseQuery("Ans(y) :- R(x,y)");
  std::vector<uint8_t> kept = {0, 1, 0};
  QueryEvaluator eval(db, q, {0}, &kept);
  EXPECT_EQ(eval.Answers(),
            (std::vector<std::vector<Value>>{{ValuePool::Intern("c")}}));
  EXPECT_EQ(eval.nodes_visited(), 1u);
  // The mask is read on every call.
  kept = {1, 0, 1};
  EXPECT_EQ(eval.CountHomomorphisms({ValuePool::Intern("c")}), 0u);
  EXPECT_EQ(eval.CountHomomorphisms({ValuePool::Intern("d")}), 1u);
}

// --- memoized sequence counting ----------------------------------------------

/// The unmemoized numerator: CountSequencesForOutcome summed over every
/// entailing repair, with entailment on the materialized repair.
BigInt SequencesEntailingReference(const Database& db, const KeySet& keys,
                                   const ConjunctiveQuery& query,
                                   const std::vector<Value>& answer) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt sum;
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>& outcomes,
                            const std::vector<FactId>& kept) {
    if (Entails(db.Subset(kept), query, answer)) {
      sum += CountSequencesForOutcome(blocks, outcomes);
    }
    return true;
  });
  return sum;
}

class SequenceMemoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SequenceMemoTest, MemoizedCountEqualsPerOutcomeSum) {
  // Blocks of 1-4 facts, so several outcome signatures share a count.
  GeneratedInstance inst = MakeInstance(100 + GetParam(), 4);
  for (const char* text : kQueries) {
    ConjunctiveQuery q = *ParseQuery(text);
    for (const std::vector<Value>& answer :
         AnswerTuples(q.answer_vars().size())) {
      EXPECT_EQ(CountSequencesEntailing(inst.db, inst.keys, q, answer),
                SequencesEntailingReference(inst.db, inst.keys, q, answer))
          << "seed " << GetParam() << ", " << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceMemoTest,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

TEST(SequenceMemoTest, MatchesSeqAutomatonOnMixedBlockSizes) {
  // Blocks of sizes 4, 1, 3 and 2: every (size, kept/emptied) pair occurs.
  Schema s;
  s.AddRelationOrDie("A", 2);
  s.AddRelationOrDie("B", 2);
  Database db(s);
  for (const char* v : {"u", "v", "w", "x"}) db.Add("A", {"k1", v});
  db.Add("A", {"k2", "u"});
  for (const char* v : {"k1", "k2", "k3"}) db.Add("B", {"u", v});
  for (const char* v : {"k1", "k2"}) db.Add("B", {"v", v});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("A"), {0});
  keys.SetKeyOrDie(s.Find("B"), {0});
  OcqaEngine engine(db, keys);
  for (const char* text :
       {"Ans() :- A(x,y), B(y,z)", "Ans(x) :- A(x,y), B(y,x)"}) {
    ConjunctiveQuery q = *ParseQuery(text);
    for (const std::vector<Value>& answer :
         q.answer_vars().empty()
             ? std::vector<std::vector<Value>>{{}}
             : std::vector<std::vector<Value>>{{ValuePool::Intern("k1")},
                                               {ValuePool::Intern("k2")}}) {
      BigInt memoized = CountSequencesEntailing(db, keys, q, answer);
      EXPECT_EQ(memoized, SequencesEntailingReference(db, keys, q, answer))
          << text;
      auto via_automaton = engine.SequencesEntailingViaAutomaton(q, answer);
      ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
      EXPECT_EQ(memoized, *via_automaton) << text;
      EXPECT_FALSE(memoized.IsZero()) << text;
    }
  }
}

}  // namespace
}  // namespace uocqa
