// CompiledNfta: structural equivalence with the mutable Nfta it flattens,
// bitset-run equivalence with the legacy sorted-vector membership oracle,
// and bit-identity pins for the FPRAS selection/sampling rewrite.

#include "automata/compiled_nfta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "automata/nfta.h"
#include "base/rng.h"
#include "random_automaton.h"

namespace uocqa {
namespace {

// The pre-flattening membership oracle, kept verbatim as the reference:
// bottom-up sorted behaviour vectors probed by binary_search.
std::vector<NftaState> LegacyAcceptingStates(const Nfta& a,
                                             const LabeledTree& tree) {
  std::vector<std::vector<NftaState>> child_behaviors;
  child_behaviors.reserve(tree.children.size());
  for (const LabeledTree& c : tree.children) {
    child_behaviors.push_back(LegacyAcceptingStates(a, c));
  }
  std::vector<NftaState> out;
  for (const NftaTransition* t : a.TransitionsWithSymbol(tree.symbol)) {
    if (t->children.size() != tree.children.size()) continue;
    bool ok = true;
    for (size_t i = 0; i < t->children.size(); ++i) {
      if (!std::binary_search(child_behaviors[i].begin(),
                              child_behaviors[i].end(), t->children[i])) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(t->from);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void EnumerateTrees(size_t symbols, size_t size, size_t max_rank,
                    std::vector<LabeledTree>* out) {
  if (size == 0) return;
  for (NftaSymbol s = 0; s < symbols; ++s) {
    if (size == 1) {
      out->push_back(LabeledTree(s));
      continue;
    }
    if (max_rank >= 1) {
      std::vector<LabeledTree> subs;
      EnumerateTrees(symbols, size - 1, max_rank, &subs);
      for (const LabeledTree& c : subs) {
        out->push_back(LabeledTree(s, {c}));
      }
    }
    if (max_rank >= 2) {
      for (size_t left = 1; left + 1 <= size - 1; ++left) {
        std::vector<LabeledTree> ls, rs;
        EnumerateTrees(symbols, left, max_rank, &ls);
        EnumerateTrees(symbols, size - 1 - left, max_rank, &rs);
        for (const LabeledTree& l : ls) {
          for (const LabeledTree& r : rs) {
            out->push_back(LabeledTree(s, {l, r}));
          }
        }
      }
    }
  }
}

// --- CSR structure -----------------------------------------------------------

class CompiledStructureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledStructureTest, CsrMatchesSourceAutomaton) {
  Nfta a = RandomAutomaton(GetParam());
  const CompiledNfta& c = a.Compiled();

  EXPECT_EQ(c.state_count(), a.state_count());
  EXPECT_EQ(c.symbol_count(), a.symbol_count());
  EXPECT_EQ(c.transition_count(), a.transition_count());
  EXPECT_EQ(c.max_rank(), a.MaxRank());
  EXPECT_EQ(c.initial(), a.initial());
  EXPECT_EQ(c.words_per_set(), (a.state_count() + 63) / 64);

  // The by-from view is the dense id order; every transition matches its
  // source, children inlined in the arena in order.
  size_t total = 0;
  for (NftaState q = 0; q < a.state_count(); ++q) {
    const std::vector<NftaTransition>& src = a.TransitionsFrom(q);
    CompiledNfta::IdRange range = c.TransitionsFrom(q);
    ASSERT_EQ(range.size(), src.size()) << "state " << q;
    for (size_t i = 0; i < src.size(); ++i) {
      CompiledNfta::TransitionId id = range.begin + i;
      EXPECT_EQ(c.from(id), src[i].from);
      EXPECT_EQ(c.symbol(id), src[i].symbol);
      ASSERT_EQ(c.rank(id), src[i].children.size());
      for (size_t k = 0; k < src[i].children.size(); ++k) {
        EXPECT_EQ(c.children(id)[k], src[i].children[k]);
      }
    }
    total += src.size();
  }
  EXPECT_EQ(total, c.transition_count());

  // The by-symbol view contains exactly the transitions of each symbol.
  for (NftaSymbol s = 0; s < a.symbol_count(); ++s) {
    CompiledNfta::IdRange range = c.TransitionsWithSymbol(s);
    EXPECT_EQ(range.size(), a.TransitionsWithSymbol(s).size());
    for (uint32_t i = range.begin; i < range.end; ++i) {
      EXPECT_EQ(c.symbol(c.group_id(i)), s);
    }
  }

  // (symbol, rank) groups partition all ids; GroupIndex agrees.
  size_t grouped = 0;
  for (size_t gi = 0; gi < c.symbol_rank_groups().size(); ++gi) {
    const CompiledNfta::SymbolRankGroup& g = c.symbol_rank_groups()[gi];
    EXPECT_EQ(c.GroupIndex(g.symbol, g.rank), static_cast<int32_t>(gi));
    for (uint32_t i = g.ids_begin; i < g.ids_end; ++i) {
      CompiledNfta::TransitionId id = c.group_id(i);
      EXPECT_EQ(c.symbol(id), g.symbol);
      EXPECT_EQ(c.rank(id), g.rank);
      ++grouped;
    }
  }
  EXPECT_EQ(grouped, c.transition_count());
  EXPECT_EQ(c.GroupIndex(0, 17), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledStructureTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// --- membership equivalence --------------------------------------------------

class CompiledMembershipTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledMembershipTest, BitsetRunMatchesLegacyOracle) {
  Nfta a = RandomAutomaton(GetParam() * 131 + 7);
  const CompiledNfta& c = a.Compiled();
  CompiledNfta::Workspace ws;
  std::vector<uint64_t> behavior(c.words_per_set());
  for (size_t size = 1; size <= 5; ++size) {
    std::vector<LabeledTree> all;
    EnumerateTrees(a.symbol_count(), size, 2, &all);
    for (const LabeledTree& t : all) {
      std::vector<NftaState> legacy = LegacyAcceptingStates(a, t);
      // Nfta::AcceptingStates (the compiled delegate) and the raw bitset
      // run agree with the legacy sorted-vector oracle.
      EXPECT_EQ(a.AcceptingStates(t), legacy);
      EXPECT_EQ(c.AcceptingStates(t, &ws), legacy);
      c.BehaviorOf(t, &ws, behavior.data());
      std::vector<NftaState> bits;
      c.AppendSetBits(behavior.data(), &bits);
      EXPECT_EQ(bits, legacy);
      // Accepts / AcceptsFrom agree with membership and with run counting
      // (a tree is accepted iff it has at least one accepting run).
      bool accepted = std::binary_search(legacy.begin(), legacy.end(),
                                         a.initial());
      EXPECT_EQ(a.Accepts(t), accepted);
      EXPECT_EQ(c.Accepts(t, &ws), accepted);
      EXPECT_EQ(a.CountAcceptingRuns(t) > 0, accepted);
      for (NftaState q = 0; q < a.state_count(); ++q) {
        EXPECT_EQ(c.AcceptsFrom(q, t, &ws),
                  std::binary_search(legacy.begin(), legacy.end(), q));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledMembershipTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

TEST(CompiledNftaTest, RebuiltAfterMutation) {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  a.AddTransition(q, x, {});
  a.SetInitial(q);
  EXPECT_FALSE(a.Accepts(LabeledTree(x, {LabeledTree(x)})));
  // Mutating the automaton invalidates the compiled view.
  a.AddTransition(q, x, {q});
  EXPECT_TRUE(a.Accepts(LabeledTree(x, {LabeledTree(x)})));
  EXPECT_EQ(a.Compiled().transition_count(), 2u);
  // New states widen the bitsets.
  NftaState q2 = a.AddState();
  NftaSymbol y = a.InternSymbol("y");
  a.AddTransition(q2, y, {});
  a.AddTransition(q, x, {q2});
  EXPECT_TRUE(a.Accepts(LabeledTree(x, {LabeledTree(y)})));
}

TEST(CompiledNftaTest, SnapshotOutlivesMutation) {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  a.AddTransition(q, x, {});
  a.SetInitial(q);
  std::shared_ptr<const CompiledNfta> snap = a.CompiledShared();
  a.AddTransition(q, x, {q});
  // The snapshot still describes the automaton as it was.
  EXPECT_EQ(snap->transition_count(), 1u);
  EXPECT_EQ(a.Compiled().transition_count(), 2u);
  CompiledNfta::Workspace ws;
  EXPECT_FALSE(snap->Accepts(LabeledTree(x, {LabeledTree(x)}), &ws));
}

TEST(CompiledNftaTest, WorkspaceReusableAcrossAutomata) {
  CompiledNfta::Workspace ws;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Nfta a = RandomAutomaton(seed);
    const CompiledNfta& c = a.Compiled();
    std::vector<LabeledTree> all;
    EnumerateTrees(a.symbol_count(), 3, 2, &all);
    for (const LabeledTree& t : all) {
      EXPECT_EQ(c.AcceptingStates(t, &ws), LegacyAcceptingStates(a, t));
    }
  }
}

// --- FPRAS bit-identity pins -------------------------------------------------
//
// Proportional selection (prefix sums + binary search) and tree
// construction (pooled nodes) are contractually RNG-neutral: one uniform
// per pick, sampling children in a fixed order. The sample traces were
// recorded before the flattening and still hold; the estimate pins were
// re-recorded once for seed schema 3 (union seeds keyed by cell). Any drift
// in estimates or sampled trees is a regression.

Nfta AmbiguousAutomaton(int k) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  for (int i = 0; i < k; ++i) {
    NftaState qi = a.AddState();
    a.AddTransition(q0, sa, {qi});
    a.AddTransition(qi, sb, {qi});
    a.AddTransition(qi, sb, {});
  }
  a.SetInitial(q0);
  return a;
}

Nfta FullBinaryTreeAutomaton() {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  a.AddTransition(q, x, {q, q});
  a.AddTransition(q, x, {});
  a.SetInitial(q);
  return a;
}

// Overlap-rich: q0 -a-> q1 (b-chains), q0 -a-> q2 (b|c chains), plus both
// binary branches; unions at every size and rank.
Nfta OverlapAutomaton() {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaState q1 = a.AddState();
  NftaState q2 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  a.AddTransition(q0, sa, {q1});
  a.AddTransition(q0, sa, {q2});
  a.AddTransition(q0, sa, {q1, q2});
  a.AddTransition(q0, sa, {q2, q1});
  a.AddTransition(q1, sb, {q1});
  a.AddTransition(q1, sb, {});
  a.AddTransition(q2, sb, {q2});
  a.AddTransition(q2, sc, {q2});
  a.AddTransition(q2, sb, {});
  a.AddTransition(q2, sc, {});
  a.SetInitial(q0);
  return a;
}

// --- workspace reuse ---------------------------------------------------------

// One Workspace reused across automata of very different widths: EnsureSlots
// must regrow (and the stale contents of a previous, narrower automaton must
// never leak into results).
TEST(CompiledWorkspaceTest, EnsureSlotsRegrowsAcrossAutomata) {
  CompiledNfta::Workspace ws;

  // Small automaton first (1 word per set) to warm the workspace small.
  Nfta small = RandomAutomaton(12);
  {
    const CompiledNfta& c = small.Compiled();
    LabeledTree leaf(0);
    (void)c.Accepts(leaf, &ws);
  }
  size_t warm = ws.slots.size();

  // Wide automaton: 200 states (4 words per set), accepting chain through
  // high states only.
  Nfta wide;
  for (int i = 0; i < 200; ++i) wide.AddState();
  NftaSymbol sx = wide.InternSymbol("x");
  wide.AddTransition(190, sx, {});            // leaf accepted at state 190
  wide.AddTransition(199, sx, {190});         // unary on top
  wide.SetInitial(199);
  const CompiledNfta& c = wide.Compiled();
  ASSERT_EQ(c.words_per_set(), 4u);

  LabeledTree tree(sx, {LabeledTree(sx)});
  EXPECT_TRUE(c.Accepts(tree, &ws));
  EXPECT_GT(ws.slots.size(), warm);  // regrew for the wider sets

  // Deep tree forces slot-stack growth beyond the initial EnsureSlots.
  Nfta chain;
  for (int i = 0; i < 64; ++i) chain.AddState();
  NftaSymbol cy = chain.InternSymbol("y");
  chain.AddTransition(0, cy, {});
  chain.AddTransition(0, cy, {0});
  chain.SetInitial(0);
  const CompiledNfta& cc = chain.Compiled();
  LabeledTree spine(cy);
  for (int i = 0; i < 50; ++i) spine = LabeledTree(cy, {spine});
  EXPECT_TRUE(cc.Accepts(spine, &ws));

  // And the small automaton still evaluates correctly with the (now large)
  // workspace — no stale high words bleed through.
  std::vector<NftaState> again;
  {
    const CompiledNfta& cs = small.Compiled();
    LabeledTree leaf(0);
    again = cs.AcceptingStates(leaf, &ws);
    for (NftaState q : again) EXPECT_LT(q, cs.state_count());
  }
}

// AppendSetBits with bits only above word 0 (high-word-only sets): the
// 200-state automaton above accepts only at states 190/199, so the bitset
// run's result words 0..2 are zero and word 3 carries everything.
TEST(CompiledWorkspaceTest, AppendSetBitsHighWordOnly) {
  Nfta wide;
  for (int i = 0; i < 200; ++i) wide.AddState();
  NftaSymbol sx = wide.InternSymbol("x");
  wide.AddTransition(190, sx, {});
  wide.AddTransition(199, sx, {190});
  wide.SetInitial(199);
  const CompiledNfta& c = wide.Compiled();

  CompiledNfta::Workspace ws;
  std::vector<NftaState> leaf_states =
      c.AcceptingStates(LabeledTree(sx), &ws);
  EXPECT_EQ(leaf_states, std::vector<NftaState>{190});
  std::vector<NftaState> top_states =
      c.AcceptingStates(LabeledTree(sx, {LabeledTree(sx)}), &ws);
  EXPECT_EQ(top_states, std::vector<NftaState>{199});
}

// Sample-trace pins: approximately-uniform draws at fixed seeds.
TEST(FprasBitIdentityTest, SampleTracesPinned) {
  {
    Nfta a = FullBinaryTreeAutomaton();
    FprasConfig cfg;
    NftaFpras f(a, cfg);
    Rng rng(5);
    const char* kTrace[] = {
        "x(x,x(x(x,x),x(x,x)))", "x(x(x,x),x(x,x(x,x)))",
        "x(x(x,x),x(x(x,x),x))", "x(x(x(x,x),x(x,x)),x)",
        "x(x,x(x,x(x,x(x,x))))", "x(x(x(x(x,x),x),x),x)",
        "x(x(x,x(x,x(x,x))),x)", "x(x,x(x,x(x,x(x,x))))",
        "x(x,x(x,x(x,x(x,x))))", "x(x,x(x,x(x,x(x,x))))"};
    for (int i = 0; i < 10; ++i) {
      auto t = f.Sample(rng, a.initial(), 9);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(a.TreeToString(*t), kTrace[i]) << "draw " << i;
    }
  }
  {
    // Rejection-heavy trace: random automaton with overlapping components.
    Nfta a = RandomAutomaton(3017);
    FprasConfig cfg;
    cfg.seed = 11;
    NftaFpras f(a, cfg);
    Rng rng(42);
    const char* kTrace[] = {
        "s0(s0(s0,s0(s0,s0)))",   "s0(s0(s0(s0),s0(s0)))",
        "s0(s0(s0(s0(s0(s0)))))", "s0(s0(s0(s0(s0,s0))))",
        "s0(s0(s0,s0(s0(s0))))",  "s0(s0(s0(s0),s0(s0)))",
        "s0(s0(s0(s0(s0(s0)))))", "s0(s0(s0(s0,s0),s0))",
        "s0(s0(s0,s0(s0),s0))",   "s0(s0(s0(s0),s0(s0)))"};
    for (int i = 0; i < 10; ++i) {
      auto t = f.Sample(rng, a.initial(), 6);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(a.TreeToString(*t), kTrace[i]) << "draw " << i;
    }
  }
}

TEST(FprasBitIdentityTest, OverlapSampleTracesPinned) {
  struct Pin {
    uint64_t seed;
    const char* trace[6];
  };
  const Pin kPins[] = {
      {7,
       {"a(b(c(b(b))))", "a(c(c(b(b))))", "a(b(c),b(b))", "a(b,b(c(c)))",
        "a(b(b(b)),b)", "a(c(c(c(b))))"}},
      {21,
       {"a(b,c(b(b)))", "a(b(b),b(b))", "a(c(b),b(b))", "a(b(c(b)),b)",
        "a(b(b),c(b))", "a(c(b(b(b))))"}},
      {1234567,
       {"a(c(b(b)),b)", "a(b,c(c(b)))", "a(c,b(b(b)))", "a(c(b(c(c))))",
        "a(b(b(b)),c)", "a(b(b),c(b))"}}};
  for (const Pin& pin : kPins) {
    Nfta a = OverlapAutomaton();
    FprasConfig cfg;
    cfg.epsilon = 0.15;
    cfg.seed = pin.seed;
    NftaFpras f(a, cfg);
    // Match the recording: estimates computed first, then sampling.
    (void)f.EstimateUpTo(7);
    Rng rng(pin.seed ^ 0xabcdef);
    for (int i = 0; i < 6; ++i) {
      auto t = f.Sample(rng, a.initial(), 5);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(a.TreeToString(*t), pin.trace[i])
          << "seed " << pin.seed << " draw " << i;
    }
  }
}

// Estimate pins (seed schema 3). Any change to the trial path's RNG
// consumption or trial evaluation shows up here.
TEST(FprasBitIdentityTest, AmbiguousEstimatesPinnedV3) {
  Nfta a = AmbiguousAutomaton(4);
  FprasConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 99;
  ASSERT_EQ(cfg.seed_schema, 3);
  NftaFpras f(a, cfg);
  const double kPinned[] = {
      1.0067347198102419,  0.99402770130035156, 0.99673853191579487,
      1.0099538311660807,  0.99284171290609513, 0.9897920284637215,
      1.0031767546274726};
  for (size_t s = 2; s <= 8; ++s) {
    EXPECT_EQ(f.EstimateExactSize(s), kPinned[s - 2]) << "size " << s;
  }
  EXPECT_EQ(f.EstimateUpTo(8), 6.9932652801897577);
  EXPECT_EQ(f.union_estimations(), 7u);
}

TEST(FprasBitIdentityTest, OverlapEstimatesPinnedV3) {
  struct Pin {
    uint64_t seed;
    double upto7;
  };
  const Pin kPins[] = {{7, 339.01658090337332},
                       {21, 339.20144844673149},
                       {1234567, 338.83552506194013}};
  for (const Pin& pin : kPins) {
    Nfta a = OverlapAutomaton();
    FprasConfig cfg;
    cfg.epsilon = 0.15;
    cfg.seed = pin.seed;
    // The estimate is a function of (automaton, config) only — any thread
    // count must reproduce the serial bits (RNG streams are keyed by trial
    // index, so chunk partitioning is irrelevant).
    for (size_t threads : {size_t{1}, size_t{3}}) {
      cfg.threads = threads;
      NftaFpras f(a, cfg);
      EXPECT_EQ(f.EstimateUpTo(7), pin.upto7)
          << "seed " << pin.seed << " threads " << threads;
      EXPECT_EQ(f.union_estimations(), 21u);
    }
  }
}

TEST(FprasBitIdentityTest, RandomAutomataEstimatesPinnedV3) {
  struct Pin {
    uint64_t seed;
    double upto7;
    size_t unions;
  };
  const Pin kPins[] = {{1, 36.707889055833512, 11}, {2, 1.0, 0},
                       {3, 42.967818428184287, 10}, {4, 32.18925467132685, 5},
                       {5, 0.0, 0},                 {6, 1.0, 0}};
  for (const Pin& pin : kPins) {
    Nfta a = RandomAutomaton(pin.seed * 1000 + 17);
    FprasConfig cfg;
    cfg.epsilon = 0.2;
    cfg.seed = pin.seed;
    NftaFpras f(a, cfg);
    EXPECT_EQ(f.EstimateUpTo(7), pin.upto7) << "seed " << pin.seed;
    EXPECT_EQ(f.union_estimations(), pin.unions) << "seed " << pin.seed;
  }
}

// --- disjoint-only automata --------------------------------------------------
//
// (Order independence of the estimates is checked in fpras_order_test.cc.)

// Two a-branches whose b-chains differ only in their leaf symbol: the group
// (a, [s-1]) has k components that are pairwise disjoint, which only the
// recursion down to the leaves can tell.
Nfta DisjointChainsAutomaton(int k) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  for (int i = 0; i < k; ++i) {
    NftaState qi = a.AddState();
    NftaSymbol leaf = a.InternSymbol("l" + std::to_string(i));
    a.AddTransition(q0, sa, {qi});
    a.AddTransition(qi, sb, {qi});
    a.AddTransition(qi, leaf, {});
  }
  a.SetInitial(q0);
  return a;
}

TEST(FprasDisjointnessTest, DisjointOnlyAutomataAreExact) {
  struct Case {
    const char* name;
    Nfta nfta;
    size_t max_size;
  };
  Case cases[] = {{"full binary trees", FullBinaryTreeAutomaton(), 15},
                  {"disjoint chains", DisjointChainsAutomaton(4), 12}};
  for (Case& c : cases) {
    ExactTreeCounter exact(c.nfta);
    NftaFpras f(c.nfta);
    for (size_t s = 1; s <= c.max_size; ++s) {
      EXPECT_EQ(f.EstimateExactSize(s), exact.CountExactSize(s).ToDouble())
          << c.name << " size " << s;
    }
    EXPECT_EQ(f.union_estimations(), 0u) << c.name;
    EXPECT_EQ(f.klm_trials(), 0u) << c.name;
  }
  // Disjointness was proved, not just absent: each chains size >= 2 cell has
  // a four-component group.
  NftaFpras chains(cases[1].nfta);
  (void)chains.EstimateUpTo(12);
  EXPECT_EQ(chains.groups_disjoint(), 11u);
}

TEST(FprasBitIdentityTest, ExactCountsPinned) {
  struct Pin {
    uint64_t seed;
    const char* upto9;
    size_t behaviors;
  };
  const Pin kPins[] = {{1, "197", 3}, {2, "1", 1},   {3, "277", 3},
                       {4, "128", 9}, {5, "0", 1},   {6, "1", 1}};
  for (const Pin& pin : kPins) {
    Nfta a = RandomAutomaton(pin.seed * 1000 + 17);
    ExactTreeCounter c(a);
    EXPECT_EQ(c.CountUpTo(9).ToString(), pin.upto9) << "seed " << pin.seed;
    EXPECT_EQ(c.BehaviorCount(), pin.behaviors) << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace uocqa
