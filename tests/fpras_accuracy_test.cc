// Statistical gate for the ♯NFTA FPRAS (paper Theorem D.1): over many
// seeded small chain, star and cycle instances, the brute-force exact
// numerators agree with the automaton's exact count, and the share of
// ApproxUr / ApproxUs estimates outside (1±ε)·exact is at most δ plus a
// binomial confidence margin. An estimate that ran no KLM union is a sum of
// products of exact counts, so it must equal the exact count. Any change to
// how the estimator draws its randomness must keep this green before FPRAS
// pins are re-recorded.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ocqa/engine.h"
#include "query/parser.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

constexpr size_t kDomain = 3;
constexpr uint64_t kSeeds = 240;
constexpr double kEpsilon = 0.2;
constexpr double kDelta = 0.1;

// Chain, star and cycle shapes over binary R1..R3 (key = first attribute);
// one non-Boolean chain whose answer is drawn from the domain per seed.
const char* const kQueries[] = {
    "Ans() :- R1(x,y), R2(y,z)",
    "Ans() :- R1(x,y), R2(y,z), R3(z,w)",
    "Ans() :- R1(c,x), R2(c,y), R3(c,z)",
    "Ans() :- R1(x,y), R2(y,z), R3(z,x)",
    "Ans(x) :- R1(x,y), R2(y,z)",
};

struct Tally {
  size_t checked = 0;
  size_t outside = 0;
  size_t sampled = 0;  // estimates that ran KLM trials
  size_t inexact = 0;  // estimates without trials that miss the exact count
  void Add(const ApproxRF& approx, const BigInt& exact) {
    ++checked;
    double estimate = approx.numerator;
    double want = exact.ToDouble();
    if (approx.union_trials > 0) {
      ++sampled;
    } else if (estimate != want) {
      ++inexact;
    }
    bool in_bound = want == 0 ? estimate == 0
                              : std::abs(estimate - want) <= kEpsilon * want;
    if (!in_bound) ++outside;
  }
  /// δ plus a one-sided binomial margin of three standard deviations.
  double Bound() const {
    double n = static_cast<double>(checked);
    return kDelta + 3.0 * std::sqrt(kDelta * (1 - kDelta) / n);
  }
  double Share() const {
    return static_cast<double>(outside) / static_cast<double>(checked);
  }
};

TEST(FprasAccuracyTest, EstimatesWithinEpsilonOnRandomInstances) {
  Tally ur_tally;
  Tally us_tally;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 7919 + 1);
    DbGenOptions gen;
    gen.blocks_per_relation = 2;
    gen.min_block_size = 1;
    gen.max_block_size = 3;
    gen.domain_size = kDomain;
    const char* text = kQueries[seed % std::size(kQueries)];
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    GeneratedInstance inst = GenerateDatabaseForQuery(rng, *query, gen);
    std::vector<Value> answer;
    if (!query->answer_vars().empty()) {
      answer.push_back(ValuePool::Intern(
          "d" + std::to_string(rng.UniformIndex(kDomain))));
    }

    OcqaEngine engine(inst.db, inst.keys);
    ExactRF exact_ur = engine.ExactUr(*query, answer);
    ExactRF exact_us = engine.ExactUs(*query, answer);
    auto via_automaton = engine.RepairsEntailingViaAutomaton(*query, answer);
    ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
    EXPECT_EQ(*via_automaton, exact_ur.numerator)
        << "seed " << seed << " query " << text;

    OcqaOptions options;
    options.fpras.epsilon = kEpsilon;
    options.fpras.delta = kDelta;
    options.fpras.seed = seed;
    options.threads = 1;
    auto ur = engine.ApproxUr(*query, answer, options);
    auto us = engine.ApproxUs(*query, answer, options);
    ASSERT_TRUE(ur.ok()) << ur.status().ToString();
    ASSERT_TRUE(us.ok()) << us.status().ToString();
    ur_tally.Add(*ur, exact_ur.numerator);
    us_tally.Add(*us, exact_us.numerator);
  }
  std::printf(
      "outside (1±ε): RF_ur %zu/%zu, RF_us %zu/%zu (bound %.3f); "
      "with KLM trials: RF_ur %zu, RF_us %zu\n",
      ur_tally.outside, ur_tally.checked, us_tally.outside, us_tally.checked,
      ur_tally.Bound(), ur_tally.sampled, us_tally.sampled);
  EXPECT_EQ(ur_tally.checked, kSeeds);
  EXPECT_EQ(ur_tally.inexact, 0u);
  EXPECT_EQ(us_tally.inexact, 0u);
  // The gate is vacuous unless some estimates really ran KLM.
  EXPECT_GT(ur_tally.sampled + us_tally.sampled, 20u);
  EXPECT_LE(ur_tally.Share(), ur_tally.Bound())
      << ur_tally.outside << " of " << ur_tally.checked << " RF_ur estimates";
  EXPECT_LE(us_tally.Share(), us_tally.Bound())
      << us_tally.outside << " of " << us_tally.checked << " RF_us estimates";
}

}  // namespace
}  // namespace uocqa
