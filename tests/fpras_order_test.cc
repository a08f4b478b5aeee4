// Order independence of the ♯NFTA FPRAS estimates (seed schema 3). Union
// seeds are keyed by cell identity, and empty cells are never built, so an
// estimate is a function of (automaton, config, cell) alone: the same bits
// from a fresh estimator as from one that built other cells first, in any
// order, at any lane count. Labelled slow: 1,000 automata, five estimators
// each.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "automata/fpras.h"
#include "automata/nfta.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "random_automaton.h"

namespace uocqa {
namespace {

TEST(FprasOrderIndependenceTest, EstimatesDoNotDependOnVisitOrder) {
  constexpr size_t kMaxSize = 8;
  ThreadPool pool(4);
  size_t with_unions = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Nfta a = RandomAutomaton(seed, 8, 28);
    FprasConfig cfg;
    cfg.seed = seed;
    // Three trial chunks per union (the last one partial): enough to cover
    // chunking, cheap enough for 5,000 estimators.
    cfg.min_samples = 64;
    cfg.max_samples = 160;
    Rng rng(seed ^ 0x5eedull);
    struct Probe {
      NftaState q;
      size_t size;
      double fresh;
    };
    std::vector<Probe> probes;
    for (int i = 0; i < 3; ++i) {
      NftaState q = static_cast<NftaState>(rng.UniformIndex(a.state_count()));
      size_t size = 1 + rng.UniformIndex(kMaxSize);
      NftaFpras fresh(a, cfg);
      probes.push_back({q, size, fresh.EstimateFrom(q, size)});
    }
    NftaFpras fresh_upto(a, cfg);
    double upto = fresh_upto.EstimateUpTo(kMaxSize);
    if (fresh_upto.union_estimations() > 0) ++with_unions;

    // Every cell first, in a shuffled order.
    std::vector<std::pair<NftaState, size_t>> cells;
    for (NftaState q = 0; q < a.state_count(); ++q) {
      for (size_t size = 1; size <= kMaxSize; ++size) {
        cells.push_back({q, size});
      }
    }
    for (size_t i = cells.size(); i > 1; --i) {
      std::swap(cells[i - 1], cells[rng.UniformIndex(i)]);
    }
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      FprasConfig warm_cfg = cfg;
      warm_cfg.threads = lanes;
      NftaFpras warm(a, warm_cfg, lanes == 1 ? nullptr : &pool);
      for (const auto& [q, size] : cells) (void)warm.EstimateFrom(q, size);
      for (const Probe& p : probes) {
        EXPECT_EQ(warm.EstimateFrom(p.q, p.size), p.fresh)
            << "seed " << seed << " lanes " << lanes << " state " << p.q
            << " size " << p.size;
      }
      EXPECT_EQ(warm.EstimateUpTo(kMaxSize), upto)
          << "seed " << seed << " lanes " << lanes;
    }
  }
  // The property is vacuous without KLM unions; most automata have some.
  EXPECT_GT(with_unions, 300u);
}

}  // namespace
}  // namespace uocqa
