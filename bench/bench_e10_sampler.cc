// E10b — exact-uniform samplers (the data-complexity Monte-Carlo regime of
// [13]): throughput of the uniform repair and uniform sequence samplers,
// the additive convergence of the MC baselines toward the exact RF, and the
// per-sample entailment check those baselines pay: a materialized repair
// (Database::Subset, then a fresh evaluator) against a repair view over
// the base index (RepairChecker).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ocqa/engine.h"
#include "planner/cost.h"
#include "planner/join_order.h"
#include "query/eval.h"
#include "repairs/counting.h"
#include "repairs/sampling.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

GeneratedInstance MakeInstance(size_t blocks) {
  Rng rng(60 + blocks);
  ConjunctiveQuery q = ChainQuery(2);
  DbGenOptions gen;
  gen.blocks_per_relation = blocks;
  gen.min_block_size = 2;
  gen.max_block_size = 4;
  gen.domain_size = 3 * blocks;
  return GenerateDatabaseForQuery(rng, q, gen);
}

void BM_UniformRepairSampler(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(static_cast<size_t>(state.range(0)));
  UniformRepairSampler sampler(inst.db, inst.keys);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.counters["facts"] = static_cast<double>(inst.db.size());
}
BENCHMARK(BM_UniformRepairSampler)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_UniformSequenceSampler(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(static_cast<size_t>(state.range(0)));
  UniformSequenceSampler sampler(inst.db, inst.keys);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.counters["facts"] = static_cast<double>(inst.db.size());
  state.counters["log2|CRS|"] =
      sampler.total_count().IsZero() ? 0 : sampler.total_count().Log2();
}
BENCHMARK(BM_UniformSequenceSampler)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_MonteCarloUrConvergence(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(4);
  ConjunctiveQuery q = ChainQuery(2);
  OcqaEngine engine(inst.db, inst.keys);
  ExactRF exact = engine.ExactUr(q, {});
  size_t samples = static_cast<size_t>(state.range(0));
  double err = 0;
  for (auto _ : state) {
    double mc = engine.MonteCarloUr(q, {}, samples, 9);
    err = std::abs(mc - exact.value());
    benchmark::DoNotOptimize(mc);
  }
  state.counters["abs_err"] = err;
}
BENCHMARK(BM_MonteCarloUrConvergence)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloUsConvergence(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(4);
  ConjunctiveQuery q = ChainQuery(2);
  OcqaEngine engine(inst.db, inst.keys);
  ExactRF exact = engine.ExactUs(q, {});
  size_t samples = static_cast<size_t>(state.range(0));
  double err = 0;
  for (auto _ : state) {
    double mc = engine.MonteCarloUs(q, {}, samples, 10);
    err = std::abs(mc - exact.value());
    benchmark::DoNotOptimize(mc);
  }
  state.counters["abs_err"] = err;
}
BENCHMARK(BM_MonteCarloUsConvergence)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// One Monte-Carlo entailment check: materialized repair vs repair view.
// Arg = key blocks per relation of a 3-atom chain instance with blocks of
// 1-3 facts: 100 is ~620 facts (the live_ingest_mc instance size), 4096 is
// ~24k facts (the bench_e12/e13 instance).
// ---------------------------------------------------------------------------

struct EntailsFixture {
  GeneratedInstance inst;
  ConjunctiveQuery query = ChainQuery(3);
  std::vector<size_t> order;
  std::vector<std::vector<FactId>> repairs;  // uniformly sampled, fixed

  explicit EntailsFixture(size_t blocks) {
    Rng rng(blocks);
    DbGenOptions gen;
    gen.blocks_per_relation = blocks;
    gen.min_block_size = 1;
    gen.max_block_size = 3;
    gen.domain_size = 2 * blocks;
    inst = GenerateDatabaseForQuery(rng, query, gen);
    CostModel model(inst.db, query);
    order = PlanJoinOrder(inst.db, query, model).order;
    UniformRepairSampler sampler(inst.db, inst.keys);
    Rng draw(7);
    for (int i = 0; i < 64; ++i) repairs.push_back(sampler.Sample(draw));
  }

  bool SubsetEntails(const std::vector<FactId>& kept) const {
    Database repair = inst.db.Subset(kept);
    return QueryEvaluator(repair, query, order).Entails({});
  }
};

void BM_RepairEntailsSubset(benchmark::State& state) {
  EntailsFixture f(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.SubsetEntails(f.repairs[i++ % f.repairs.size()]));
  }
  state.counters["facts"] = static_cast<double>(f.inst.db.size());
}
BENCHMARK(BM_RepairEntailsSubset)->Arg(100)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_RepairEntailsView(benchmark::State& state) {
  EntailsFixture f(static_cast<size_t>(state.range(0)));
  RepairChecker checker(f.inst.db, f.query, {}, &f.order);
  // Both sides must agree on every repair before either is timed.
  size_t entailing = 0;
  for (const std::vector<FactId>& kept : f.repairs) {
    bool view = checker.Entails(kept);
    if (view != f.SubsetEntails(kept)) {
      std::fprintf(stderr, "repair view disagrees with Subset\n");
      std::abort();
    }
    entailing += view;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker.Entails(f.repairs[i++ % f.repairs.size()]));
  }
  state.counters["facts"] = static_cast<double>(f.inst.db.size());
  state.counters["entailing_frac"] =
      static_cast<double>(entailing) / static_cast<double>(f.repairs.size());
}
BENCHMARK(BM_RepairEntailsView)->Arg(100)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace uocqa

BENCHMARK_MAIN();
