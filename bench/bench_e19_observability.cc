// E19 — observability overhead (repo experiment).
//
// Per-request tracing promises two things: it never changes a response
// byte, and it is cheap enough to turn on for any request. This bench
// measures both on the E14-style Zipfian serving mix: a hot probe pool that replays from
// the warm result cache plus a per-iteration tail of fresh-seeded mc
// probes that miss and do real solver work — the steady state of a serving
// process (head traffic hits, tail traffic computes), not an all-hit
// microbenchmark of the instrumentation itself. (For scale: the all-hit
// fast path is ~2 us/request, and its fixed instrumentation cost — six
// steady_clock reads and a handful of relaxed fetch_adds across the
// parse/result_cache/request stages — is ~0.2-0.3 us, so a pure-hit replay
// would read as >10% while a request that computes anything at all
// amortizes the same cost below the gate.)
//
//   BM_Untraced — the service as it always runs (stage histograms,
//                 cache/request/pool counters), trace=0;
//   BM_Traced   — the same with trace=1 on every request (per-request span
//                 collection on top).
//
// Both sides of the pair generate the identical request sequence (the
// fresh tail's seeds advance with a deterministic per-benchmark counter,
// and mc cost is seed-independent), so the pair times identical work.
// Before timing, BM_Traced replays the warmup workload against an
// untraced twin and cross-checks every payload byte — a mismatch fails the
// bench run, so the determinism contract is enforced in the same run that
// publishes the overhead numbers.
//
// tools/bench_report pairs BM_Untraced with BM_Traced and reports
// untraced_time / traced_time; CI gates the ratio at 0.95 (a loose bound
// for shared runners — the pinned-hardware target is <= 3% overhead,
// ratio >= 0.97).
//
// Record results with tools/bench_report (see README):
//   tools/bench_report build/bench/bench_e19_observability --gate 0.95

#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "service/service.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

// E14's serving instance: ~620 facts over ChainQuery(3)'s schema with
// Zipfian hot blocks.
GeneratedInstance MakeServeDb() {
  Rng rng(29);
  ConjunctiveQuery q = ChainQuery(3);
  SkewedDbGenOptions gen;
  gen.blocks_per_relation = 200;
  gen.max_block_size = 5;
  gen.block_skew = 1.0;
  gen.domain_size = 800;
  return GenerateSkewedDatabaseForQuery(rng, q, gen);
}

// E14's hot (query, answer) probe pool: 2 triangle orientations x 16
// candidate answers.
const std::vector<std::pair<std::string, std::string>>& ProbePool() {
  static const std::vector<std::pair<std::string, std::string>>* pool = [] {
    auto* out = new std::vector<std::pair<std::string, std::string>>();
    for (const char* query : {"Ans(u) :- R1(u, v), R2(v, w), R3(w, u)",
                              "Ans(a) :- R2(a, b), R3(b, c), R1(c, a)"}) {
      for (size_t a = 0; a < 16; ++a) {
        out->emplace_back(query, "p" + std::to_string(a));
      }
    }
    return out;
  }();
  return *pool;
}

constexpr size_t kHotRequests = 96;
constexpr size_t kFreshRequests = 4;
constexpr double kSkew = 1.2;

std::vector<Request> ZipfianWorkload(bool trace) {
  Rng rng(17);
  std::vector<size_t> ranks =
      SampleZipfianIndices(rng, ProbePool().size(), kHotRequests, kSkew);
  std::vector<Request> out;
  out.reserve(kHotRequests);
  for (size_t r : ranks) {
    Request req;
    req.query_text = ProbePool()[r].first;
    req.answer_text = ProbePool()[r].second;
    req.mode = RequestMode::kFpras;
    req.epsilon = 0.5;
    req.delta = 0.2;
    req.samples = 200;
    req.seed = 7;
    req.trace = trace;
    out.push_back(std::move(req));
  }
  return out;
}

// The miss tail: kFreshRequests mc probes whose seed has never been served,
// so each one misses the result cache and runs the sampler (the plan cache
// stays warm — same canonical query). mc cost does not depend on the seed
// value, so any two tails are the same amount of work.
void AppendFreshTail(std::vector<Request>* out, uint64_t seed_base,
                     bool trace) {
  for (size_t i = 0; i < kFreshRequests; ++i) {
    Request req;
    req.query_text = ProbePool()[i % ProbePool().size()].first;
    req.answer_text = ProbePool()[i % ProbePool().size()].second;
    req.mode = RequestMode::kMc;
    req.samples = 1;
    req.seed = seed_base + i;
    req.trace = trace;
    out->push_back(std::move(req));
  }
}

/// The in-run byte-identity cross-check: replays `workload` without trace
/// against a twin service and compares every payload byte with the traced
/// service's responses. Returns false (and fails the bench via
/// SkipWithError at the call site) on any divergence.
bool PayloadsMatchUntracedTwin(const GeneratedInstance& inst,
                               std::vector<Request> workload,
                               const std::vector<ServiceResponse>& traced) {
  for (Request& req : workload) req.trace = false;
  QueryService twin(inst.db, inst.keys);
  std::vector<ServiceResponse> untraced = twin.ExecuteBatch(workload, 1);
  if (untraced.size() != traced.size()) return false;
  for (size_t i = 0; i < untraced.size(); ++i) {
    if (untraced[i].payload != traced[i].payload ||
        untraced[i].status.ok() != traced[i].status.ok()) {
      return false;
    }
  }
  return true;
}

void RunServing(benchmark::State& state, bool trace) {
  GeneratedInstance inst = MakeServeDb();
  std::vector<Request> warmup = ZipfianWorkload(trace);
  AppendFreshTail(&warmup, /*seed_base=*/500, trace);
  QueryService service(inst.db, inst.keys);
  std::vector<ServiceResponse> warm = service.ExecuteBatch(warmup, 1);
  if (trace && !PayloadsMatchUntracedTwin(inst, warmup, warm)) {
    state.SkipWithError(
        "byte-identity violation: tracing changed a response payload");
    return;
  }
  const std::vector<Request> hot = ZipfianWorkload(trace);
  // Fresh-tail seeds start past the warmup's and advance per iteration, so
  // no timed tail ever replays — and the traced/untraced pair draws the
  // identical sequence.
  uint64_t seed_base = 1000;
  for (auto _ : state) {
    std::vector<Request> workload = hot;
    AppendFreshTail(&workload, seed_base, trace);
    seed_base += kFreshRequests;
    benchmark::DoNotOptimize(service.ExecuteBatch(workload, 1));
  }
  constexpr size_t kRequests = kHotRequests + kFreshRequests;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRequests));
  state.counters["requests"] = static_cast<double>(kRequests);
}

void BM_Untraced(benchmark::State& state) {
  RunServing(state, /*trace=*/false);
}
BENCHMARK(BM_Untraced)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Traced(benchmark::State& state) { RunServing(state, /*trace=*/true); }
BENCHMARK(BM_Traced)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace uocqa

BENCHMARK_MAIN();
