// Observability determinism suite: the hard contract is that metrics and
// tracing never change a single response byte. Pins payload byte-identity
// with trace=1/0 across 1/4/8 batch lanes (including
// cached replays on live instances across epochs), the stats line format,
// the metrics/version verbs, the trace grammar, and the slow-query log.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "base/version.h"
#include "db/textio.h"
#include "ocqa/engine.h"
#include "query/parser.h"
#include "service/live.h"
#include "service/request.h"
#include "service/service.h"

namespace uocqa {
namespace {

constexpr const char* kInstance = R"(
key Emp = 1
Emp(e1, hw)
Emp(e1, sw)
Emp(e2, hw)
Emp(e3, sw)
key Dept = 1
Dept(hw, alice)
Dept(hw, bob)
Dept(sw, carol)
)";

ParsedInstance LoadInstance() {
  auto inst = ParseInstanceText(kInstance);
  EXPECT_TRUE(inst.ok());
  return *std::move(inst);
}

/// A mixed workload exercising every solver stage, repeated queries for
/// cache hits, and an explain request. `trace` appends trace=1 to the query
/// lines (the configuration whose bytes must not move).
std::vector<std::string> WorkloadLines(bool trace) {
  const std::string t = trace ? " trace=1" : "";
  return {
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e1 mode=exact" + t,
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e1 mode=fpras"
      " epsilon=0.5 delta=0.2 seed=7" + t,
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e1 mode=mc"
      " samples=500 seed=7" + t,
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e2 mode=all"
      " epsilon=0.5 delta=0.2 samples=500 seed=7" + t,
      // Repeats: result-cache hits must replay the same bytes.
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e1 mode=exact" + t,
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e1 mode=fpras"
      " epsilon=0.5 delta=0.2 seed=7" + t,
      // Variable renaming: plan-cache hit, result-cache hit via canonical.
      "query='Ans(a) :- Emp(a, b), Dept(b, c)' answer=e1 mode=exact" + t,
      "query='Ans(x) :- Emp(x, y), Dept(y, z)' answer=e1 mode=exact"
      " explain=1" + t,
  };
}

struct RunResult {
  std::vector<ServiceResponse> responses;
};

RunResult RunStatic(const ParsedInstance& inst, bool trace, size_t lanes) {
  QueryService service(inst.db, inst.keys);
  return {service.ExecuteBatchLines(WorkloadLines(trace), lanes)};
}

// Pins everything deterministic across configurations. The hit/miss
// marker is compared only when `compare_hit` — in a parallel batch a
// duplicate request can race its twin's cache fill (the service_test
// lane-independence precedent), so hit/miss is lane-dependent while the
// payload bytes are not.
void ExpectSamePayloadBytes(const RunResult& a, const RunResult& b,
                            bool compare_hit = true) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].status.ok(), b.responses[i].status.ok()) << i;
    EXPECT_EQ(a.responses[i].payload, b.responses[i].payload) << i;
    if (compare_hit) {
      EXPECT_EQ(a.responses[i].cache_hit, b.responses[i].cache_hit) << i;
    }
    EXPECT_EQ(a.responses[i].has_epoch, b.responses[i].has_epoch) << i;
    EXPECT_EQ(a.responses[i].epoch, b.responses[i].epoch) << i;
  }
}

// --- the byte-identity contract ---------------------------------------------

TEST(ObservabilityTest, PayloadBytesIdenticalWithTraceAcrossLanes) {
  ParsedInstance inst = LoadInstance();
  RunResult baseline = RunStatic(inst, /*trace=*/false, /*lanes=*/1);
  for (size_t lanes : {size_t{1}, size_t{4}, size_t{8}}) {
    const bool compare_hit = lanes == 1;
    ExpectSamePayloadBytes(baseline,
                           RunStatic(inst, /*trace=*/false, lanes),
                           compare_hit);
    ExpectSamePayloadBytes(baseline, RunStatic(inst, /*trace=*/true, lanes),
                           compare_hit);
  }
}

TEST(ObservabilityTest, LiveCachedReplaysAcrossEpochsUnchangedByTracing) {
  // An exact query whose footprint (Emp, Dept) survives a conflict-free
  // insert into Extra: its cached entry replays byte-identically at the new
  // epoch, traced or not.
  auto lines = [](bool trace) -> std::vector<std::string> {
    const std::string t = trace ? " trace=1" : "";
    return {
        "query='Ans(x) :- Emp(x, y)' answer=e1 mode=exact" + t,
        "add_fact rel=Dept args='ops,dave'",
        "begin_snapshot",
        "query='Ans(x) :- Emp(x, y)' answer=e1 mode=exact" + t,
        "epoch",
    };
  };
  std::vector<std::vector<ServiceResponse>> runs;
  for (bool trace : {false, true}) {
    ParsedInstance inst = LoadInstance();
    LiveInstance live(std::move(inst.db), std::move(inst.keys));
    QueryService service(live);
    runs.push_back(service.ExecuteBatchLines(lines(trace), 2));
  }
  for (const auto& run : runs) {
    ASSERT_EQ(run.size(), 5u);
    EXPECT_FALSE(run[0].cache_hit);
    EXPECT_EQ(run[0].epoch, 0u);
    // The replay crosses the epoch bump: payload bytes identical, epoch
    // stamp (outside the payload) moves to 1.
    EXPECT_TRUE(run[3].cache_hit);
    EXPECT_EQ(run[3].epoch, 1u);
    EXPECT_EQ(run[3].payload, run[0].payload);
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    ExpectSamePayloadBytes({runs[0]}, {runs[i]});
  }
}

TEST(ObservabilityTest, TraceRidesOutsideCachedPayloadBytes) {
  ParsedInstance inst = LoadInstance();
  QueryService service(inst.db, inst.keys);
  Request request;
  request.query_text = "Ans(x) :- Emp(x, y)";
  request.answer_text = "e1";
  request.mode = RequestMode::kExact;

  ServiceResponse plain = service.Execute(request);
  ASSERT_TRUE(plain.status.ok());
  EXPECT_TRUE(plain.trace.empty());

  request.trace = true;
  ServiceResponse traced = service.Execute(request);
  ASSERT_TRUE(traced.status.ok());
  // Traced and untraced requests share one cache entry (trace is not part
  // of the key), and the replayed payload is byte-identical.
  EXPECT_TRUE(traced.cache_hit);
  EXPECT_EQ(traced.payload, plain.payload);
  EXPECT_FALSE(traced.trace.empty());
  // The rendered line carries the trace after the payload.
  std::string line = FormatResponseLine(2, traced);
  EXPECT_NE(line.find(" trace='"), std::string::npos);
  EXPECT_NE(line.find(traced.payload), std::string::npos);
  EXPECT_LT(line.find(traced.payload), line.find(" trace='"));
}

// --- trace grammar -----------------------------------------------------------

TEST(ObservabilityTest, TraceGrammarNamesStagesAndCounts) {
  ParsedInstance inst = LoadInstance();
  QueryService service(inst.db, inst.keys);
  Request request;
  request.query_text = "Ans(x) :- Emp(x, y), Dept(y, z)";
  request.answer_text = "e1";
  request.mode = RequestMode::kFpras;
  request.epsilon = 0.5;
  request.delta = 0.2;
  request.seed = 7;
  request.trace = true;

  ServiceResponse miss = service.Execute(request);
  ASSERT_TRUE(miss.status.ok());
  for (const char* key :
       {"parse_us=", "result_cache_us=", "plan_us=", "compile_us=",
        "planner_us=", "fpras_trials_us=", "total_us=", "cache_hit=0",
        "planner_nodes=", "fpras_trials=", "fpras_unions=",
        "fpras_groups_disjoint=", "fpras_cells="}) {
    EXPECT_NE(miss.trace.find(key), std::string::npos)
        << key << " missing from: " << miss.trace;
  }
  // The counts are the ApproxUr + ApproxUs work counters: on this instance
  // every multi-component group is proved disjoint, so no KLM union runs.
  OcqaEngine engine(inst.db, inst.keys);
  OcqaOptions options;
  options.fpras.epsilon = request.epsilon;
  options.fpras.delta = request.delta;
  options.fpras.seed = request.seed;
  ConjunctiveQuery query = *ParseQuery(request.query_text);
  std::vector<Value> answer = {ValuePool::Intern("e1")};
  Result<ApproxRF> ur = engine.ApproxUr(query, answer, options);
  Result<ApproxRF> us = engine.ApproxUs(query, answer, options);
  ASSERT_TRUE(ur.ok() && us.ok());
  EXPECT_EQ(ur->union_trials + us->union_trials, 0u);
  EXPECT_GT(ur->groups_disjoint + us->groups_disjoint, 0u);
  for (const std::string& count :
       {" fpras_trials=" + std::to_string(ur->klm_trials + us->klm_trials),
        std::string(" fpras_unions=0"),
        " fpras_groups_disjoint=" +
            std::to_string(ur->groups_disjoint + us->groups_disjoint),
        " fpras_cells=" + std::to_string(ur->cells + us->cells)}) {
    EXPECT_NE((miss.trace + " ").find(count + " "), std::string::npos)
        << count << " missing from: " << miss.trace;
  }
  EXPECT_GT(miss.trace.find("total_us="), miss.trace.find("parse_us="));

  ServiceResponse hit = service.Execute(request);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_NE(hit.trace.find("cache_hit=1"), std::string::npos);
  EXPECT_EQ(hit.trace.find("fpras_trials_us="), std::string::npos);

  // An exact request reports the numerators' work counters: e1's support
  // spans the blocks Emp(e1, ·) and Dept(hw, ·) (two facts each) and
  // Dept(sw, carol), so each side varies 2 conflict blocks and checks
  // 3 × 3 repair views.
  request.mode = RequestMode::kExact;
  ServiceResponse exact = service.Execute(request);
  ASSERT_TRUE(exact.status.ok());
  ExactRF exact_ur = engine.ExactUr(query, answer);
  ExactRF exact_us = engine.ExactUs(query, answer);
  EXPECT_EQ(exact_ur.repairs_checked + exact_us.repairs_checked, 18u);
  EXPECT_EQ(exact_ur.blocks_varied + exact_us.blocks_varied, 4u);
  for (const char* key : {"exact_dp_us=", " exact_repairs=18 ",
                          " exact_blocks=4 ", "cache_hit=0"}) {
    EXPECT_NE((exact.trace + " ").find(key), std::string::npos)
        << key << " missing from: " << exact.trace;
  }
}

// --- stats compatibility -----------------------------------------------------

TEST(ObservabilityTest, StatsLineFormatPinned) {
  ParsedInstance inst = LoadInstance();
  QueryService service(inst.db, inst.keys);
  Request request;
  request.query_text = "Ans(x) :- Emp(x, y)";
  request.answer_text = "e1";
  request.mode = RequestMode::kExact;
  service.Execute(request);
  service.Execute(request);  // result-cache hit
  EXPECT_EQ(service.stats().ToString(),
            "requests=2 plan_hits=0 plan_misses=0 plan_evictions=0 "
            "result_hits=1 result_misses=1 result_evictions=0");
}

TEST(ObservabilityTest, LiveStatsCarryEpochFactsPending) {
  ParsedInstance inst = LoadInstance();
  LiveInstance live(std::move(inst.db), std::move(inst.keys));
  QueryService service(live);
  std::vector<std::string> lines = {
      "add_fact rel=Dept args='ops,dave'",
      "begin_snapshot",
      "add_fact rel=Dept args='ops,erin'",
  };
  service.ExecuteBatchLines(lines, 1);
  ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.has_live);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.facts, 8u);
  EXPECT_EQ(stats.pending, 1u);
  std::string text = stats.ToString();
  EXPECT_NE(text.find(" epoch=1 facts=8 pending=1"), std::string::npos);
}

// --- metrics & version verbs -------------------------------------------------

TEST(ObservabilityTest, MetricsVerbExposesStageHistograms) {
  ParsedInstance inst = LoadInstance();
  LiveInstance live(std::move(inst.db), std::move(inst.keys));
  QueryService service(live);
  Request metrics_request;
  metrics_request.verb = RequestVerb::kMetrics;
  ServiceResponse response = service.Execute(metrics_request);
  ASSERT_TRUE(response.status.ok());
  // The acceptance set: every required stage histogram is present (count 0
  // before traffic — InitMetrics pre-registers the cross-layer stages too).
  for (const char* name :
       {"uocqa_stage_plan_us", "uocqa_stage_compile_us",
        "uocqa_stage_fpras_trials_us", "uocqa_stage_exact_dp_us",
        "uocqa_stage_result_cache_us", "uocqa_stage_snapshot_publish_us",
        "uocqa_stage_denominators_us", "uocqa_stage_parse_us",
        "uocqa_stage_request_us", "uocqa_requests_total"}) {
    EXPECT_NE(response.payload.find(name), std::string::npos)
        << name << " missing";
  }
  // The metrics verb is introspection: not counted as a request.
  EXPECT_NE(response.payload.find("uocqa_requests_total=0"),
            std::string::npos);

  // Same stage set in the Prometheus exposition (the --metrics-file path).
  ASSERT_NE(service.metrics(), nullptr);
  std::string text = service.metrics()->PrometheusText();
  for (const char* name :
       {"# TYPE uocqa_stage_plan_us histogram",
        "# TYPE uocqa_stage_fpras_trials_us histogram",
        "# TYPE uocqa_stage_exact_dp_us histogram",
        "# TYPE uocqa_stage_result_cache_us histogram",
        "# TYPE uocqa_stage_snapshot_publish_us histogram",
        "# TYPE uocqa_requests_total counter",
        "# TYPE uocqa_live_pending gauge"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name << " missing";
  }
}

TEST(ObservabilityTest, VersionVerbReportsBuildFields) {
  ParsedInstance inst = LoadInstance();
  QueryService service(inst.db, inst.keys);
  Request request;
  request.verb = RequestVerb::kVersion;
  ServiceResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.payload, VersionFields());
  EXPECT_NE(response.payload.find("version="), std::string::npos);
  EXPECT_NE(response.payload.find("simd="), std::string::npos);
  EXPECT_NE(response.payload.find("seed_schema=3"), std::string::npos);
}

TEST(ObservabilityTest, MetricsAndVersionParseAsBareVerbs) {
  Result<Request> metrics_line = ParseRequestLine("metrics");
  ASSERT_TRUE(metrics_line.ok());
  EXPECT_EQ(metrics_line->verb, RequestVerb::kMetrics);
  Result<Request> version_line = ParseRequestLine("version");
  ASSERT_TRUE(version_line.ok());
  EXPECT_EQ(version_line->verb, RequestVerb::kVersion);
  EXPECT_FALSE(ParseRequestLine("metrics now").ok());
  EXPECT_EQ(FormatRequestLine(*metrics_line), "metrics");
  EXPECT_EQ(FormatRequestLine(*version_line), "version");
  // trace=1 round-trips through the request formatter.
  Result<Request> traced =
      ParseRequestLine("query='Ans() :- Emp(x, y)' trace=1");
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(traced->trace);
  EXPECT_NE(FormatRequestLine(*traced).find(" trace=1"), std::string::npos);
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- Emp(x, y)' trace=2").ok());
}

// --- pool / engine / live instrumentation ------------------------------------

TEST(ObservabilityTest, WorkloadPopulatesStageHistogramsAndPoolCounters) {
  ParsedInstance inst = LoadInstance();
  LiveInstance live(std::move(inst.db), std::move(inst.keys));
  MetricsRegistry registry;
  ServiceOptions options;
  options.metrics = &registry;
  QueryService service(live, options);
  std::vector<std::string> lines = WorkloadLines(false);
  lines.push_back("add_fact rel=Dept args='ops,dave'");
  lines.push_back("begin_snapshot");
  service.ExecuteBatchLines(lines, 4);

  auto count_of = [&](const char* name) {
    return registry.GetHistogram(name)->Take().count;
  };
  EXPECT_GT(count_of("uocqa_stage_parse_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_plan_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_compile_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_exact_dp_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_fpras_trials_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_mc_trials_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_result_cache_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_request_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_batch_dispatch_us"), 0u);
  EXPECT_GT(count_of("uocqa_stage_snapshot_publish_us"), 0u);
  EXPECT_EQ(count_of("uocqa_live_delta_facts"), 1u);
  // The batch ran on pool lanes; the ingest drained the pending queue.
  EXPECT_GT(registry.GetCounter("uocqa_pool_tasks_total")->Value(), 0u);
  EXPECT_EQ(registry.GetGauge("uocqa_live_pending")->Value(), 0);
  EXPECT_EQ(registry.GetCounter("uocqa_requests_total")->Value(),
            static_cast<uint64_t>(lines.size()));
}

TEST(ObservabilityTest, StaticServiceRecordsDenominatorComputation) {
  // Live snapshots pre-seed the delta-maintained denominators, so the
  // compute stage only fires in static mode (lazy |ORep|/|CRS| on the
  // FPRAS path, which divides the estimate by the exact denominators).
  ParsedInstance inst = LoadInstance();
  MetricsRegistry registry;
  ServiceOptions options;
  options.metrics = &registry;
  QueryService service(inst.db, inst.keys, options);
  Request request;
  request.query_text = "Ans(x) :- Emp(x, y)";
  request.answer_text = "e1";
  request.mode = RequestMode::kFpras;
  request.epsilon = 0.5;
  request.delta = 0.2;
  request.seed = 7;
  ASSERT_TRUE(service.Execute(request).status.ok());
  EXPECT_GT(
      registry.GetHistogram("uocqa_stage_denominators_us")->Take().count,
      0u);
}

// --- slow-query log ----------------------------------------------------------

TEST(ObservabilityTest, SlowQueryLogCapturesCanonicalTextAndBreakdown) {
  ParsedInstance inst = LoadInstance();
  std::vector<std::string> captured;
  ServiceOptions options;
  options.slow_query_micros = 1;  // every real solver run takes >= 1us
  options.slow_query_sink = [&captured](const std::string& line) {
    captured.push_back(line);
  };
  QueryService service(inst.db, inst.keys, options);
  Request request;
  request.query_text = "Ans(a) :- Emp(a, b), Dept(b, c)";
  request.answer_text = "e1";
  request.mode = RequestMode::kFpras;
  request.epsilon = 0.5;
  request.delta = 0.2;
  request.seed = 7;
  ServiceResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());
  // The sink is active, but the response itself carries no trace field and
  // the payload is the normal bytes.
  EXPECT_TRUE(response.trace.empty());
  ASSERT_FALSE(captured.empty());
  const std::string& line = captured.front();
  EXPECT_EQ(line.rfind("slow_query query='", 0), 0u);
  // Canonical text, not the raw request's variable names.
  EXPECT_NE(line.find("slow_query query='Ans("), std::string::npos);
  EXPECT_NE(line.find("total_us="), std::string::npos);
  EXPECT_NE(line.find("fpras_trials_us="), std::string::npos);
}

}  // namespace
}  // namespace uocqa
