// Unit tests for the metrics module (base/metrics.h): histogram bucket
// geometry and percentile edge cases, registry get-or-create semantics and
// exposition formats, null-tolerant helpers, StageTrace/ScopedStage
// rendering, and the version strings.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "base/metrics.h"
#include "base/simd_kernels.h"
#include "base/version.h"

namespace uocqa {
namespace metrics {
namespace {

// --- histogram bucket geometry ---------------------------------------------

TEST(HistogramTest, BucketIndexMatchesBitWidth) {
  // Bucket 0 is exactly {0}; bucket i (i >= 1) is [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            64u);
}

TEST(HistogramTest, BucketUpperBoundsAreInclusiveEdges) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64),
            std::numeric_limits<uint64_t>::max());
  // Every representable value lands in the bucket whose bound covers it.
  for (uint64_t v : {0ull, 1ull, 5ull, 100ull, 65536ull}) {
    size_t i = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(i));
    if (i > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(i - 1));
    }
  }
}

TEST(HistogramTest, RecordAccumulatesCountAndSum) {
  Histogram h;
  h.Record(0);
  h.Record(3);
  h.Record(1000);
  Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 1003u);
  EXPECT_EQ(snap.buckets[0], 1u);   // 0
  EXPECT_EQ(snap.buckets[2], 1u);   // 3
  EXPECT_EQ(snap.buckets[10], 1u);  // 1000
}

// --- percentile edges -------------------------------------------------------

TEST(HistogramTest, PercentileOfEmptyHistogramIsZero) {
  Histogram h;
  Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
  EXPECT_EQ(snap.Percentile(0.99), 0u);
}

TEST(HistogramTest, PercentileOfSingleValueIsItsBucketBound) {
  Histogram h;
  h.Record(100);  // bucket 7, upper bound 127
  Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.Percentile(0.0), 127u);  // rank clamps up to 1
  EXPECT_EQ(snap.Percentile(0.5), 127u);
  EXPECT_EQ(snap.Percentile(1.0), 127u);
}

TEST(HistogramTest, PercentileStraddlesBuckets) {
  // 9 values in bucket 1 (value 1) and 1 value in bucket 10 (value 1000):
  // p50 stays in the low bucket, p95+ reach the high one.
  Histogram h;
  for (int i = 0; i < 9; ++i) h.Record(1);
  h.Record(1000);
  Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.count, 10u);
  EXPECT_EQ(snap.Percentile(0.50), 1u);
  EXPECT_EQ(snap.Percentile(0.90), 1u);     // rank 9 is still bucket 1
  EXPECT_EQ(snap.Percentile(0.95), 1023u);  // rank 10 crosses over
  EXPECT_EQ(snap.Percentile(0.99), 1023u);
}

// --- registry ----------------------------------------------------------------

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  Registry registry;
  Counter* c1 = registry.GetCounter("uocqa_test_total");
  Counter* c2 = registry.GetCounter("uocqa_test_total");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("uocqa_other_total"), c1);
  Gauge* g1 = registry.GetGauge("uocqa_depth");
  EXPECT_EQ(g1, registry.GetGauge("uocqa_depth"));
  Histogram* h1 = registry.GetHistogram("uocqa_lat_us");
  EXPECT_EQ(h1, registry.GetHistogram("uocqa_lat_us"));
}

TEST(RegistryTest, PrometheusTextShape) {
  Registry registry;
  registry.GetCounter("uocqa_requests_total")->Add(5);
  registry.GetGauge("uocqa_pending")->Set(-2);
  Histogram* h = registry.GetHistogram("uocqa_stage_us");
  h->Record(0);
  h->Record(3);
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE uocqa_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("uocqa_requests_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE uocqa_pending gauge\n"), std::string::npos);
  EXPECT_NE(text.find("uocqa_pending -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE uocqa_stage_us histogram\n"),
            std::string::npos);
  // Cumulative buckets up to the highest non-empty one, then +Inf.
  EXPECT_NE(text.find("uocqa_stage_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("uocqa_stage_us_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("uocqa_stage_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("uocqa_stage_us_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("uocqa_stage_us_count 2\n"), std::string::npos);
}

TEST(RegistryTest, OneLineTextListsInstrumentsInNameOrder) {
  Registry registry;
  registry.GetCounter("uocqa_b_total")->Add(2);
  registry.GetCounter("uocqa_a_total")->Add(1);
  registry.GetHistogram("uocqa_lat_us")->Record(4);
  std::string line = registry.OneLineText();
  size_t a = line.find("uocqa_a_total=1");
  size_t b = line.find("uocqa_b_total=2");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(line.find("uocqa_lat_us_count=1"), std::string::npos);
  EXPECT_NE(line.find("uocqa_lat_us_sum=4"), std::string::npos);
  EXPECT_NE(line.find("uocqa_lat_us_p50=7"), std::string::npos);
}

TEST(RegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(Registry::Global(), Registry::Global());
  EXPECT_NE(Registry::Global(), nullptr);
}

// --- null-tolerant helpers ---------------------------------------------------

TEST(HelpersTest, NullHandlesAreNoOps) {
  // Must not crash; the uninstrumented path is a single branch.
  Add(static_cast<Counter*>(nullptr));
  Add(static_cast<Counter*>(nullptr), 7);
  Set(static_cast<Gauge*>(nullptr), -1);
  Record(static_cast<Histogram*>(nullptr), 42);
  { ScopedTimer timer(nullptr); }
  { ScopedStage stage(nullptr, nullptr, "ignored_us"); }
  Counter c;
  Add(&c, 3);
  EXPECT_EQ(c.Value(), 3u);
}

// --- StageTrace / ScopedStage -----------------------------------------------

TEST(StageTraceTest, InactiveTraceCollectsNothing) {
  StageTrace trace;  // active defaults to false
  { ScopedStage stage(nullptr, &trace, "parse_us"); }
  trace.AddCount("cache_hit", 1);
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(trace.counts.empty());
  EXPECT_EQ(trace.ToString(), "");
}

TEST(StageTraceTest, ActiveTraceRendersSpansThenCounts) {
  StageTrace trace;
  trace.active = true;
  trace.spans.emplace_back("parse_us", 12);
  trace.spans.emplace_back("total_us", 90);
  trace.AddCount("cache_hit", 0);
  trace.AddCount("fpras_trials", 128);
  EXPECT_EQ(trace.ToString(),
            "parse_us=12 total_us=90 cache_hit=0 fpras_trials=128");
}

TEST(StageTraceTest, ScopedStageFeedsHistogramAndTrace) {
  Histogram h;
  StageTrace trace;
  trace.active = true;
  { ScopedStage stage(&h, &trace, "plan_us"); }
  EXPECT_EQ(h.Take().count, 1u);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_STREQ(trace.spans[0].first, "plan_us");
}

// --- version strings ---------------------------------------------------------

TEST(VersionTest, FieldsNameTheActiveBackendAndSchema) {
  std::string fields = VersionFields();
  EXPECT_NE(fields.find("version="), std::string::npos);
  EXPECT_NE(fields.find(std::string("simd=") + simd::Active().name),
            std::string::npos);
  EXPECT_NE(fields.find("seed_schema=3"), std::string::npos);
  std::string banner = VersionBanner();
  EXPECT_NE(banner.find("uocqa "), std::string::npos);
  EXPECT_NE(banner.find(simd::Active().name), std::string::npos);
}

}  // namespace
}  // namespace metrics
}  // namespace uocqa
