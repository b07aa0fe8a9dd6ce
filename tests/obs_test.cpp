// Tests of the observability layer (DESIGN.md §10): concurrent counter
// and histogram correctness, deterministic snapshots and exports, stable
// registry handles, the runtime and compile-time off switches, the trace
// sink, and the engine integration (one Predict increments exactly the
// serving metric set it should).
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "synth/generator.h"

namespace ida {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
#if IDA_OBS_ENABLED
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kThreads * kPerThread));
#else
  EXPECT_EQ(counter->value(), 0u);  // compiled-out stub stays at zero
#endif
}

TEST(HistogramTest, BucketBoundsAreLeInclusive) {
  MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("test.le", {1.0, 2.0, 4.0});
  h->Observe(0.5);  // -> le=1
  h->Observe(1.0);  // boundary: le=1, not le=2
  h->Observe(3.0);  // -> le=4
  h->Observe(9.0);  // -> overflow
  obs::HistogramSnapshot snap = h->Snapshot();
#if IDA_OBS_ENABLED
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 0u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 13.5);
#else
  EXPECT_EQ(snap.count, 0u);
#endif
}

TEST(HistogramTest, ConcurrentObservationsKeepInvariants) {
  MetricsRegistry registry;
  obs::Histogram* h =
      registry.GetHistogram("test.hist", obs::LinearBuckets(1.0, 1.0, 8));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe(static_cast<double>((t + i) % 10));  // some overflow
      }
    });
  }
  for (std::thread& t : threads) t.join();
  obs::HistogramSnapshot snap = h->Snapshot();
#if IDA_OBS_ENABLED
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.count, total);
  uint64_t bucket_sum = 0;
  for (uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, total);  // every observation landed in one bucket
  EXPECT_GT(snap.sum, 0.0);
#else
  EXPECT_EQ(snap.count, 0u);
#endif
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  // Bounds apply on first registration only; the handle stays stable.
  obs::Histogram* h = registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(registry.GetHistogram("h", {5.0}), h);
}

TEST(RegistryTest, SnapshotIsDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Add(3);
  registry.GetCounter("a.first")->Add(1);
  registry.GetGauge("m.middle")->Set(2.5);
  registry.GetHistogram("h.lat", {0.1, 0.2})->Observe(0.15);
  const std::string json1 = registry.Snapshot().ToJson();
  const std::string json2 = registry.Snapshot().ToJson();
  EXPECT_EQ(json1, json2);  // byte-identical across snapshot calls
#if IDA_OBS_ENABLED
  // Sections are sorted by name regardless of registration order.
  EXPECT_LT(json1.find("a.first"), json1.find("z.last"));
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.last");
#endif
}

TEST(RegistryTest, PrometheusExportShape) {
  MetricsRegistry registry;
  registry.GetCounter("ida.test.counter")->Add(7);
  registry.GetHistogram("ida.test.lat", {1.0, 2.0})->Observe(1.5);
  const std::string text = registry.Snapshot().ToPrometheus();
#if IDA_OBS_ENABLED
  // Dots map to underscores; histograms emit cumulative le buckets.
  EXPECT_NE(text.find("ida_test_counter 7"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE ida_test_counter counter"), std::string::npos);
  EXPECT_NE(text.find("ida_test_lat_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ida_test_lat_count 1"), std::string::npos);
#else
  EXPECT_TRUE(text.empty() || text.find("ida_test") == std::string::npos);
#endif
}

TEST(RegistryTest, ResetKeepsHandlesValid) {
  MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c");
  obs::Histogram* h = registry.GetHistogram("h", {1.0});
  c->Add(5);
  h->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(registry.GetCounter("c"), c);  // same handle after Reset
  c->Increment();
#if IDA_OBS_ENABLED
  EXPECT_EQ(c->value(), 1u);
  EXPECT_EQ(h->bounds().size(), 1u);  // bounds survive the reset
#endif
}

TEST(TraceTest, VectorSinkRecordsSpansInOrder) {
  obs::VectorTraceSink sink;
  obs::ObsConfig obs;
  obs.trace = &sink;
  {
    obs::ScopedTimer outer(obs, "outer");
    obs::ScopedTimer inner(obs, "inner");
    inner.Stop();
  }  // outer emitted at scope exit, after inner
  std::vector<obs::TraceSpan> spans = sink.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_GE(spans[1].duration_seconds, spans[0].duration_seconds);
  sink.Clear();
  EXPECT_TRUE(sink.spans().empty());
}

TEST(TraceTest, DisabledConfigEmitsNothingAndStopReturnsZero) {
  obs::VectorTraceSink sink;
  obs::ObsConfig off = obs::DisabledObsConfig();
  off.trace = &sink;  // a sink alone must not re-enable tracing
  obs::ScopedTimer timer(off, "quiet");
  EXPECT_EQ(timer.Stop(), 0.0);
  EXPECT_TRUE(sink.spans().empty());
}

// -- Engine integration ------------------------------------------------

ModelConfig ObsTestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state
  config.knn.distance_threshold = 0.25;
  return config;
}

class ObsEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(33))));
    engine::Trainer trainer(ObsTestConfig(), obs::DisabledObsConfig());
    auto model = trainer.Fit(bench_->log, bench_->registry);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->size(), 10u);
    model_ = new engine::TrainedModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete bench_;
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
};

SynthBenchmark* ObsEngineTest::bench_ = nullptr;
engine::TrainedModel* ObsEngineTest::model_ = nullptr;

#if IDA_OBS_ENABLED
/// Expects the registry's `ida.distance.*` totals to equal `tally`.
void ExpectDistanceCountersEqual(MetricsRegistry& registry,
                                 const TedTally& tally) {
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(std::string("ida.distance.") + name)->value();
  };
  EXPECT_EQ(value("ted.calls"), tally.ted_calls);
  EXPECT_EQ(value("display_cache.l1_hits"), tally.display_l1_hits);
  EXPECT_EQ(value("display_cache.shared_hits"), tally.display_shared_hits);
  EXPECT_EQ(value("display_cache.computes"), tally.display_computes);
  EXPECT_EQ(value("display_memo.lookups"), tally.display_memo_lookups);
  EXPECT_EQ(value("display_memo.probes"), tally.display_memo_probes);
  EXPECT_EQ(value("workspace.grows"), tally.workspace_grows);
  EXPECT_EQ(value("workspace.reuses"), tally.workspace_reuses);
}
#endif

TEST_F(ObsEngineTest, OnePredictIncrementsTheServingMetrics) {
  MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  auto served = engine::Predictor::Load(*model_, obs);
  ASSERT_TRUE(served.ok());
  // Served through caller-owned scratch, whose workspace tally is exactly
  // the query's PredictStats::ted (the scratch starts at zero).
  FlatContext query = SessionDistance::Prepare(model_->samples()[0].context);
  PredictScratch scratch;
  Prediction p = served->PredictPrepared(query, scratch);
#if IDA_OBS_ENABLED
  EXPECT_EQ(registry.GetCounter("ida.engine.predict.count")->value(), 1u);
  // The serving index prunes most exact TED evaluations, so the eval count
  // is a positive number no larger than the training set, and it must agree
  // with the index's own accounting of un-pruned candidates.
  const uint64_t evals =
      registry.GetCounter("ida.engine.predict.distance_evals")->value();
  EXPECT_GT(evals, 0u);
  EXPECT_LE(evals, model_->size());
  EXPECT_EQ(registry.GetCounter("ida.index.searches")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("ida.index.exact_teds")->value(), evals);
  EXPECT_GT(registry.GetCounter("ida.index.lb_pruned")->value() +
                registry.GetCounter("ida.index.triangle_pruned")->value() +
                registry.GetCounter("ida.index.subtree_pruned")->value(),
            0u);
  EXPECT_EQ(registry.GetHistogram("ida.engine.predict.seconds")->count(), 1u);
  // Every exact evaluation the index admitted went through the TED tally,
  // and the query's tally reached the registry unchanged.
  EXPECT_GE(registry.GetCounter("ida.distance.ted.calls")->value(), evals);
  ExpectDistanceCountersEqual(registry, scratch.workspace().tally);
  const uint64_t abstained =
      registry.GetCounter("ida.engine.predict.abstentions")->value();
  EXPECT_EQ(abstained, p.HasPrediction() ? 0u : 1u);
#else
  (void)p;
  EXPECT_TRUE(registry.Snapshot().ToJson().find("predict") ==
              std::string::npos);
#endif
}

TEST_F(ObsEngineTest, DistanceCountersSumTheQueryTallies) {
  // Several queries on one scratch: the registry's `ida.distance.*`
  // totals are the sum of the queries' PredictStats::ted deltas, which is
  // the scratch workspace's whole tally.
  MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  auto served = engine::Predictor::Load(*model_, obs);
  ASSERT_TRUE(served.ok());
  PredictScratch scratch;
  for (size_t i = 0; i < model_->size() && i < 12; ++i) {
    FlatContext query =
        SessionDistance::Prepare(model_->samples()[i].context);
    served->PredictPrepared(query, scratch);
  }
#if IDA_OBS_ENABLED
  EXPECT_GT(scratch.workspace().tally.ted_calls, 0u);
  ExpectDistanceCountersEqual(registry, scratch.workspace().tally);
#endif
}

TEST_F(ObsEngineTest, PredictTraceHasThePhaseSpans) {
  obs::VectorTraceSink sink;
  obs::ObsConfig obs;
  MetricsRegistry registry;
  obs.registry = &registry;
  obs.trace = &sink;
  auto served = engine::Predictor::Load(*model_, obs);
  ASSERT_TRUE(served.ok());
  served->Predict(model_->samples()[0].context);
  std::vector<obs::TraceSpan> spans = sink.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "predict.prepare");
  EXPECT_EQ(spans[1].name, "predict.distance");
  EXPECT_EQ(spans[2].name, "predict.vote");
  // Spans tile the query: each starts where the previous ended.
  EXPECT_DOUBLE_EQ(spans[1].start_seconds,
                   spans[0].start_seconds + spans[0].duration_seconds);
}

TEST_F(ObsEngineTest, RuntimeDisabledPredictRecordsNothing) {
  MetricsRegistry registry;
  obs::ObsConfig off = obs::DisabledObsConfig();
  off.registry = &registry;
  auto served = engine::Predictor::Load(*model_, off);
  ASSERT_TRUE(served.ok());
  served->Predict(model_->samples()[0].context);
  served->PredictBatch({model_->samples()[0].context});
  MetricsSnapshot snap = registry.Snapshot();
  for (const obs::CounterSnapshot& c : snap.counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    EXPECT_EQ(h.count, 0u) << h.name;
  }
}

TEST_F(ObsEngineTest, ObservedPredictionsMatchUnobservedOnes) {
  MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  auto plain = engine::Predictor::Load(*model_, obs::DisabledObsConfig());
  auto observed = engine::Predictor::Load(*model_, obs);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(observed.ok());
  for (size_t i = 0; i < 5 && i < model_->size(); ++i) {
    const NContext& q = model_->samples()[i].context;
    Prediction a = plain->Predict(q);
    Prediction b = observed->Predict(q);
    EXPECT_EQ(a.label, b.label);
    EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
  }
}

TEST_F(ObsEngineTest, FitAndLoocvRecordTheirMetrics) {
  MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  engine::Trainer trainer(ObsTestConfig(), obs);
  auto model = trainer.Fit(bench_->log, bench_->registry);
  ASSERT_TRUE(model.ok());
  auto eval = engine::EvaluateLoocv(*model, 17, obs);
  ASSERT_TRUE(eval.ok());
#if IDA_OBS_ENABLED
  EXPECT_EQ(registry.GetCounter("ida.engine.fit.count")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("ida.engine.fit.samples")->value(),
            model->size());
  EXPECT_EQ(registry.GetCounter("ida.engine.loocv.runs")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("ida.engine.fit.index_builds")->value(), 1u);
  // The indexed LOOCV path serves every held-out query off the model's
  // VP-tree instead of materializing a pairwise distance matrix.
  EXPECT_EQ(registry.GetCounter("ida.index.searches")->value(), model->size());
  EXPECT_EQ(registry.GetHistogram("ida.engine.fit.seconds")->count(), 1u);
#endif
}

TEST_F(ObsEngineTest, MetricsJsonWriterRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("ida.test.write")->Add(11);
  const std::string path = "/tmp/ida_obs_test_metrics.json";
  ASSERT_TRUE(obs::WriteMetricsJson(path, &registry).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 12, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, registry.Snapshot().ToJson());
#if IDA_OBS_ENABLED
  EXPECT_NE(contents.find("\"ida.test.write\": 11"), std::string::npos)
      << contents;
#endif
  EXPECT_FALSE(obs::WriteMetricsJson("/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace ida
