#include "src/pipeline/fusion/fusion.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/engine/execution_engine.h"
#include "src/io/serialization.h"
#include "src/obs/event_journal.h"
#include "src/obs/metrics.h"
#include "src/pipeline/anomaly_filter.h"
#include "src/pipeline/column_projector.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/taxi_feature_extractor.h"
#include "src/pipeline/vector_assembler.h"
#include "src/pipeline/zscore_anomaly_detector.h"
#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

// Unit coverage for the block-kernel execution path itself: plan-cache
// hit/miss/invalidation accounting, declines surfacing as errors, the
// online walk bypassing the cache, compile-time elision, and the cost-
// accounting / dropped-counter contracts of both pipeline entry points
// against row-at-a-time references.  Bitwise output equivalence at scale
// lives in tests/golden/transform_equivalence_test.cc.

namespace cdpipe {
namespace {

RawChunk MakeChunk(ChunkId id, std::vector<std::string> records) {
  RawChunk chunk;
  chunk.id = id;
  chunk.records = std::move(records);
  return chunk;
}

std::unique_ptr<Pipeline> SmallUrlPipeline() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 6;
  return MakeUrlPipeline(config);
}

bool BitEqual(const FeatureData& a, const FeatureData& b) {
  if (a.dim != b.dim || a.num_rows() != b.num_rows()) return false;
  if (std::memcmp(a.labels.data(), b.labels.data(),
                  a.labels.size() * sizeof(double)) != 0) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (a.features[r].indices() != b.features[r].indices()) return false;
    const auto& av = a.features[r].values();
    const auto& bv = b.features[r].values();
    if (av.size() != bv.size() ||
        std::memcmp(av.data(), bv.data(), av.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SchemaFingerprintTest, SensitiveToNameTypeAndOrder) {
  auto base = std::move(Schema::Make({Field{"a", ValueType::kDouble},
                                      Field{"b", ValueType::kString}}))
                  .ValueOrDie();
  auto renamed = std::move(Schema::Make({Field{"a2", ValueType::kDouble},
                                         Field{"b", ValueType::kString}}))
                     .ValueOrDie();
  auto retyped = std::move(Schema::Make({Field{"a", ValueType::kInt64},
                                         Field{"b", ValueType::kString}}))
                     .ValueOrDie();
  auto reordered = std::move(Schema::Make({Field{"b", ValueType::kString},
                                           Field{"a", ValueType::kDouble}}))
                       .ValueOrDie();
  auto same = std::move(Schema::Make({Field{"a", ValueType::kDouble},
                                      Field{"b", ValueType::kString}}))
                  .ValueOrDie();
  const uint64_t fp = fusion::SchemaFingerprint(*base);
  EXPECT_EQ(fp, fusion::SchemaFingerprint(*same));
  EXPECT_NE(fp, fusion::SchemaFingerprint(*renamed));
  EXPECT_NE(fp, fusion::SchemaFingerprint(*retyped));
  EXPECT_NE(fp, fusion::SchemaFingerprint(*reordered));
}

TEST(StatsMemoTest, RebindResetsOnlyFilledCells) {
  fusion::StatsMemo memo;
  const int owner = 0;
  memo.BindSd(&owner, /*serial=*/1, /*dim=*/8);
  ASSERT_EQ(memo.sd.size(), 8u);
  memo.sd[3] = 2.0;
  memo.filled.push_back(3);
  // Same binding: the filled cell survives.
  memo.BindSd(&owner, 1, 8);
  EXPECT_EQ(memo.sd[3], 2.0);
  // A new serial resets exactly the filled cells (and forgets them).
  const double* storage = memo.sd.data();
  memo.BindSd(&owner, 2, 8);
  EXPECT_EQ(memo.sd.data(), storage) << "rebind reallocated the memo";
  for (double sd : memo.sd) EXPECT_EQ(sd, -1.0);
  EXPECT_TRUE(memo.filled.empty());

  // The (mean, σ) variant: cells filled under one serial are unseen under
  // the next, and switching variants leaves no stale cell behind.
  memo.BindEntries(&owner, 3, 8);
  memo.entries[5] = fusion::StatsMemo::Entry{1.0, 2.0, 1};
  memo.filled.push_back(5);
  memo.sd[5] = 4.0;  // stale σ from a variant switch must not survive
  memo.BindSd(&owner, 4, 8);
  EXPECT_EQ(memo.sd[5], -1.0);
  memo.BindEntries(&owner, 5, 8);
  EXPECT_EQ(memo.entries[5].seen, 0u);
}

TEST(PlanCacheTest, MissCompileThenHit) {
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0 17:2.0", "-1 5:0.5 7:1.0"});
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());

  const fusion::PlanCache* cache = pipeline->plan_cache();
  EXPECT_EQ(cache->hits(), 0u);
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->compiles(), 1u);

  // Unchanged statistics: the second call reuses the plan.
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->compiles(), 1u);
}

TEST(PlanCacheTest, OnlinePathBypassesPlanCache) {
  // The online walk builds each chunk's stages itself: no cache lookup, no
  // compile, no kPlanCompile journal event per chunk.
  obs::EventJournal& journal = obs::EventJournal::Global();
  const bool was_enabled = journal.enabled();
  journal.Enable();
  journal.Clear();
  auto pipeline = SmallUrlPipeline();
  for (ChunkId id = 0; id < 4; ++id) {
    ASSERT_TRUE(pipeline
                    ->UpdateAndTransform(
                        MakeChunk(id, {"+1 3:1.0 17:2.0", "-1 5:nan 7:1.0"}))
                    .ok());
  }
  size_t plan_compiles = 0;
  for (const obs::JournalEvent& event : journal.Tail(journal.capacity())) {
    if (event.kind == obs::EventKind::kPlanCompile) ++plan_compiles;
  }
  if (!was_enabled) journal.Disable();
  EXPECT_EQ(plan_compiles, 0u);
  EXPECT_EQ(pipeline->plan_cache()->hits(), 0u);
  EXPECT_EQ(pipeline->plan_cache()->misses(), 0u);
  EXPECT_EQ(pipeline->plan_cache()->compiles(), 0u);
}

TEST(PlanCacheTest, ResetInvalidatesCachedPlan) {
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0", "-1 5:2.0"});
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  const uint64_t version_before = pipeline->state_version();
  const uint64_t compiles_before = pipeline->plan_cache()->compiles();

  pipeline->Reset();
  EXPECT_GT(pipeline->state_version(), version_before);
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  EXPECT_GT(pipeline->plan_cache()->compiles(), compiles_before)
      << "stale plan survived Reset";
}

TEST(PlanCacheTest, LoadStateInvalidatesCachedPlan) {
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0", "-1 5:2.0"});
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());

  std::stringstream state;
  Serializer out(&state);
  ASSERT_TRUE(pipeline->SaveState(&out).ok());

  FeatureData before = std::move(pipeline->Transform(chunk)).ValueOrDie();
  const uint64_t compiles_before = pipeline->plan_cache()->compiles();

  // Restoring statistics — even identical ones — must recompile: the plan
  // snapshot cannot be proven equal to the restored state.
  Deserializer in(&state);
  ASSERT_TRUE(pipeline->LoadState(&in).ok());
  FeatureData restored = std::move(pipeline->Transform(chunk)).ValueOrDie();
  EXPECT_GT(pipeline->plan_cache()->compiles(), compiles_before)
      << "stale plan survived LoadState";
  EXPECT_TRUE(BitEqual(before, restored));
}

TEST(PlanCacheTest, DeclinedStageIsAnErrorOnEveryCall) {
  // A configuration no block kernel can express (a range rule over a
  // string column) fails both entry points with the component's own
  // message, every call: nothing is cached for it.
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"tag", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  auto pipeline = std::make_unique<Pipeline>();
  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema = schema;
  ASSERT_TRUE(
      pipeline->AddComponent(std::make_unique<InputParser>(parser)).ok());
  ASSERT_TRUE(pipeline
                  ->AddComponent(std::make_unique<AnomalyFilter>(
                      "tag", std::vector<AnomalyFilter::Rule>{{"tag"}}))
                  .ok());
  VectorAssembler::Options assembler;
  assembler.feature_columns = {"x"};
  assembler.label_column = "label";
  ASSERT_TRUE(
      pipeline->AddComponent(std::make_unique<VectorAssembler>(assembler))
          .ok());

  RawChunk chunk = MakeChunk(0, {"1.5,a,1.0", "-2.0,b,0.0"});
  for (int call = 0; call < 2; ++call) {
    Result<FeatureData> frozen = pipeline->Transform(chunk);
    ASSERT_FALSE(frozen.ok());
    EXPECT_EQ(frozen.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(frozen.status().message().find("non-numeric column tag"),
              std::string::npos)
        << frozen.status().ToString();
  }
  EXPECT_EQ(pipeline->plan_cache()->misses(), 2u);
  EXPECT_EQ(pipeline->plan_cache()->compiles(), 0u);

  Result<FeatureData> online = pipeline->UpdateAndTransform(chunk);
  ASSERT_FALSE(online.ok());
  EXPECT_NE(online.status().message().find("non-numeric column tag"),
            std::string::npos);
}

TEST(FusedPlanTest, CompileElidesProjectionAndExecutes) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"junk", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  std::vector<std::unique_ptr<PipelineComponent>> components;
  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema = schema;
  components.push_back(std::make_unique<InputParser>(parser));
  components.push_back(std::make_unique<ColumnProjector>(
      std::vector<std::string>{"x", "label"}));
  VectorAssembler::Options assembler;
  assembler.feature_columns = {"x"};
  assembler.label_column = "label";
  components.push_back(std::make_unique<VectorAssembler>(assembler));

  auto entry = std::move(Schema::Make({Field{"raw", ValueType::kString}}))
                   .ValueOrDie();
  Result<std::shared_ptr<const fusion::FusedPlan>> compiled =
      fusion::FusedPlan::Compile(components, *entry);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::shared_ptr<const fusion::FusedPlan>& plan = *compiled;
  // The projector contributes no runtime stage, only a compile-time
  // remapping: it must be accounted as elided at compile time.
  EXPECT_GE(plan->stats().compile_elided, 1u);
  EXPECT_EQ(plan->stats().fingerprint, fusion::SchemaFingerprint(*entry));

  std::vector<std::string> records = {"2.5,noise,1.0", "0.25,more,0.0"};
  fusion::ExecScratch scratch;
  FeatureData out;
  size_t rows_scanned = 0;
  ASSERT_TRUE(
      plan->Execute(records, 0, records.size(), &scratch, &out, &rows_scanned)
          .ok());
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.dim, 1u);
  EXPECT_DOUBLE_EQ(out.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(out.features[0].values()[0], 2.5);
  // parser(1) + projector(1) + assembler(1) per row.
  EXPECT_EQ(rows_scanned, 6u);
}

TEST(FusedPlanTest, DeclinesChainWithoutVectorizingSink) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble}}))
                    .ValueOrDie();
  std::vector<std::unique_ptr<PipelineComponent>> components;
  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema = schema;
  components.push_back(std::make_unique<InputParser>(parser));
  auto entry = std::move(Schema::Make({Field{"raw", ValueType::kString}}))
                   .ValueOrDie();
  Result<std::shared_ptr<const fusion::FusedPlan>> compiled =
      fusion::FusedPlan::Compile(components, *entry);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kFailedPrecondition);
}

// The FusionParity tests pin the blocks' accounting to a row-at-a-time
// reference over the same chain: one scan per component per row reaching
// it (plus one update scan per stateful component online), and drop
// counters equal to the rows a per-row evaluation of the rules rejects.

TEST(FusionParityTest, RowsScannedMatchesRowReference) {
  ExecutionEngine engine(4);
  auto pipeline = SmallUrlPipeline();
  std::vector<std::string> records = {"+1 3:1.0 17:2.0", "-1 5:nan 7:1.0",
                                      "+1 9:4.0", "not a record"};
  // 600 rows: enough for the engine-sharded path to split the chunk.
  std::vector<std::string> many;
  for (size_t r = 0; r < 600; ++r) many.push_back(records[r % 4]);
  RawChunk chunk = MakeChunk(0, records);
  RawChunk large = MakeChunk(1, many);

  // Parser scans every record; imputer, scaler and hasher scan the three
  // parsed rows; the two stateful ones scan them once more to update.
  size_t online_scans = 0;
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk, &online_scans).ok());
  EXPECT_EQ(online_scans, 4u + 3u * 3u + 3u * 2u);

  size_t frozen_scans = 0;
  ASSERT_TRUE(pipeline->Transform(chunk, &frozen_scans).ok());
  EXPECT_EQ(frozen_scans, 4u + 3u * 3u);

  size_t serial_scans = 0;
  size_t sharded_scans = 0;
  ASSERT_TRUE(pipeline->Transform(large, &serial_scans).ok());
  ASSERT_TRUE(pipeline->Transform(large, &engine, &sharded_scans).ok());
  EXPECT_EQ(serial_scans, 600u + 450u * 3u);
  EXPECT_EQ(sharded_scans, serial_scans)
      << "cost accounting diverged between serial and sharded execution";

  size_t recompute_scans = 0;
  ASSERT_TRUE(
      pipeline->TransformRecomputingStatistics(chunk, &recompute_scans).ok());
  EXPECT_EQ(recompute_scans, online_scans);
}

TEST(FusionParityTest, DroppedCountersMatchRowReference) {
  // Reference: parse and extract the chunk, then evaluate the taxi
  // anomaly rules row by row on the extracted table.  Both entry points
  // must drop exactly those rows and count them on the deployed filter.
  TaxiStreamGenerator::Config stream;
  stream.records_per_chunk = 256;
  stream.anomaly_prob = 0.2;
  stream.seed = 41;
  std::vector<RawChunk> chunks = TaxiStreamGenerator(stream).Generate(2);

  InputParser::Options parser_options;
  parser_options.format = InputParser::Format::kCsv;
  parser_options.csv_schema = TaxiRawSchema();
  const InputParser parser(parser_options);
  const TaxiFeatureExtractor extractor;
  testing::BlockRunner runner(testing::OwnedRawTable(chunks[1].records));
  ASSERT_TRUE(runner.Transform(parser).ok());
  ASSERT_TRUE(runner.Transform(extractor).ok());
  const TableData extracted =
      std::get<TableData>(std::move(runner.Output()).ValueOrDie());
  const size_t duration = *extracted.schema()->FieldIndex("duration_s");
  const size_t distance = *extracted.schema()->FieldIndex("haversine_km");
  size_t expected_drops = 0;
  for (size_t r = 0; r < extracted.num_rows(); ++r) {
    const Value d = extracted.ValueAt(r, duration);
    const Value km = extracted.ValueAt(r, distance);
    const bool keep = !d.is_null() && !km.is_null() &&
                      d.double_value() >= 10.0 &&
                      d.double_value() <= 22.0 * 3600.0 &&
                      km.double_value() > 0.0;
    if (!keep) ++expected_drops;
  }
  ASSERT_GT(expected_drops, 0u)
      << "fixture produced no anomalies; raise anomaly_prob";

  auto filter_drops = [](const Pipeline& p) {
    for (size_t i = 0; i < p.num_components(); ++i) {
      if (const auto* filter =
              dynamic_cast<const AnomalyFilter*>(&p.component(i))) {
        return filter->num_dropped();
      }
    }
    ADD_FAILURE() << "taxi pipeline has no AnomalyFilter";
    return size_t{0};
  };
  auto frozen = MakeTaxiPipeline();
  auto online = MakeTaxiPipeline();
  ASSERT_TRUE(frozen->UpdateAndTransform(chunks[0]).ok());
  ASSERT_TRUE(online->UpdateAndTransform(chunks[0]).ok());
  const size_t frozen_before = filter_drops(*frozen);
  const size_t online_before = filter_drops(*online);

  FeatureData a = std::move(frozen->Transform(chunks[1])).ValueOrDie();
  FeatureData b = std::move(online->UpdateAndTransform(chunks[1])).ValueOrDie();
  EXPECT_EQ(filter_drops(*frozen) - frozen_before, expected_drops);
  EXPECT_EQ(filter_drops(*online) - online_before, expected_drops);
  EXPECT_EQ(a.num_rows(), extracted.num_rows() - expected_drops);
  EXPECT_EQ(b.num_rows(), a.num_rows());

  // The NoOptimization baseline recomputes statistics on clones but still
  // counts drops on the deployed (stateless) filter.
  const size_t before_recompute = filter_drops(*frozen);
  ASSERT_TRUE(frozen->TransformRecomputingStatistics(chunks[1]).ok());
  EXPECT_EQ(filter_drops(*frozen) - before_recompute, expected_drops);
}

TEST(FusionParityTest, ZScoreDropsAndElisionMatchRowReference) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  auto make_pipeline = [&] {
    auto pipeline = std::make_unique<Pipeline>();
    InputParser::Options parser;
    parser.format = InputParser::Format::kCsv;
    parser.csv_schema = schema;
    CDPIPE_CHECK(
        pipeline->AddComponent(std::make_unique<InputParser>(parser)).ok());
    ZScoreAnomalyDetector::Options zscore;
    zscore.columns = {"x"};
    zscore.threshold = 2.0;
    zscore.min_observations = 4;
    CDPIPE_CHECK(pipeline
                     ->AddComponent(
                         std::make_unique<ZScoreAnomalyDetector>(zscore))
                     .ok());
    VectorAssembler::Options assembler;
    assembler.feature_columns = {"x"};
    assembler.label_column = "label";
    CDPIPE_CHECK(
        pipeline->AddComponent(std::make_unique<VectorAssembler>(assembler))
            .ok());
    return pipeline;
  };
  auto zscore_drops = [](const Pipeline& p) {
    for (size_t i = 0; i < p.num_components(); ++i) {
      if (const auto* z = dynamic_cast<const ZScoreAnomalyDetector*>(
              &p.component(i))) {
        return z->num_dropped();
      }
    }
    ADD_FAILURE() << "pipeline has no ZScoreAnomalyDetector";
    return size_t{0};
  };
  auto expect_rows = [](const FeatureData& out,
                        const std::vector<double>& xs) {
    ASSERT_EQ(out.num_rows(), xs.size());
    for (size_t r = 0; r < xs.size(); ++r) {
      EXPECT_EQ(out.features[r].Get(0), xs[r]) << "row " << r;
      EXPECT_EQ(out.labels[r], 1.0) << "row " << r;
    }
  };

  auto pipeline = make_pipeline();
  RawChunk probe = MakeChunk(1, {"1.5,1.0", "100.0,1.0", "2.5,1.0"});

  // Below min_observations the detector is statistics-free: its stage is
  // elided and drops nothing.
  obs::Counter* elided = obs::MetricsRegistry::Global().GetCounter(
      "pipeline.stages_elided", "");
  const int64_t elided_before = elided->Value();
  expect_rows(std::move(pipeline->Transform(probe)).ValueOrDie(),
              {1.5, 100.0, 2.5});
  EXPECT_EQ(zscore_drops(*pipeline), 0u);
  EXPECT_GT(elided->Value(), elided_before)
      << "statistics-free detector was not elided";

  // Warmed past min_observations (x over {1, 2, 1.5, 2.5, 1.75}: mean 1.75,
  // σ 0.5, limit 1.0), only the 100.0 row deviates: the recompiled plan
  // must pick up the new statistics and drop exactly that row.
  RawChunk warmup =
      MakeChunk(0, {"1.0,1.0", "2.0,1.0", "1.5,1.0", "2.5,1.0", "1.75,1.0"});
  expect_rows(std::move(pipeline->UpdateAndTransform(warmup)).ValueOrDie(),
              {1.0, 2.0, 1.5, 2.5, 1.75});
  expect_rows(std::move(pipeline->Transform(probe)).ValueOrDie(), {1.5, 2.5});
  EXPECT_EQ(zscore_drops(*pipeline), 1u);

  // The online path folds the probe in first (mean ≈ 14.1, σ ≈ 32.5,
  // limit ≈ 64.9), and 100.0 still deviates by ≈ 85.9.
  auto twin = make_pipeline();
  ASSERT_TRUE(twin->UpdateAndTransform(warmup).ok());
  expect_rows(std::move(twin->UpdateAndTransform(probe)).ValueOrDie(),
              {1.5, 2.5});
  EXPECT_EQ(zscore_drops(*twin), 1u);
}

}  // namespace
}  // namespace cdpipe
