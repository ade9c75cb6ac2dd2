#include "src/data/taxi_stream.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "src/pipeline/input_parser.h"
#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

TaxiStreamGenerator::Config SmallConfig() {
  TaxiStreamGenerator::Config config;
  config.records_per_chunk = 100;
  config.seed = 21;
  return config;
}

TEST(TaxiStreamTest, ChunkShapeAndHourlyTimestamps) {
  TaxiStreamGenerator generator(SmallConfig());
  auto chunks = generator.Generate(3);
  ASSERT_EQ(chunks.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chunks[i].id, static_cast<ChunkId>(i));
    EXPECT_EQ(chunks[i].event_time_seconds,
              1420070400 + static_cast<int64_t>(i) * 3600);
    EXPECT_EQ(chunks[i].records.size(), 100u);
  }
}

TEST(TaxiStreamTest, RecordsParseAgainstRawSchema) {
  TaxiStreamGenerator generator(SmallConfig());
  RawChunk chunk = generator.NextChunk();
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = TaxiRawSchema();
  options.strict = true;
  InputParser parser(options);
  auto result =
      testing::RunTransform(parser, testing::OwnedRawTable(chunk.records));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& table = std::get<TableData>(*result);
  ASSERT_EQ(table.num_rows(), 100u);
  // Pickup before dropoff for every trip.
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_LE(table.column(0).ints()[r], table.column(1).ints()[r]);
    const int64_t passengers = table.column(6).ints()[r];
    EXPECT_GE(passengers, 1);
    EXPECT_LE(passengers, 6);
  }
}

TEST(TaxiStreamTest, PickupTimesWithinChunkWindow) {
  TaxiStreamGenerator generator(SmallConfig());
  RawChunk chunk = generator.NextChunk();
  for (const std::string& record : chunk.records) {
    const auto fields = SplitString(record, ',');
    const int64_t pickup =
        std::move(ParseDateTime(fields[0])).ValueOrDie();
    EXPECT_GE(pickup, chunk.event_time_seconds);
    EXPECT_LT(pickup, chunk.event_time_seconds + 3600);
  }
}

TEST(TaxiStreamTest, AnomaliesAppearAtConfiguredRate) {
  TaxiStreamGenerator::Config config = SmallConfig();
  config.anomaly_prob = 0.2;
  TaxiStreamGenerator generator(config);
  int anomalies = 0;
  int total = 0;
  for (const RawChunk& chunk : generator.Generate(20)) {
    for (const std::string& record : chunk.records) {
      ++total;
      const auto fields = SplitString(record, ',');
      const int64_t pickup =
          std::move(ParseDateTime(fields[0])).ValueOrDie();
      const int64_t dropoff =
          std::move(ParseDateTime(fields[1])).ValueOrDie();
      const int64_t duration = dropoff - pickup;
      const double plon = std::move(ParseDouble(fields[2])).ValueOrDie();
      const double plat = std::move(ParseDouble(fields[3])).ValueOrDie();
      const double dlon = std::move(ParseDouble(fields[4])).ValueOrDie();
      const double dlat = std::move(ParseDouble(fields[5])).ValueOrDie();
      if (duration < 10 || duration > 22 * 3600 ||
          (plon == dlon && plat == dlat)) {
        ++anomalies;
      }
    }
  }
  const double rate = static_cast<double>(anomalies) / total;
  EXPECT_NEAR(rate, 0.2, 0.04);
}

TEST(TaxiStreamTest, ExpectedDurationReflectsRushHour) {
  // 8am weekday is slower than 3am weekday.
  EXPECT_GT(TaxiStreamGenerator::ExpectedDurationSeconds(5.0, 8, false),
            TaxiStreamGenerator::ExpectedDurationSeconds(5.0, 3, false));
  // Weekends are faster than weekdays at the same hour.
  EXPECT_LT(TaxiStreamGenerator::ExpectedDurationSeconds(5.0, 8, true),
            TaxiStreamGenerator::ExpectedDurationSeconds(5.0, 8, false));
  // Longer trips take longer.
  EXPECT_GT(TaxiStreamGenerator::ExpectedDurationSeconds(10.0, 12, false),
            TaxiStreamGenerator::ExpectedDurationSeconds(2.0, 12, false));
}

TEST(TaxiStreamTest, DeterministicGivenSeed) {
  TaxiStreamGenerator a(SmallConfig());
  TaxiStreamGenerator b(SmallConfig());
  EXPECT_EQ(a.NextChunk().records, b.NextChunk().records);
}

TEST(TaxiPipelineTest, EndToEndOverGeneratedChunks) {
  auto pipeline = MakeTaxiPipeline();
  EXPECT_EQ(pipeline->num_components(), 5u);
  TaxiStreamGenerator generator(SmallConfig());
  RawChunk chunk = generator.NextChunk();
  auto features = pipeline->UpdateAndTransform(chunk);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  // Anomalies are filtered but most rows survive.
  EXPECT_GT(features->num_rows(), 80u);
  EXPECT_LE(features->num_rows(), 100u);
  EXPECT_EQ(features->dim, 12u);  // 11 features + intercept
  // Labels are log1p(duration) of sane trips.
  for (double label : features->labels) {
    EXPECT_GT(label, std::log1p(10.0) - 1e-9);
    EXPECT_LT(label, std::log1p(22.0 * 3600.0) + 1e-9);
  }
}

TEST(TaxiPipelineTest, ModelOptionsAreSquaredLoss) {
  LinearModel::Options options = MakeTaxiModelOptions(1e-3);
  EXPECT_EQ(options.loss, LossKind::kSquared);
  EXPECT_DOUBLE_EQ(options.l2_reg, 1e-3);
  EXPECT_EQ(options.initial_dim, 12u);
}

TEST(TaxiPipelineTest, AnomaliesAreFilteredOut) {
  auto pipeline = MakeTaxiPipeline();
  TaxiStreamGenerator::Config config = SmallConfig();
  config.anomaly_prob = 0.5;
  TaxiStreamGenerator generator(config);
  RawChunk chunk = generator.NextChunk();
  auto features = pipeline->UpdateAndTransform(chunk);
  ASSERT_TRUE(features.ok());
  // About half the rows are anomalies; all must be gone.
  EXPECT_LT(features->num_rows(), 75u);
  for (double label : features->labels) {
    const double duration = std::expm1(label);
    EXPECT_GE(duration, 10.0 - 1e-6);
    EXPECT_LE(duration, 22.0 * 3600.0 + 1e-6);
  }
}

}  // namespace
}  // namespace cdpipe
