#include "src/pipeline/zscore_anomaly_detector.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/io/serialization.h"
#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

std::shared_ptr<const Schema> OneColumnSchema() {
  return std::move(Schema::Make({Field{"x", ValueType::kDouble}})).ValueOrDie();
}

TableData MakeTable(std::vector<double> values) {
  std::vector<Row> rows;
  for (double v : values) rows.push_back({Value::Double(v)});
  return testing::TableFromRows(OneColumnSchema(), rows);
}

ZScoreAnomalyDetector::Options BaseOptions(double threshold = 3.0,
                                           int64_t min_observations = 10) {
  ZScoreAnomalyDetector::Options options;
  options.columns = {"x"};
  options.threshold = threshold;
  options.min_observations = min_observations;
  return options;
}

TableData GaussianTable(Rng* rng, size_t n, double mean, double sd) {
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) values.push_back(rng->NextGaussian(mean, sd));
  return MakeTable(std::move(values));
}

TEST(ZScoreDetectorTest, LearnsMomentsIncrementally) {
  Rng rng(1);
  ZScoreAnomalyDetector detector(BaseOptions());
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 500, 10.0, 2.0)))
          .ok());
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 500, 10.0, 2.0)))
          .ok());
  EXPECT_EQ(detector.CountOf(0), 1000);
  EXPECT_NEAR(detector.MeanOf(0), 10.0, 0.3);
  EXPECT_NEAR(detector.StdDevOf(0), 2.0, 0.3);
}

TEST(ZScoreDetectorTest, DropsOutliersKeepsInliers) {
  Rng rng(2);
  ZScoreAnomalyDetector detector(BaseOptions(/*threshold=*/3.0));
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 1000, 0.0, 1.0)))
          .ok());
  auto result = testing::RunTransform(
      detector, MakeTable({0.0, 1.5, -2.0, 50.0, -40.0, 0.5}));
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<TableData>(*result);
  EXPECT_EQ(out.num_rows(), 4u);  // 50 and -40 dropped
  EXPECT_EQ(detector.num_dropped(), 2u);
}

TEST(ZScoreDetectorTest, ColdDetectorDropsNothing) {
  ZScoreAnomalyDetector detector(BaseOptions(3.0, /*min_observations=*/100));
  ASSERT_TRUE(testing::RunUpdate(&detector, MakeTable({1, 2, 3})).ok());
  // Only 3 observations < 100: even a wild value passes.
  auto result = testing::RunTransform(detector, MakeTable({1e9}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 1u);
}

TEST(ZScoreDetectorTest, ConstantColumnDropsNothing) {
  ZScoreAnomalyDetector detector(BaseOptions(3.0, 5));
  ASSERT_TRUE(
      testing::RunUpdate(&detector, MakeTable({7, 7, 7, 7, 7, 7, 7, 7})).ok());
  auto result = testing::RunTransform(detector, MakeTable({7, 7}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 2u);
}

TEST(ZScoreDetectorTest, NullCellsNeverVote) {
  Rng rng(3);
  ZScoreAnomalyDetector detector(BaseOptions(3.0, 10));
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 100, 0.0, 1.0))).ok());
  TableData table = testing::TableFromRows(OneColumnSchema(),
                                           {{Value::Null()}});
  auto result = testing::RunTransform(detector, table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 1u);
}

TEST(ZScoreDetectorTest, FalsePositiveRateBounded) {
  // Property: on clean Gaussian data with threshold 4σ, the drop rate must
  // be tiny (P(|z| > 4) ≈ 6e-5).
  Rng rng(4);
  ZScoreAnomalyDetector detector(BaseOptions(/*threshold=*/4.0, 100));
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 2000, 5.0, 3.0)))
          .ok());
  auto result =
      testing::RunTransform(detector, (GaussianTable(&rng, 5000, 5.0, 3.0)));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(std::get<TableData>(*result).num_rows(), 4990u);
}

TEST(ZScoreDetectorTest, CatchesInjectedAnomalies) {
  // Property: with a 10σ contamination, essentially every anomaly is
  // removed while inliers survive.
  Rng rng(5);
  ZScoreAnomalyDetector detector(BaseOptions(4.0, 100));
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 2000, 0.0, 1.0)))
          .ok());
  TableData mixed = GaussianTable(&rng, 100, 0.0, 1.0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        mixed
            .AppendRow({Value::Double(rng.NextBernoulli(0.5) ? 15.0 : -15.0)})
            .ok());
  }
  auto result = testing::RunTransform(detector, mixed);
  ASSERT_TRUE(result.ok());
  const size_t kept = std::get<TableData>(*result).num_rows();
  EXPECT_GE(kept, 98u);   // inliers survive
  EXPECT_LE(kept, 102u);  // anomalies removed
}

TEST(ZScoreDetectorTest, RejectsNonNumericColumn) {
  ZScoreAnomalyDetector detector(BaseOptions());
  auto schema =
      std::move(Schema::Make({Field{"x", ValueType::kString}})).ValueOrDie();
  TableData table =
      testing::TableFromRows(schema, {{Value::String("abc")}});
  EXPECT_FALSE(testing::RunUpdate(&detector, table).ok());
}

TEST(ZScoreDetectorTest, CheckpointRoundTrip) {
  Rng rng(6);
  ZScoreAnomalyDetector detector(BaseOptions(3.0, 10));
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 200, 2.0, 0.5))).ok());
  std::ostringstream os;
  Serializer out(&os);
  ASSERT_TRUE(detector.SaveState(&out).ok());

  ZScoreAnomalyDetector restored(BaseOptions(3.0, 10));
  std::istringstream is(os.str());
  Deserializer in(&is);
  ASSERT_TRUE(restored.LoadState(&in).ok());
  EXPECT_EQ(restored.CountOf(0), detector.CountOf(0));
  EXPECT_DOUBLE_EQ(restored.MeanOf(0), detector.MeanOf(0));
  EXPECT_DOUBLE_EQ(restored.StdDevOf(0), detector.StdDevOf(0));
}

TEST(ZScoreDetectorTest, ResetAndCloneAndContract) {
  Rng rng(7);
  ZScoreAnomalyDetector detector(BaseOptions());
  ASSERT_TRUE(
      testing::RunUpdate(&detector, (GaussianTable(&rng, 100, 0.0, 1.0))).ok());
  auto clone = detector.Clone();
  EXPECT_EQ(static_cast<ZScoreAnomalyDetector*>(clone.get())->CountOf(0),
            100);
  detector.Reset();
  EXPECT_EQ(detector.CountOf(0), 0);
  EXPECT_TRUE(detector.is_stateful());
  EXPECT_TRUE(detector.supports_online_statistics());
}

}  // namespace
}  // namespace cdpipe
