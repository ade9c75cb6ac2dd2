#include "src/pipeline/standard_scaler.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

FeatureData MakeFeatures(
    std::vector<std::vector<std::pair<uint32_t, double>>> rows,
    uint32_t dim = 4) {
  FeatureData out;
  out.dim = dim;
  for (auto& row : rows) {
    out.features.push_back(SparseVector::FromUnsorted(dim, std::move(row)));
    out.labels.push_back(0.0);
  }
  return out;
}

TEST(ScalerFeatureModeTest, ComputesMomentsWithImplicitZeros) {
  StandardScaler scaler;
  // Dimension 0 values over 4 rows: 2, 0, 0, 2 -> mean 1, var 1.
  testing::Batch batch =
      MakeFeatures({{{0, 2.0}}, {}, {}, {{0, 2.0}}});
  ASSERT_TRUE(testing::RunUpdate(&scaler, batch).ok());
  EXPECT_EQ(scaler.ObservationCount(), 4);
  EXPECT_DOUBLE_EQ(scaler.MeanOf(0), 1.0);
  EXPECT_DOUBLE_EQ(scaler.StdDevOf(0), 1.0);
}

TEST(ScalerFeatureModeTest, ScalesByStdDevWithoutCentering) {
  StandardScaler scaler;
  ASSERT_TRUE(testing::RunUpdate(
                  &scaler, MakeFeatures({{{0, 2.0}}, {}, {}, {{0, 2.0}}}))
                  .ok());
  auto result = testing::RunTransform(scaler, MakeFeatures({{{0, 3.0}}}));
  ASSERT_TRUE(result.ok());
  // sd = 1 -> value unchanged; sparsity preserved (zero entries untouched).
  EXPECT_DOUBLE_EQ(std::get<FeatureData>(*result).features[0].Get(0), 3.0);
}

TEST(ScalerFeatureModeTest, WithMeanCenters) {
  StandardScaler::Options options;
  options.with_mean = true;
  StandardScaler scaler(options);
  ASSERT_TRUE(testing::RunUpdate(
                  &scaler, MakeFeatures({{{0, 2.0}}, {}, {}, {{0, 2.0}}}))
                  .ok());
  auto result = testing::RunTransform(scaler, MakeFeatures({{{0, 3.0}}}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(std::get<FeatureData>(*result).features[0].Get(0), 2.0);
}

TEST(ScalerFeatureModeTest, ConstantDimensionPassesThrough) {
  StandardScaler scaler;
  ASSERT_TRUE(
      testing::RunUpdate(&scaler, MakeFeatures({{{1, 5.0}}, {{1, 5.0}}})).ok());
  // Variance over {5,5} is 0 -> no scaling.
  auto result = testing::RunTransform(scaler, MakeFeatures({{{1, 5.0}}}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(std::get<FeatureData>(*result).features[0].Get(1), 5.0);
}

TEST(ScalerFeatureModeTest, UnseenDimensionUntouched) {
  StandardScaler scaler;
  auto result = testing::RunTransform(scaler, MakeFeatures({{{2, 7.0}}}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(std::get<FeatureData>(*result).features[0].Get(2), 7.0);
}

TEST(ScalerFeatureModeTest, IncrementalEqualsBatch) {
  Rng rng(99);
  std::vector<std::vector<std::pair<uint32_t, double>>> all_rows;
  for (int i = 0; i < 50; ++i) {
    all_rows.push_back({{0, rng.NextGaussian(3.0, 2.0)},
                        {2, rng.NextGaussian(-1.0, 0.5)}});
  }
  StandardScaler incremental;
  StandardScaler batch;
  // Feed in three uneven parts vs all at once.
  auto part = [&](size_t lo, size_t hi) {
    return MakeFeatures(std::vector<std::vector<std::pair<uint32_t, double>>>(
        all_rows.begin() + lo, all_rows.begin() + hi));
  };
  ASSERT_TRUE(testing::RunUpdate(&incremental, part(0, 10)).ok());
  ASSERT_TRUE(testing::RunUpdate(&incremental, part(10, 11)).ok());
  ASSERT_TRUE(testing::RunUpdate(&incremental, part(11, 50)).ok());
  ASSERT_TRUE(testing::RunUpdate(&batch, part(0, 50)).ok());
  EXPECT_NEAR(incremental.MeanOf(0), batch.MeanOf(0), 1e-12);
  EXPECT_NEAR(incremental.StdDevOf(0), batch.StdDevOf(0), 1e-12);
  EXPECT_NEAR(incremental.MeanOf(2), batch.MeanOf(2), 1e-12);
  EXPECT_NEAR(incremental.StdDevOf(2), batch.StdDevOf(2), 1e-12);
}

TableData MakeTable(std::vector<std::pair<double, double>> xy) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"y", ValueType::kDouble}}))
                    .ValueOrDie();
  std::vector<Row> rows;
  for (const auto& [x, y] : xy) {
    rows.push_back({Value::Double(x), Value::Double(y)});
  }
  return testing::TableFromRows(schema, rows);
}

TEST(ScalerTableModeTest, CentersAndScalesColumns) {
  StandardScaler::Options options;
  options.columns = {"x"};
  StandardScaler scaler(options);
  // x: {1, 3} -> mean 2, sd 1.
  ASSERT_TRUE(testing::RunUpdate(&scaler, MakeTable({{1, 0}, {3, 0}})).ok());
  auto result = testing::RunTransform(scaler, MakeTable({{4, 9}}));
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<TableData>(*result);
  EXPECT_DOUBLE_EQ(out.ValueAt(0, 0).double_value(), 2.0);  // (4-2)/1
  EXPECT_DOUBLE_EQ(out.ValueAt(0, 1).double_value(), 9.0);  // untouched
}

TEST(ScalerTableModeTest, NullCellsSkipped) {
  StandardScaler::Options options;
  options.columns = {"x"};
  StandardScaler scaler(options);
  TableData table = MakeTable({{2, 0}});
  ASSERT_TRUE(table.AppendRow({Value::Null(), Value::Double(0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Double(4), Value::Double(0)}).ok());
  ASSERT_TRUE(testing::RunUpdate(&scaler, table).ok());
  // Stats over {2, 4}: mean 3, sd 1.
  EXPECT_DOUBLE_EQ(scaler.MeanOf(0), 3.0);
  auto result = testing::RunTransform(scaler, table);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::get<TableData>(*result).ValueAt(1, 0).is_null());
}

TEST(ScalerTest, ResetClears) {
  StandardScaler scaler;
  ASSERT_TRUE(testing::RunUpdate(&scaler, MakeFeatures({{{0, 2.0}}})).ok());
  scaler.Reset();
  EXPECT_EQ(scaler.ObservationCount(), 0);
  EXPECT_DOUBLE_EQ(scaler.MeanOf(0), 0.0);
}

TEST(ScalerTest, CloneIsIndependent) {
  StandardScaler scaler;
  ASSERT_TRUE(
      testing::RunUpdate(&scaler, MakeFeatures({{{0, 2.0}}, {{0, 4.0}}})).ok());
  auto clone = scaler.Clone();
  auto* cloned = static_cast<StandardScaler*>(clone.get());
  EXPECT_DOUBLE_EQ(cloned->MeanOf(0), scaler.MeanOf(0));
  ASSERT_TRUE(testing::RunUpdate(cloned, MakeFeatures({{{0, 100.0}}})).ok());
  EXPECT_NE(cloned->MeanOf(0), scaler.MeanOf(0));
}

TEST(ScalerTest, ContractFlags) {
  StandardScaler scaler;
  EXPECT_TRUE(scaler.is_stateful());
  EXPECT_TRUE(scaler.supports_online_statistics());
}

}  // namespace
}  // namespace cdpipe
