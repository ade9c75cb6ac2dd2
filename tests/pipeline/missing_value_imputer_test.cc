#include "src/pipeline/missing_value_imputer.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

FeatureData MakeFeatures(std::vector<std::vector<std::pair<uint32_t, double>>>
                             rows,
                         uint32_t dim = 8) {
  FeatureData out;
  out.dim = dim;
  for (auto& row : rows) {
    out.features.push_back(SparseVector::FromUnsorted(dim, std::move(row)));
    out.labels.push_back(1.0);
  }
  return out;
}

TEST(ImputerFeatureModeTest, ReplacesNanWithRunningMean) {
  MissingValueImputer imputer;
  testing::Batch batch = MakeFeatures({{{0, 2.0}}, {{0, 4.0}}});
  ASSERT_TRUE(testing::RunUpdate(&imputer, batch).ok());
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 3.0);

  testing::Batch with_missing = MakeFeatures({{{0, kNan}, {1, 5.0}}});
  auto result = testing::RunTransform(imputer, with_missing);
  ASSERT_TRUE(result.ok());
  const auto& features = std::get<FeatureData>(*result);
  EXPECT_DOUBLE_EQ(features.features[0].Get(0), 3.0);
  EXPECT_DOUBLE_EQ(features.features[0].Get(1), 5.0);
}

TEST(ImputerFeatureModeTest, UnseenDimensionUsesDefault) {
  MissingValueImputer::Options options;
  options.default_value = -9.0;
  MissingValueImputer imputer(options);
  testing::Batch with_missing = MakeFeatures({{{2, kNan}}});
  auto result = testing::RunTransform(imputer, with_missing);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(std::get<FeatureData>(*result).features[0].Get(2), -9.0);
}

TEST(ImputerFeatureModeTest, UpdateSkipsNan) {
  MissingValueImputer imputer;
  testing::Batch batch = MakeFeatures({{{0, kNan}}, {{0, 6.0}}});
  ASSERT_TRUE(testing::RunUpdate(&imputer, batch).ok());
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 6.0);  // nan not counted
}

TEST(ImputerFeatureModeTest, IncrementalMeanMatchesBatchMean) {
  MissingValueImputer incremental;
  MissingValueImputer batch;
  testing::Batch part1 = MakeFeatures({{{0, 1.0}}, {{0, 2.0}}});
  testing::Batch part2 = MakeFeatures({{{0, 6.0}}});
  testing::Batch all = MakeFeatures({{{0, 1.0}}, {{0, 2.0}}, {{0, 6.0}}});
  ASSERT_TRUE(testing::RunUpdate(&incremental, part1).ok());
  ASSERT_TRUE(testing::RunUpdate(&incremental, part2).ok());
  ASSERT_TRUE(testing::RunUpdate(&batch, all).ok());
  EXPECT_DOUBLE_EQ(incremental.MeanForDimension(0),
                   batch.MeanForDimension(0));
}

TEST(ImputerTableModeTest, FillsNullCells) {
  MissingValueImputer::Options options;
  options.columns = {"x"};
  MissingValueImputer imputer(options);

  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"y", ValueType::kDouble}}))
                    .ValueOrDie();
  TableData table = testing::TableFromRows(
      schema, {{Value::Double(2.0), Value::Double(1.0)},
               {Value::Double(6.0), Value::Null()}});
  testing::Batch batch = table;
  ASSERT_TRUE(testing::RunUpdate(&imputer, batch).ok());

  TableData query = table;
  ASSERT_TRUE(query.AppendRow({Value::Null(), Value::Null()}).ok());
  auto result = testing::RunTransform(imputer, query);
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<TableData>(*result);
  EXPECT_DOUBLE_EQ(out.ValueAt(2, 0).double_value(), 4.0);  // imputed mean
  EXPECT_TRUE(out.ValueAt(2, 1).is_null());  // y not configured: untouched
}

TEST(ImputerTableModeTest, MissingColumnErrors) {
  MissingValueImputer::Options options;
  options.columns = {"zzz"};
  MissingValueImputer imputer(options);
  auto schema =
      std::move(Schema::Make({Field{"x", ValueType::kDouble}})).ValueOrDie();
  TableData table =
      testing::TableFromRows(schema, {{Value::Double(1.0)}});
  EXPECT_FALSE(testing::RunUpdate(&imputer, table).ok());
}

TEST(ImputerTest, ResetClearsStatistics) {
  MissingValueImputer imputer;
  ASSERT_TRUE(testing::RunUpdate(&imputer, MakeFeatures({{{0, 10.0}}})).ok());
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 10.0);
  imputer.Reset();
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 0.0);
}

TEST(ImputerTest, CloneCopiesStatistics) {
  MissingValueImputer imputer;
  ASSERT_TRUE(testing::RunUpdate(&imputer, MakeFeatures({{{3, 8.0}}})).ok());
  auto clone = imputer.Clone();
  auto* cloned = static_cast<MissingValueImputer*>(clone.get());
  EXPECT_DOUBLE_EQ(cloned->MeanForDimension(3), 8.0);
  // Statistics are independent after cloning.
  ASSERT_TRUE(testing::RunUpdate(cloned, MakeFeatures({{{3, 0.0}}})).ok());
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(3), 8.0);
  EXPECT_DOUBLE_EQ(cloned->MeanForDimension(3), 4.0);
}

TEST(ImputerTest, IsStatefulAndSupportsOnlineStatistics) {
  MissingValueImputer imputer;
  EXPECT_TRUE(imputer.is_stateful());
  EXPECT_TRUE(imputer.supports_online_statistics());
}

}  // namespace
}  // namespace cdpipe
