#include "src/pipeline/anomaly_filter.h"

#include <gtest/gtest.h>

#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

TableData MakeTable(std::vector<double> values) {
  auto schema =
      std::move(Schema::Make({Field{"v", ValueType::kDouble}})).ValueOrDie();
  std::vector<Row> rows;
  for (double v : values) rows.push_back({Value::Double(v)});
  return testing::TableFromRows(schema, rows);
}

TEST(AnomalyFilterTest, KeepInRangeFilters) {
  auto filter = AnomalyFilter::KeepInRange("v", 0.0, 10.0);
  auto result = testing::RunTransform(*filter, MakeTable({-1, 0, 5, 10, 11}));
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<TableData>(*result);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(out.ValueAt(0, 0).double_value(), 0.0);
  EXPECT_DOUBLE_EQ(out.ValueAt(2, 0).double_value(), 10.0);
  EXPECT_EQ(filter->num_dropped(), 2u);
}

TEST(AnomalyFilterTest, NullCellsDroppedByRangeFilter) {
  auto filter = AnomalyFilter::KeepInRange("v", 0.0, 10.0);
  TableData table = MakeTable({5});
  ASSERT_TRUE(table.AppendRow({Value::Null()}).ok());
  auto result = testing::RunTransform(*filter, table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 1u);
}

TEST(AnomalyFilterTest, PredicateErrorPropagates) {
  // A rule over a string column cannot be evaluated: the error reaches the
  // caller instead of silently keeping or dropping rows.
  auto schema = std::move(Schema::Make({Field{"v", ValueType::kDouble},
                                        Field{"s", ValueType::kString}}))
                    .ValueOrDie();
  TableData table = testing::TableFromRows(
      schema, {{Value::Double(1.0), Value::String("x")}});
  AnomalyFilter filter("s in range",
                       std::vector<AnomalyFilter::Rule>{{"s", 0.0, 1.0}});
  auto result = testing::RunTransform(filter, table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("non-numeric column s"),
            std::string::npos);
}

TEST(AnomalyFilterTest, MissingColumnErrors) {
  auto filter = AnomalyFilter::KeepInRange("zzz", 0.0, 1.0);
  EXPECT_FALSE(testing::RunTransform(*filter, MakeTable({1})).ok());
}

TEST(AnomalyFilterTest, RejectsFeatureBatch) {
  auto filter = AnomalyFilter::KeepInRange("v", 0.0, 1.0);
  EXPECT_FALSE(testing::RunTransform(*filter, FeatureData{}).ok());
}

TEST(AnomalyFilterTest, EmptyTablePassesThrough) {
  auto filter = AnomalyFilter::KeepInRange("v", 0.0, 1.0);
  auto result = testing::RunTransform(*filter, MakeTable({}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 0u);
}

TEST(AnomalyFilterTest, CloneCarriesPredicateAndCounter) {
  auto filter = AnomalyFilter::KeepInRange("v", 0.0, 1.0);
  ASSERT_TRUE(testing::RunTransform(*filter, MakeTable({5})).ok());
  auto clone = filter->Clone();
  auto* cloned = static_cast<AnomalyFilter*>(clone.get());
  EXPECT_EQ(cloned->num_dropped(), 1u);
  auto result = testing::RunTransform(*cloned, MakeTable({0.5}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 1u);
}

TEST(AnomalyFilterTest, StatelessContract) {
  auto filter = AnomalyFilter::KeepInRange("v", 0.0, 1.0);
  EXPECT_FALSE(filter->is_stateful());
}

}  // namespace
}  // namespace cdpipe
