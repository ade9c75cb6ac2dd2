#include "src/pipeline/column_projector.h"

#include <gtest/gtest.h>

#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

TableData MakeTable() {
  auto schema = std::move(Schema::Make({Field{"a", ValueType::kDouble},
                                        Field{"b", ValueType::kString},
                                        Field{"c", ValueType::kInt64}}))
                    .ValueOrDie();
  return testing::TableFromRows(
      schema, {{Value::Double(1.0), Value::String("x"), Value::Int64(7)},
               {Value::Double(2.0), Value::String("y"), Value::Int64(8)}});
}

TEST(ColumnProjectorTest, SelectsAndReorders) {
  ColumnProjector projector({"c", "a"});
  auto result = testing::RunTransform(projector, MakeTable());
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<TableData>(*result);
  EXPECT_EQ(out.schema()->num_fields(), 2u);
  EXPECT_EQ(out.schema()->field(0).name, "c");
  EXPECT_EQ(out.schema()->field(1).name, "a");
  EXPECT_EQ(out.ValueAt(0, 0).int64_value(), 7);
  EXPECT_DOUBLE_EQ(out.ValueAt(1, 1).double_value(), 2.0);
}

TEST(ColumnProjectorTest, MissingColumnErrors) {
  ColumnProjector projector({"nope"});
  EXPECT_FALSE(testing::RunTransform(projector, MakeTable()).ok());
}

TEST(ColumnProjectorTest, RejectsFeatureBatch) {
  ColumnProjector projector({"a"});
  EXPECT_FALSE(testing::RunTransform(projector, FeatureData{}).ok());
}

TEST(ColumnProjectorTest, PreservesRowCount) {
  ColumnProjector projector({"b"});
  auto result = testing::RunTransform(projector, MakeTable());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 2u);
}

TEST(ColumnProjectorTest, ContractAndClone) {
  ColumnProjector projector({"a"});
  EXPECT_FALSE(projector.is_stateful());
  auto clone = projector.Clone();
  auto result = testing::RunTransform(*clone, MakeTable());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).schema()->num_fields(), 1u);
}

}  // namespace
}  // namespace cdpipe
