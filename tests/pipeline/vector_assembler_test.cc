#include "src/pipeline/vector_assembler.h"

#include <array>

#include <gtest/gtest.h>

#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

std::shared_ptr<const Schema> ThreeColumnSchema() {
  return std::move(Schema::Make({Field{"a", ValueType::kDouble},
                                 Field{"b", ValueType::kDouble},
                                 Field{"y", ValueType::kDouble}}))
      .ValueOrDie();
}

TableData MakeTable(std::vector<std::array<double, 3>> rows) {
  std::vector<Row> out;
  for (const auto& r : rows) {
    out.push_back(
        {Value::Double(r[0]), Value::Double(r[1]), Value::Double(r[2])});
  }
  return testing::TableFromRows(ThreeColumnSchema(), out);
}

VectorAssembler::Options BaseOptions(bool intercept = false) {
  VectorAssembler::Options options;
  options.feature_columns = {"a", "b"};
  options.label_column = "y";
  options.add_intercept = intercept;
  return options;
}

TEST(VectorAssemblerTest, PacksColumnsInOrder) {
  VectorAssembler assembler(BaseOptions());
  auto result = testing::RunTransform(assembler, MakeTable({{1, 2, 3}}));
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<FeatureData>(*result);
  EXPECT_EQ(out.dim, 2u);
  EXPECT_DOUBLE_EQ(out.features[0].Get(0), 1.0);
  EXPECT_DOUBLE_EQ(out.features[0].Get(1), 2.0);
  EXPECT_DOUBLE_EQ(out.labels[0], 3.0);
}

TEST(VectorAssemblerTest, InterceptAppendsConstantOne) {
  VectorAssembler assembler(BaseOptions(/*intercept=*/true));
  EXPECT_EQ(assembler.output_dim(), 3u);
  auto result = testing::RunTransform(assembler, MakeTable({{0, 0, 5}}));
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<FeatureData>(*result);
  EXPECT_DOUBLE_EQ(out.features[0].Get(2), 1.0);
  // zero-valued features are not stored.
  EXPECT_EQ(out.features[0].nnz(), 1u);
}

TEST(VectorAssemblerTest, NullFeatureBecomesZero) {
  VectorAssembler assembler(BaseOptions());
  TableData table = testing::TableFromRows(
      ThreeColumnSchema(),
      {{Value::Null(), Value::Double(2), Value::Double(1)}});
  auto result = testing::RunTransform(assembler, table);
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<FeatureData>(*result);
  EXPECT_DOUBLE_EQ(out.features[0].Get(0), 0.0);
  EXPECT_DOUBLE_EQ(out.features[0].Get(1), 2.0);
}

TEST(VectorAssemblerTest, NullLabelErrors) {
  VectorAssembler assembler(BaseOptions());
  TableData table = testing::TableFromRows(
      ThreeColumnSchema(),
      {{Value::Double(1), Value::Double(2), Value::Null()}});
  EXPECT_FALSE(testing::RunTransform(assembler, table).ok());
}

TEST(VectorAssemblerTest, MissingColumnErrors) {
  VectorAssembler::Options options;
  options.feature_columns = {"nope"};
  options.label_column = "y";
  VectorAssembler assembler(options);
  EXPECT_FALSE(testing::RunTransform(assembler, MakeTable({{1, 2, 3}})).ok());
}

TEST(VectorAssemblerTest, RejectsFeatureBatch) {
  VectorAssembler assembler(BaseOptions());
  EXPECT_FALSE(testing::RunTransform(assembler, FeatureData{}).ok());
}

TEST(VectorAssemblerTest, EmptyTableGivesEmptyFeatures) {
  VectorAssembler assembler(BaseOptions());
  auto result = testing::RunTransform(assembler, MakeTable({}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<FeatureData>(*result).num_rows(), 0u);
}

TEST(VectorAssemblerTest, ContractAndClone) {
  VectorAssembler assembler(BaseOptions(true));
  EXPECT_FALSE(assembler.is_stateful());
  auto clone = assembler.Clone();
  EXPECT_EQ(static_cast<VectorAssembler*>(clone.get())->output_dim(), 3u);
}

}  // namespace
}  // namespace cdpipe
