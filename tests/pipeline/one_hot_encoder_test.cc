#include "src/pipeline/one_hot_encoder.h"

#include <gtest/gtest.h>

#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

std::shared_ptr<const Schema> EncoderSchema() {
  return std::move(Schema::Make({Field{"amount", ValueType::kDouble},
                                 Field{"color", ValueType::kString},
                                 Field{"label", ValueType::kDouble}}))
      .ValueOrDie();
}

TableData MakeTable(
    std::vector<std::tuple<double, std::string, double>> rows) {
  std::vector<Row> out;
  for (const auto& [amount, color, label] : rows) {
    out.push_back(
        {Value::Double(amount), Value::String(color), Value::Double(label)});
  }
  return testing::TableFromRows(EncoderSchema(), out);
}

OneHotEncoder::Options BaseOptions(uint32_t max_cardinality = 4) {
  OneHotEncoder::Options options;
  options.numeric_columns = {"amount"};
  options.categorical_columns = {{"color", max_cardinality}};
  options.label_column = "label";
  return options;
}

TEST(OneHotEncoderTest, OutputDimIsNumericPlusBlocks) {
  OneHotEncoder encoder(BaseOptions(8));
  EXPECT_EQ(encoder.output_dim(), 9u);
}

TEST(OneHotEncoderTest, EncodesKnownCategories) {
  OneHotEncoder encoder(BaseOptions());
  testing::Batch batch = MakeTable({{1.5, "red", 1.0}, {2.0, "blue", -1.0}});
  ASSERT_TRUE(testing::RunUpdate(&encoder, batch).ok());
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);

  auto result = testing::RunTransform(encoder, batch);
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<FeatureData>(*result);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.dim, 5u);  // 1 numeric + block of 4
  // Row 0: amount at index 0, "red" (first seen -> slot 0) at index 1.
  EXPECT_DOUBLE_EQ(out.features[0].Get(0), 1.5);
  EXPECT_DOUBLE_EQ(out.features[0].Get(1), 1.0);
  // Row 1: "blue" -> slot 1 -> index 2.
  EXPECT_DOUBLE_EQ(out.features[1].Get(2), 1.0);
  EXPECT_DOUBLE_EQ(out.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(out.labels[1], -1.0);
}

TEST(OneHotEncoderTest, OutputIsSparseOneNonzeroPerCategorical) {
  OneHotEncoder encoder(BaseOptions(1000));
  testing::Batch batch = MakeTable({{1.0, "a", 0.0}});
  ASSERT_TRUE(testing::RunUpdate(&encoder, batch).ok());
  auto result = testing::RunTransform(encoder, batch);
  ASSERT_TRUE(result.ok());
  // 1 numeric + 1 one-hot nonzero despite a 1000-wide block (the O(p)
  // guarantee of §3.2.1).
  EXPECT_EQ(std::get<FeatureData>(*result).features[0].nnz(), 2u);
}

TEST(OneHotEncoderTest, UnknownValueHashesIntoBlock) {
  OneHotEncoder encoder(BaseOptions(4));
  testing::Batch training = MakeTable({{1.0, "red", 0.0}});
  ASSERT_TRUE(testing::RunUpdate(&encoder, training).ok());
  // "violet" was never folded in; it must still land inside the block.
  auto result =
      testing::RunTransform(encoder, MakeTable({{1.0, "violet", 0.0}}));
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<FeatureData>(*result);
  ASSERT_EQ(out.features[0].nnz(), 2u);
  const uint32_t slot = out.features[0].indices()[1];
  EXPECT_GE(slot, 1u);
  EXPECT_LT(slot, 5u);
}

TEST(OneHotEncoderTest, DictionaryCapacityRespected) {
  OneHotEncoder encoder(BaseOptions(2));
  testing::Batch batch = MakeTable(
      {{1, "a", 0}, {1, "b", 0}, {1, "c", 0}, {1, "d", 0}});
  ASSERT_TRUE(testing::RunUpdate(&encoder, batch).ok());
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);  // capped at max_cardinality
}

TEST(OneHotEncoderTest, IncrementalDictionaryGrowsAcrossUpdates) {
  OneHotEncoder encoder(BaseOptions(8));
  ASSERT_TRUE(testing::RunUpdate(&encoder, MakeTable({{1, "a", 0}})).ok());
  EXPECT_EQ(encoder.CardinalityOf(0), 1u);
  ASSERT_TRUE(testing::RunUpdate(&encoder, MakeTable({{1, "b", 0}})).ok());
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);
  // Re-seeing "a" does not grow the dictionary.
  ASSERT_TRUE(testing::RunUpdate(&encoder, MakeTable({{1, "a", 0}})).ok());
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);
}

TEST(OneHotEncoderTest, StableIndicesAcrossDictionaryGrowth) {
  OneHotEncoder encoder(BaseOptions(8));
  ASSERT_TRUE(testing::RunUpdate(&encoder, MakeTable({{1, "a", 0}})).ok());
  auto before = testing::RunTransform(encoder, MakeTable({{1, "a", 0}}));
  ASSERT_TRUE(before.ok());
  const uint32_t slot_before =
      std::get<FeatureData>(*before).features[0].indices()[1];
  ASSERT_TRUE(
      testing::RunUpdate(&encoder, MakeTable({{1, "b", 0}, {1, "c", 0}})).ok());
  auto after = testing::RunTransform(encoder, MakeTable({{1, "a", 0}}));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(std::get<FeatureData>(*after).features[0].indices()[1],
            slot_before);
}

TEST(OneHotEncoderTest, NullCategoricalSkipped) {
  OneHotEncoder encoder(BaseOptions());
  TableData table = testing::TableFromRows(
      EncoderSchema(),
      {{Value::Double(2.0), Value::Null(), Value::Double(1)}});
  auto result = testing::RunTransform(encoder, table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<FeatureData>(*result).features[0].nnz(), 1u);
}

TEST(OneHotEncoderTest, NonStringCategoricalErrors) {
  OneHotEncoder::Options options;
  options.numeric_columns = {};
  options.categorical_columns = {{"amount", 4}};  // amount is a double column
  options.label_column = "label";
  OneHotEncoder encoder(options);
  testing::Batch batch = MakeTable({{1.0, "x", 0.0}});
  EXPECT_FALSE(testing::RunUpdate(&encoder, batch).ok());
  EXPECT_FALSE(testing::RunTransform(encoder, batch).ok());
}

TEST(OneHotEncoderTest, ResetAndClone) {
  OneHotEncoder encoder(BaseOptions());
  ASSERT_TRUE(testing::RunUpdate(&encoder, MakeTable({{1, "a", 0}})).ok());
  auto clone = encoder.Clone();
  EXPECT_EQ(static_cast<OneHotEncoder*>(clone.get())->CardinalityOf(0), 1u);
  encoder.Reset();
  EXPECT_EQ(encoder.CardinalityOf(0), 0u);
  EXPECT_EQ(static_cast<OneHotEncoder*>(clone.get())->CardinalityOf(0), 1u);
}

TEST(OneHotEncoderTest, StatefulContract) {
  OneHotEncoder encoder(BaseOptions());
  EXPECT_TRUE(encoder.is_stateful());
  EXPECT_TRUE(encoder.supports_online_statistics());
}

}  // namespace
}  // namespace cdpipe
