#include "src/pipeline/input_parser.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

testing::Batch WrapLines(std::vector<std::string> lines) {
  return testing::OwnedRawTable(lines);
}

TEST(InputParserLibSvmTest, ParsesLabelsAndFeatures) {
  InputParser::Options options;
  options.format = InputParser::Format::kLibSvm;
  options.feature_dim = 100;
  InputParser parser(options);

  auto result = testing::RunTransform(
      parser, WrapLines({"+1 3:1.5 17:2.0", "-1 5:0.25"}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& features = std::get<FeatureData>(*result);
  ASSERT_EQ(features.num_rows(), 2u);
  EXPECT_EQ(features.dim, 100u);
  EXPECT_DOUBLE_EQ(features.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(features.labels[1], -1.0);
  EXPECT_DOUBLE_EQ(features.features[0].Get(3), 1.5);
  EXPECT_DOUBLE_EQ(features.features[0].Get(17), 2.0);
  EXPECT_DOUBLE_EQ(features.features[1].Get(5), 0.25);
}

TEST(InputParserLibSvmTest, BinarizesLabels) {
  InputParser::Options options;
  options.feature_dim = 10;
  options.binarize_labels = true;
  InputParser parser(options);
  auto result =
      testing::RunTransform(parser, WrapLines({"0 1:1", "3 1:1", "-2 1:1"}));
  ASSERT_TRUE(result.ok());
  const auto& features = std::get<FeatureData>(*result);
  EXPECT_DOUBLE_EQ(features.labels[0], -1.0);
  EXPECT_DOUBLE_EQ(features.labels[1], 1.0);
  EXPECT_DOUBLE_EQ(features.labels[2], -1.0);
}

TEST(InputParserLibSvmTest, KeepsRawLabelWhenNotBinarizing) {
  InputParser::Options options;
  options.feature_dim = 10;
  options.binarize_labels = false;
  InputParser parser(options);
  auto result = testing::RunTransform(parser, WrapLines({"2.75 1:1"}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(std::get<FeatureData>(*result).labels[0], 2.75);
}

TEST(InputParserLibSvmTest, ParsesNanAsMissing) {
  InputParser::Options options;
  options.feature_dim = 10;
  InputParser parser(options);
  auto result = testing::RunTransform(parser, WrapLines({"+1 2:nan 4:1.0"}));
  ASSERT_TRUE(result.ok());
  const auto& features = std::get<FeatureData>(*result);
  EXPECT_TRUE(std::isnan(features.features[0].Get(2)));
  EXPECT_DOUBLE_EQ(features.features[0].Get(4), 1.0);
}

TEST(InputParserLibSvmTest, DropsMalformedRecords) {
  InputParser::Options options;
  options.feature_dim = 10;
  InputParser parser(options);
  auto result = testing::RunTransform(parser, WrapLines(
      {"+1 1:1.0", "not a record", "+1 999:1.0", "+1 3:abc", "-1 2:2.0"}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<FeatureData>(*result).num_rows(), 2u);
  EXPECT_EQ(parser.num_malformed(), 3u);
}

TEST(InputParserLibSvmTest, StrictModeFailsOnMalformed) {
  InputParser::Options options;
  options.feature_dim = 10;
  options.strict = true;
  InputParser parser(options);
  EXPECT_FALSE(testing::RunTransform(parser, WrapLines({"garbage"})).ok());
}

TEST(InputParserLibSvmTest, RejectsNonTableInput) {
  InputParser::Options options;
  options.feature_dim = 10;
  InputParser parser(options);
  testing::Batch features = FeatureData{};
  EXPECT_FALSE(testing::RunTransform(parser, features).ok());
}

std::shared_ptr<const Schema> TestCsvSchema() {
  return std::move(Schema::Make({Field{"t", ValueType::kTimestamp},
                                 Field{"x", ValueType::kDouble},
                                 Field{"n", ValueType::kInt64},
                                 Field{"s", ValueType::kString}}))
      .ValueOrDie();
}

TEST(InputParserCsvTest, ParsesTypedColumns) {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = TestCsvSchema();
  InputParser parser(options);

  auto result = testing::RunTransform(
      parser, WrapLines({"2015-01-01 00:00:00,1.5,7,hello"}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& table = std::get<TableData>(*result);
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.ValueAt(0, 0).int64_value(), 1420070400);
  EXPECT_DOUBLE_EQ(table.ValueAt(0, 1).double_value(), 1.5);
  EXPECT_EQ(table.ValueAt(0, 2).int64_value(), 7);
  EXPECT_EQ(table.ValueAt(0, 3).string_value(), "hello");
}

TEST(InputParserCsvTest, EmptyFieldBecomesNull) {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = TestCsvSchema();
  InputParser parser(options);
  auto result =
      testing::RunTransform(parser, WrapLines({"2015-01-01 00:00:00,,7,x"}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::get<TableData>(*result).ValueAt(0, 1).is_null());
}

TEST(InputParserCsvTest, DropsWrongArityAndBadValues) {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = TestCsvSchema();
  InputParser parser(options);
  auto result = testing::RunTransform(parser, WrapLines({
      "2015-01-01 00:00:00,1.0,2,ok",
      "too,few",
      "2015-01-01 00:00:00,abc,2,bad-double",
      "not-a-date,1.0,2,bad-date",
  }));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 1u);
  EXPECT_EQ(parser.num_malformed(), 3u);
}

TEST(InputParserCsvTest, CustomDelimiter) {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema =
      std::move(Schema::Make({Field{"a", ValueType::kDouble},
                              Field{"b", ValueType::kDouble}}))
          .ValueOrDie();
  options.delimiter = ';';
  InputParser parser(options);
  auto result = testing::RunTransform(parser, WrapLines({"1.0;2.0"}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(std::get<TableData>(*result).ValueAt(0, 1).double_value(),
                   2.0);
}

TEST(InputParserTest, CloneKeepsConfigurationAndCounters) {
  InputParser::Options options;
  options.feature_dim = 10;
  InputParser parser(options);
  ASSERT_TRUE(testing::RunTransform(parser, WrapLines({"bad"})).ok());
  EXPECT_EQ(parser.num_malformed(), 1u);
  auto clone = parser.Clone();
  EXPECT_EQ(static_cast<InputParser*>(clone.get())->num_malformed(), 1u);
  EXPECT_EQ(clone->name(), "input_parser");
  EXPECT_FALSE(clone->is_stateful());
}

}  // namespace
}  // namespace cdpipe
