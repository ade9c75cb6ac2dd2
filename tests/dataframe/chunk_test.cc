#include "src/dataframe/chunk.h"

#include <gtest/gtest.h>

#include "tests/testing/table_data.h"

namespace cdpipe {
namespace {

TableData MakeTable() {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"s", ValueType::kString}}))
                    .ValueOrDie();
  return std::move(TableData::FromRows(
                       schema, {{Value::Double(1.0), Value::String("abc")},
                                {Value::Double(2.0), Value::String("de")}}))
      .ValueOrDie();
}

TEST(TableDataTest, NumRowsAndByteSize) {
  TableData table = MakeTable();
  EXPECT_EQ(table.num_rows(), 2u);
  // Column x: 2 doubles.  Column s: 5 arena bytes + 3 uint32 offsets.
  EXPECT_EQ(table.ByteSize(),
            2 * sizeof(double) + 5 + 3 * sizeof(uint32_t));
}

TEST(TableDataTest, ByteSizeCountsNullBitmapWords) {
  auto schema =
      std::move(Schema::Make({Field{"x", ValueType::kDouble}})).ValueOrDie();
  TableData table(schema);
  ASSERT_TRUE(table.AppendRow({Value::Double(1.0)}).ok());
  const size_t before = table.ByteSize();
  ASSERT_TRUE(table.AppendRow({Value::Null()}).ok());
  // The second row adds its placeholder double plus the lazily allocated
  // bitmap word (one uint64 covers the first 64 rows).
  EXPECT_EQ(table.ByteSize(), before + sizeof(double) + sizeof(uint64_t));
}

TEST(TableDataTest, ByteSizeOfBorrowedColumnExcludesPayload) {
  const std::string record(1000, 'x');
  Column borrowed(ValueType::kString);
  borrowed.AppendBorrowedString(record);

  Column owned(ValueType::kString);
  owned.AppendString(record);

  // The borrowed column accounts only its view table — the kilobyte of
  // payload belongs to the raw chunk.  The owned column pays the arena.
  EXPECT_EQ(borrowed.ByteSize(), sizeof(std::string_view));
  EXPECT_GE(owned.ByteSize(), record.size());
}

TEST(TableDataTest, CommitAppendedRowRequiresEveryColumn) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"n", ValueType::kInt64}}))
                    .ValueOrDie();
  TableData table(schema);
  table.mutable_column(0).AppendDouble(1.0);
  // Column n has not been appended to: the commit must refuse.
  EXPECT_FALSE(table.CommitAppendedRow());
  table.mutable_column(1).AppendInt64(7);
  EXPECT_TRUE(table.CommitAppendedRow());
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.ValueAt(0, 1).int64_value(), 7);
}

TEST(TableDataTest, PromoteColumnToDoubleWidensAndKeepsNulls) {
  auto schema =
      std::move(Schema::Make({Field{"n", ValueType::kInt64}})).ValueOrDie();
  TableData table(schema);
  ASSERT_TRUE(table.AppendRow({Value::Int64(3)}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(table.PromoteColumnToDouble(0).ok());
  EXPECT_EQ(table.schema()->field(0).type, ValueType::kDouble);
  EXPECT_EQ(table.column(0).doubles()[0], 3.0);
  EXPECT_TRUE(table.column(0).IsNull(1));
  // Promoting a string column is an error, not a silent rewrite.
  auto str_schema =
      std::move(Schema::Make({Field{"s", ValueType::kString}})).ValueOrDie();
  TableData strings(str_schema);
  EXPECT_FALSE(strings.PromoteColumnToDouble(0).ok());
}

TEST(FeatureDataTest, ValidatePasses) {
  FeatureData data;
  data.dim = 4;
  data.features.push_back(SparseVector::FromUnsorted(4, {{1, 1.0}}));
  data.labels.push_back(1.0);
  EXPECT_TRUE(data.Validate().ok());
}

TEST(FeatureDataTest, ValidateCatchesCountMismatch) {
  FeatureData data;
  data.dim = 4;
  data.features.push_back(SparseVector::FromUnsorted(4, {{1, 1.0}}));
  EXPECT_FALSE(data.Validate().ok());
}

TEST(FeatureDataTest, ValidateCatchesDimMismatch) {
  FeatureData data;
  data.dim = 4;
  data.features.push_back(SparseVector::FromUnsorted(5, {{1, 1.0}}));
  data.labels.push_back(1.0);
  EXPECT_FALSE(data.Validate().ok());
}

TEST(RawChunkTest, ByteSizeSumsRecords) {
  RawChunk chunk;
  chunk.records = {"abc", "de"};
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.ByteSize(), 5u);
}

TEST(FeatureChunkTest, ForwardsToData) {
  FeatureChunk chunk;
  chunk.origin_id = 9;
  chunk.data.dim = 2;
  chunk.data.features.push_back(SparseVector::FromUnsorted(2, {{0, 1.0}}));
  chunk.data.labels.push_back(1.0);
  EXPECT_EQ(chunk.num_rows(), 1u);
  EXPECT_GT(chunk.ByteSize(), 0u);
}

}  // namespace
}  // namespace cdpipe
