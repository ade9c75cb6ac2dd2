#ifndef CDPIPE_TESTS_TESTING_TABLE_TEST_UTIL_H_
#define CDPIPE_TESTS_TESTING_TABLE_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tests/testing/table_data.h"

namespace cdpipe {
namespace testing {

/// The pipeline's entry schema: a single string column named "raw".
inline const std::shared_ptr<const Schema>& RawEntrySchema() {
  static const std::shared_ptr<const Schema> kRawSchema =
      std::move(Schema::Make({Field{"raw", ValueType::kString}})).ValueOrDie();
  return kRawSchema;
}

/// An owned single-string-column table in the pipeline's entry shape (one
/// "raw" string column, one record per row), for feeding parsers through
/// BlockRunner.
inline TableData OwnedRawTable(const std::vector<std::string>& lines) {
  Column raw(ValueType::kString);
  raw.Reserve(lines.size());
  for (const std::string& line : lines) raw.AppendString(line);
  std::vector<Column> columns;
  columns.push_back(std::move(raw));
  return std::move(TableData::Make(RawEntrySchema(), std::move(columns)))
      .ValueOrDie();
}

/// Row-at-a-time table construction (the seed's brace-literal idiom).
inline TableData TableFromRows(std::shared_ptr<const Schema> schema,
                               const std::vector<Row>& rows) {
  return std::move(TableData::FromRows(std::move(schema), rows)).ValueOrDie();
}

}  // namespace testing
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_TESTING_TABLE_TEST_UTIL_H_
