#ifndef CDPIPE_TESTS_TESTING_TABLE_DATA_H_
#define CDPIPE_TESTS_TESTING_TABLE_DATA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/column.h"
#include "src/dataframe/schema.h"
#include "src/dataframe/value.h"

namespace cdpipe {

/// A single record materialized cell-by-cell: the currency for assembling
/// and inspecting individual records in tests.
using Row = std::vector<Value>;

/// Columnar relational table used by the tests to build component inputs
/// and inspect component outputs (see block_runner.h, which converts it to
/// and from the pipeline's table blocks): one typed `Column` per schema
/// field, with row-oriented accessors (`AppendRow`, `RowAt`, `ValueAt`).
///
/// Invariant: columns_ is parallel to schema().fields() and every column
/// holds exactly num_rows() cells.  `Make` validates this; the append API
/// maintains it.
class TableData {
 public:
  TableData() = default;
  /// An empty table with one empty column per schema field.
  explicit TableData(std::shared_ptr<const Schema> schema);

  /// Adopts fully built columns; fails unless they are parallel to the
  /// schema and of equal length.
  static Result<TableData> Make(std::shared_ptr<const Schema> schema,
                                std::vector<Column> columns);

  /// Builds a table row-at-a-time (tests / interop).
  static Result<TableData> FromRows(std::shared_ptr<const Schema> schema,
                                    const std::vector<Row>& rows);

  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }

  /// Appends one record; cells must match the schema types (nulls allowed).
  Status AppendRow(const Row& row);
  void ReserveRows(size_t rows);

  /// Kernels that append one typed cell to every column directly (bypassing
  /// AppendRow's Value boxing) call this to advance the row count.  Returns
  /// false — leaving the table unchanged beyond the caller's appends — when
  /// some column did not grow to num_rows() + 1.
  bool CommitAppendedRow();

  /// Cell (r, c) as a Value (interop / tests; not for inner loops).
  Value ValueAt(size_t row, size_t col) const;
  /// Record r materialized as a Row of Values.
  Row RowAt(size_t row) const;

  /// New table with the rows whose `keep[i]` is non-zero, in order.
  TableData Filter(const std::vector<uint8_t>& keep) const;

  /// Widens a kInt64/kTimestamp column to kDouble in place (static_cast per
  /// cell, nulls preserved) and rebinds the schema field's type.  No-op on a
  /// column that is already kDouble.
  Status PromoteColumnToDouble(size_t col);

  /// Approximate in-memory footprint: the owned bytes of every column
  /// (typed vectors, string arenas, offsets, null bitmaps).  Borrowed
  /// string columns count their view tables only.
  size_t ByteSize() const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

inline TableData::TableData(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)) {
  columns_.reserve(schema_->num_fields());
  for (const Field& field : schema_->fields()) {
    columns_.emplace_back(field.type);
  }
}

inline Result<TableData> TableData::Make(
    std::shared_ptr<const Schema> schema, std::vector<Column> columns) {
  if (schema == nullptr) {
    return Status::InvalidArgument("table schema must not be null");
  }
  if (columns.size() != schema->num_fields()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " does not match schema field count " +
        std::to_string(schema->num_fields()));
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].type() != schema->field(c).type) {
      return Status::InvalidArgument(
          "column " + std::to_string(c) + " type " +
          ValueTypeName(columns[c].type()) + " does not match field '" +
          schema->field(c).name + "' type " +
          ValueTypeName(schema->field(c).type));
    }
    if (columns[c].size() != rows) {
      return Status::InvalidArgument(
          "column " + std::to_string(c) + " has " +
          std::to_string(columns[c].size()) + " rows, expected " +
          std::to_string(rows));
    }
  }
  TableData out;
  out.schema_ = std::move(schema);
  out.columns_ = std::move(columns);
  out.num_rows_ = rows;
  return out;
}

inline Result<TableData> TableData::FromRows(
    std::shared_ptr<const Schema> schema, const std::vector<Row>& rows) {
  if (schema == nullptr) {
    return Status::InvalidArgument("table schema must not be null");
  }
  TableData out(std::move(schema));
  out.ReserveRows(rows.size());
  for (const Row& row : rows) {
    CDPIPE_RETURN_NOT_OK(out.AppendRow(row));
  }
  return out;
}

inline Status TableData::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, schema has " +
        std::to_string(columns_.size()) + " fields");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Status appended = columns_[c].AppendValue(row[c]);
    if (!appended.ok()) {
      // Roll the partially appended row back so the columns stay parallel.
      std::vector<uint8_t> keep(columns_[c].size(), 1);
      keep.back() = 0;
      for (size_t u = 0; u < c; ++u) {
        columns_[u] = columns_[u].Filter(keep);
      }
      return appended;
    }
  }
  ++num_rows_;
  return Status::OK();
}

inline void TableData::ReserveRows(size_t rows) {
  for (Column& column : columns_) column.Reserve(rows);
}

inline bool TableData::CommitAppendedRow() {
  for (const Column& column : columns_) {
    if (column.size() != num_rows_ + 1) return false;
  }
  ++num_rows_;
  return true;
}

inline Value TableData::ValueAt(size_t row, size_t col) const {
  return columns_[col].ValueAt(row);
}

inline Row TableData::RowAt(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (const Column& column : columns_) {
    out.push_back(column.ValueAt(row));
  }
  return out;
}

inline TableData TableData::Filter(
    const std::vector<uint8_t>& keep) const {
  TableData out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  size_t kept = 0;
  for (size_t i = 0; i < keep.size(); ++i) kept += keep[i] != 0;
  for (const Column& column : columns_) {
    out.columns_.push_back(column.Filter(keep));
  }
  out.num_rows_ = kept;
  return out;
}

inline Status TableData::PromoteColumnToDouble(size_t col) {
  Column& column = columns_[col];
  if (column.type() == ValueType::kDouble) return Status::OK();
  if (column.type() != ValueType::kInt64 &&
      column.type() != ValueType::kTimestamp) {
    return Status::FailedPrecondition(
        "cannot widen " + std::string(ValueTypeName(column.type())) +
        " column '" + schema_->field(col).name + "' to double");
  }
  Column widened(ValueType::kDouble);
  widened.Reserve(column.size());
  for (size_t r = 0; r < column.size(); ++r) {
    if (column.IsNull(r)) {
      widened.AppendNull();
    } else {
      widened.AppendDouble(static_cast<double>(column.ints()[r]));
    }
  }
  column = std::move(widened);
  std::vector<Field> fields = schema_->fields();
  fields[col].type = ValueType::kDouble;
  schema_ = std::make_shared<const Schema>(std::move(fields));
  return Status::OK();
}

inline size_t TableData::ByteSize() const {
  size_t total = 0;
  for (const Column& column : columns_) total += column.ByteSize();
  return total;
}

}  // namespace cdpipe

#endif  // CDPIPE_TESTS_TESTING_TABLE_DATA_H_
