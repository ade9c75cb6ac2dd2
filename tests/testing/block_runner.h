#ifndef CDPIPE_TESTS_TESTING_BLOCK_RUNNER_H_
#define CDPIPE_TESTS_TESTING_BLOCK_RUNNER_H_

#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/pipeline/component.h"
#include "src/pipeline/fusion/fusion.h"
#include "tests/testing/table_data.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace testing {

/// A component input or output as the tests see it: a table or a batch of
/// feature vectors.
using Batch = std::variant<TableData, FeatureData>;

/// Drives components through the pipeline's single execution path on a
/// hand-built input, the way one step of the online walk does: the input
/// becomes a block, `Update` runs a component's update barrier on it and
/// `Transform` adds the component's stages and runs them.  `Output` reads
/// the block back (live rows only).
///
/// A table whose schema is exactly the raw entry schema (see
/// OwnedRawTable) starts at the raw entry, so a parser can consume it; any
/// other table starts as a table block, a FeatureData as a vector block.
class BlockRunner {
 public:
  explicit BlockRunner(Batch input)
      : input_(std::move(input)), plan_(*RawEntrySchema()) {
    ctx_.scratch = &scratch_;
    ctx_.out = &out_;
    ctx_.plan_serial = fusion::NextPlanSerial();
    if (auto* table = std::get_if<TableData>(&input_)) {
      const Schema& schema = *table->schema();
      if (schema.num_fields() == 1 && schema.field(0).name == "raw" &&
          schema.field(0).type == ValueType::kString) {
        for (size_t r = 0; r < table->num_rows(); ++r) {
          records_.emplace_back(table->column(0).StringAt(r));
        }
        ctx_.records = &records_;
        ctx_.end = records_.size();
      } else {
        LoadTable(*table);
      }
    } else {
      LoadFeatures(std::get<FeatureData>(input_));
    }
  }

  BlockRunner(const BlockRunner&) = delete;
  BlockRunner& operator=(const BlockRunner&) = delete;

  /// The component's update barrier: folds the block's live rows in.
  Status Update(PipelineComponent* component) {
    return component->Update(
        fusion::UpdateBlock{plan_, scratch_.table, scratch_.vec});
  }

  /// The component's stages: Fuse, then run them on the block.
  Status Transform(const PipelineComponent& component) {
    CDPIPE_RETURN_NOT_OK(component.Fuse(&plan_));
    return plan_.RunPendingStages(ctx_);
  }

  /// The block as it stands; call once, after the last Transform.
  Result<Batch> Output() {
    switch (plan_.repr()) {
      case fusion::PlanBuilder::Repr::kRaw:
        return input_;
      case fusion::PlanBuilder::Repr::kVec:
        CDPIPE_RETURN_NOT_OK(plan_.AddSink());
        CDPIPE_RETURN_NOT_OK(plan_.RunPendingStages(ctx_));
        CDPIPE_RETURN_NOT_OK(out_.Validate());
        return Batch(std::move(out_));
      case fusion::PlanBuilder::Repr::kTable:
        return Batch(ReadTable());
    }
    return Status::Internal("unknown block representation");
  }

  /// (row x component) scans the stages counted so far.
  size_t rows_scanned() const { return ctx_.rows_scanned; }

 private:
  void LoadTable(const TableData& table) {
    CDPIPE_CHECK(plan_.BeginTable(table.schema()).ok());
    fusion::TableBlock& block = scratch_.table;
    const size_t rows = table.num_rows();
    block.cols.resize(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& column = table.column(c);
      fusion::BlockColumn& col = block.cols[c];
      col.Reset(column.type());
      for (size_t r = 0; r < rows; ++r) {
        const bool null = column.IsNull(r);
        col.null.push_back(null ? 1 : 0);
        col.any_null = col.any_null || null;
        switch (column.type()) {
          case ValueType::kDouble:
            col.d.push_back(null ? 0.0 : column.doubles()[r]);
            break;
          case ValueType::kInt64:
          case ValueType::kTimestamp:
            col.i.push_back(null ? 0 : column.ints()[r]);
            break;
          case ValueType::kString:
            col.s.push_back(null ? std::string_view() : column.StringAt(r));
            break;
          case ValueType::kNull:
            break;
        }
      }
    }
    block.num_rows = rows;
    block.live_rows = rows;
    block.keep.assign(rows, 1);
  }

  void LoadFeatures(const FeatureData& features) {
    plan_.BeginVec(features.dim);
    fusion::VecBlock& vec = scratch_.vec;
    vec.dim = features.dim;
    for (size_t r = 0; r < features.num_rows(); ++r) {
      const SparseVector& x = features.features[r];
      bool has_nan = false;
      for (size_t k = 0; k < x.nnz(); ++k) {
        vec.entries.emplace_back(x.indices()[k], x.values()[k]);
        has_nan = has_nan || std::isnan(x.values()[k]);
      }
      if (has_nan) {
        vec.saw_nan = true;
        vec.nan_rows.push_back(static_cast<uint32_t>(r));
      }
      vec.row_end.push_back(static_cast<uint32_t>(vec.entries.size()));
      vec.labels.push_back(features.labels[r]);
    }
  }

  /// Live rows of the table block under the plan's logical schema; column
  /// types are the block's run-time types (numeric components widen
  /// integer columns they write to double).
  TableData ReadTable() const {
    const fusion::TableBlock& block = scratch_.table;
    const Schema& logical = plan_.schema();
    std::vector<Field> fields;
    std::vector<Column> columns;
    for (const Field& field : logical.fields()) {
      const fusion::BlockColumn& col =
          block.cols[std::move(plan_.SlotOf(field.name)).ValueOrDie()];
      fields.push_back(Field{field.name, col.type});
      Column column(col.type);
      for (size_t r = 0; r < block.num_rows; ++r) {
        if (block.keep[r] == 0) continue;
        if (col.IsNull(r)) {
          column.AppendNull();
          continue;
        }
        switch (col.type) {
          case ValueType::kDouble:
            column.AppendDouble(col.d[r]);
            break;
          case ValueType::kInt64:
          case ValueType::kTimestamp:
            column.AppendInt64(col.i[r]);
            break;
          case ValueType::kString:
            column.AppendString(col.s[r]);
            break;
          case ValueType::kNull:
            column.AppendNull();
            break;
        }
      }
      columns.push_back(std::move(column));
    }
    std::shared_ptr<const Schema> schema =
        std::move(Schema::Make(std::move(fields))).ValueOrDie();
    return std::move(TableData::Make(std::move(schema), std::move(columns)))
        .ValueOrDie();
  }

  Batch input_;
  std::vector<std::string> records_;
  fusion::PlanBuilder plan_;
  fusion::ExecScratch scratch_;
  fusion::ExecContext ctx_;
  FeatureData out_;
};

/// One component's stages over `input`, read back.
inline Result<Batch> RunTransform(const PipelineComponent& component,
                                  Batch input) {
  BlockRunner runner(std::move(input));
  CDPIPE_RETURN_NOT_OK(runner.Transform(component));
  return runner.Output();
}

/// One component's update barrier over `input`.
inline Status RunUpdate(PipelineComponent* component, Batch input) {
  BlockRunner runner(std::move(input));
  return runner.Update(component);
}

}  // namespace testing
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_TESTING_BLOCK_RUNNER_H_
