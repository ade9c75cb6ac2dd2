#include "src/pipeline/missing_value_imputer.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Feature-mode kernel: replaces NaN entries in the vector block in
/// place.  The parser records which rows contain a NaN (`nan_rows`); the
/// fill scan touches only those rows, and a block with none — the
/// overwhelmingly common case — is skipped entirely and counted as a
/// runtime elision.
class ImputeVecStage final : public fusion::FusedStage {
 public:
  explicit ImputeVecStage(const MissingValueImputer* imputer)
      : imputer_(imputer) {}

  const char* label() const override { return "missing_value_imputer"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::VecBlock& vec = ctx.scratch->vec;
    ctx.rows_scanned += vec.num_rows();
    if (!vec.saw_nan) {
      ++ctx.stages_elided;
      return Status::OK();
    }
    for (const uint32_t r : vec.nan_rows) {
      const uint32_t start = r > 0 ? vec.row_end[r - 1] : 0;
      const uint32_t stop = vec.row_end[r];
      for (uint32_t k = start; k < stop; ++k) {
        auto& entry = vec.entries[k];
        if (std::isnan(entry.second)) {
          entry.second = imputer_->MeanForDimension(entry.first);
        }
      }
    }
    vec.saw_nan = false;
    vec.nan_rows.clear();
    return Status::OK();
  }

 private:
  const MissingValueImputer* imputer_;
};

/// Table-mode kernel.  Fill values are snapshotted when the stage is built:
/// any statistics change bumps the pipeline state version, which
/// invalidates the plan, so the snapshot always matches the statistics.
/// Columns with no nulls in the block are skipped; a block where every
/// configured column is clean counts as an elision.  The fill value is
/// fractional in general, so integer columns widen to double first.
class ImputeTableStage final : public fusion::FusedStage {
 public:
  struct Fill {
    size_t slot;
    double value;
  };

  explicit ImputeTableStage(std::vector<Fill> fills)
      : fills_(std::move(fills)) {}

  const char* label() const override { return "missing_value_imputer"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    bool did_work = false;
    for (const Fill& fill : fills_) {
      fusion::BlockColumn& col = table.cols[fill.slot];
      if (!col.any_null) continue;
      did_work = true;
      col.PromoteToDouble();
      for (size_t r = 0; r < col.null.size(); ++r) {
        if (col.null[r]) col.d[r] = fill.value;
      }
      col.any_null = false;
    }
    if (!did_work) ++ctx.stages_elided;
    return Status::OK();
  }

 private:
  std::vector<Fill> fills_;
};

}  // namespace

MissingValueImputer::MissingValueImputer(Options options)
    : options_(std::move(options)) {}

Status MissingValueImputer::Update(const fusion::UpdateBlock& block) {
  using Repr = fusion::PlanBuilder::Repr;
  if (block.plan.repr() == Repr::kVec) {
    for (const auto& [index, value] : block.vec.entries) {
      if (std::isnan(value)) continue;
      RunningMean& rm = stats_[index];
      rm.count += 1;
      rm.sum += value;
    }
    return Status::OK();
  }
  if (block.plan.repr() != Repr::kTable) {
    return Status::FailedPrecondition(
        "imputer expects a table or vectorized block");
  }
  const fusion::TableBlock& table = block.table;
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot,
                            block.plan.SlotOf(options_.columns[c]));
    const fusion::BlockColumn& col = table.cols[slot];
    if (!col.is_numeric()) {
      return Status::FailedPrecondition("cannot impute non-numeric column " +
                                        options_.columns[c]);
    }
    RunningMean& rm = stats_[static_cast<uint32_t>(c)];
    for (size_t r = 0; r < table.num_rows; ++r) {
      if (table.keep[r] == 0 || col.IsNull(r)) continue;
      rm.count += 1;
      rm.sum += col.NumericAt(r);
    }
  }
  return Status::OK();
}

Status MissingValueImputer::Fuse(fusion::PlanBuilder* plan) const {
  using Repr = fusion::PlanBuilder::Repr;
  if (plan->repr() == Repr::kVec) {
    plan->AddStage(std::make_unique<ImputeVecStage>(this));
    return Status::OK();
  }
  if (plan->repr() != Repr::kTable) {
    return Status::FailedPrecondition(
        "imputer fuses only over a table or vectorized block");
  }
  if (options_.columns.empty()) {
    plan->AddElidedStage("missing_value_imputer");
    return Status::OK();
  }
  std::vector<ImputeTableStage::Fill> fills;
  fills.reserve(options_.columns.size());
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(options_.columns[c]));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot impute non-numeric column " +
                                        options_.columns[c]);
    }
    auto it = stats_.find(static_cast<uint32_t>(c));
    const double fill = it != stats_.end()
                            ? it->second.Mean(options_.default_value)
                            : options_.default_value;
    fills.push_back(ImputeTableStage::Fill{slot, fill});
  }
  plan->AddStage(std::make_unique<ImputeTableStage>(std::move(fills)));
  return Status::OK();
}

void MissingValueImputer::Reset() { stats_.clear(); }

std::unique_ptr<PipelineComponent> MissingValueImputer::Clone() const {
  auto out = std::make_unique<MissingValueImputer>(options_);
  out->stats_ = stats_;
  return out;
}

std::string MissingValueImputer::DescribeState() const {
  return StrFormat("means tracked for %zu dimensions", stats_.size());
}

Status MissingValueImputer::SaveState(Serializer* out) const {
  // Deterministic order: sort by dimension.
  std::vector<std::pair<uint32_t, RunningMean>> sorted(stats_.begin(),
                                                       stats_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint32_t> dims;
  std::vector<double> counts;
  std::vector<double> sums;
  dims.reserve(sorted.size());
  for (const auto& [dim, rm] : sorted) {
    dims.push_back(dim);
    counts.push_back(static_cast<double>(rm.count));
    sums.push_back(rm.sum);
  }
  out->WriteUint32Vector("imputer.dims", dims);
  out->WriteDoubleVector("imputer.counts", counts);
  out->WriteDoubleVector("imputer.sums", sums);
  return Status::OK();
}

Status MissingValueImputer::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(auto dims, in->ReadUint32Vector("imputer.dims"));
  CDPIPE_ASSIGN_OR_RETURN(auto counts, in->ReadDoubleVector("imputer.counts"));
  CDPIPE_ASSIGN_OR_RETURN(auto sums, in->ReadDoubleVector("imputer.sums"));
  if (dims.size() != counts.size() || dims.size() != sums.size()) {
    return Status::InvalidArgument("imputer state arrays misaligned");
  }
  stats_.clear();
  for (size_t i = 0; i < dims.size(); ++i) {
    stats_[dims[i]] = RunningMean{static_cast<int64_t>(counts[i]), sums[i]};
  }
  return Status::OK();
}

double MissingValueImputer::MeanForDimension(uint32_t dim) const {
  auto it = stats_.find(dim);
  if (it == stats_.end()) return options_.default_value;
  return it->second.Mean(options_.default_value);
}

}  // namespace cdpipe
