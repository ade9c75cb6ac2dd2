#include "src/pipeline/standard_scaler.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {
namespace {

constexpr double kMinStdDev = StandardScaler::kMinStdDev;

/// Feature-mode kernel.  The (mean, σ) memo lives in the per-thread
/// scratch, keyed by (scaler, plan serial): it persists across blocks for
/// the lifetime of one plan — statistics changes recompile the plan (or
/// start the next chunk's online walk) with a fresh serial, which
/// invalidates it.  Division stays per value ((x - μ) / σ, never a
/// precomputed reciprocal), so memoized and direct lookups agree bit for
/// bit.
class ScaleVecStage final : public fusion::FusedStage {
 public:
  ScaleVecStage(const StandardScaler* scaler, bool with_mean)
      : scaler_(scaler), with_mean_(with_mean) {}

  const char* label() const override { return "standard_scaler"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::VecBlock& vec = ctx.scratch->vec;
    ctx.rows_scanned += vec.num_rows();
    const uint32_t dim = vec.dim;
    if (dim <= (1u << 20)) {
      fusion::StatsMemo& memo = ctx.scratch->scaler_memo;
      if (!with_mean_) {
        // σ-only memo: 8 bytes per dimension keeps the random lookups
        // L1-resident at typical hashed dims (σ alone decides the scale
        // when the mean is not subtracted).
        memo.BindSd(scaler_, ctx.plan_serial, dim);
        for (auto& entry : vec.entries) {
          double sd = memo.sd[entry.first];
          if (sd < 0.0) {
            sd = scaler_->StdDevOf(entry.first);
            memo.sd[entry.first] = sd;
            memo.filled.push_back(entry.first);
          }
          if (sd > kMinStdDev) entry.second = entry.second / sd;
        }
        return Status::OK();
      }
      memo.BindEntries(scaler_, ctx.plan_serial, dim);
      for (auto& entry : vec.entries) {
        fusion::StatsMemo::Entry& m = memo.entries[entry.first];
        if (!m.seen) {
          m.seen = 1;
          m.mean = scaler_->MeanOf(entry.first);
          m.sd = scaler_->StdDevOf(entry.first);
          memo.filled.push_back(entry.first);
        }
        const double centered = entry.second - m.mean;
        entry.second = m.sd > kMinStdDev ? centered / m.sd : centered;
      }
      return Status::OK();
    }
    for (auto& entry : vec.entries) {
      const double sd = scaler_->StdDevOf(entry.first);
      const double centered =
          with_mean_ ? entry.second - scaler_->MeanOf(entry.first)
                     : entry.second;
      entry.second = sd > kMinStdDev ? centered / sd : centered;
    }
    return Status::OK();
  }

 private:
  const StandardScaler* scaler_;
  bool with_mean_;
};

/// Table-mode kernel.  (mean, σ) per configured column are snapshotted
/// when the stage is built — valid for the plan's lifetime by the same
/// invalidation argument as above.  Integer columns widen to double first
/// (scaled cells are fractional).  Division stays per-cell and dead
/// (filtered) rows are scaled harmlessly: their cells are never read.
class ScaleTableStage final : public fusion::FusedStage {
 public:
  struct ColScale {
    size_t slot;
    double mean;
    double sd;
  };

  explicit ScaleTableStage(std::vector<ColScale> cols)
      : cols_(std::move(cols)) {}

  const char* label() const override { return "standard_scaler"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    for (const ColScale& cs : cols_) {
      fusion::BlockColumn& col = table.cols[cs.slot];
      col.PromoteToDouble();
      const size_t rows = col.d.size();
      if (cs.sd > kMinStdDev) {
        if (!col.any_null) {
          for (size_t r = 0; r < rows; ++r) {
            col.d[r] = (col.d[r] - cs.mean) / cs.sd;
          }
        } else {
          for (size_t r = 0; r < rows; ++r) {
            if (col.null[r]) continue;
            col.d[r] = (col.d[r] - cs.mean) / cs.sd;
          }
        }
      } else {
        if (!col.any_null) {
          for (size_t r = 0; r < rows; ++r) col.d[r] = col.d[r] - cs.mean;
        } else {
          for (size_t r = 0; r < rows; ++r) {
            if (col.null[r]) continue;
            col.d[r] = col.d[r] - cs.mean;
          }
        }
      }
    }
    return Status::OK();
  }

 private:
  std::vector<ColScale> cols_;
};

}  // namespace

StandardScaler::StandardScaler(Options options)
    : options_(std::move(options)) {}

Status StandardScaler::Update(const fusion::UpdateBlock& block) {
  using Repr = fusion::PlanBuilder::Repr;
  if (block.plan.repr() == Repr::kVec) {
    total_rows_ += static_cast<int64_t>(block.vec.num_rows());
    for (const auto& [index, value] : block.vec.entries) {
      if (std::isnan(value)) continue;  // imputation happens upstream
      Moments& m = stats_[index];
      m.sum += value;
      m.sum_squares += value * value;
    }
    return Status::OK();
  }
  if (block.plan.repr() != Repr::kTable) {
    return Status::FailedPrecondition(
        "scaler expects a table or vectorized block");
  }
  const fusion::TableBlock& table = block.table;
  table_mode_seen_ = true;
  total_rows_ += static_cast<int64_t>(table.live_rows);
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot,
                            block.plan.SlotOf(options_.columns[c]));
    const fusion::BlockColumn& col = table.cols[slot];
    if (!col.is_numeric()) {
      return Status::FailedPrecondition("cannot scale non-numeric column " +
                                        options_.columns[c]);
    }
    Moments& m = stats_[static_cast<uint32_t>(c)];
    int64_t& count = column_counts_[static_cast<uint32_t>(c)];
    for (size_t r = 0; r < table.num_rows; ++r) {
      if (table.keep[r] == 0 || col.IsNull(r)) continue;
      const double d = col.NumericAt(r);
      m.sum += d;
      m.sum_squares += d * d;
      ++count;
    }
  }
  return Status::OK();
}

double StandardScaler::MeanOf(uint32_t key) const {
  auto it = stats_.find(key);
  if (it == stats_.end()) return 0.0;
  int64_t n = total_rows_;
  if (table_mode_seen_) {
    auto cit = column_counts_.find(key);
    n = cit != column_counts_.end() ? cit->second : 0;
  }
  if (n <= 0) return 0.0;
  return it->second.sum / static_cast<double>(n);
}

double StandardScaler::VarianceOf(uint32_t key) const {
  auto it = stats_.find(key);
  if (it == stats_.end()) return 0.0;
  int64_t n = total_rows_;
  if (table_mode_seen_) {
    auto cit = column_counts_.find(key);
    n = cit != column_counts_.end() ? cit->second : 0;
  }
  if (n <= 0) return 0.0;
  const double mean = it->second.sum / static_cast<double>(n);
  const double var =
      it->second.sum_squares / static_cast<double>(n) - mean * mean;
  return var > 0.0 ? var : 0.0;
}

double StandardScaler::StdDevOf(uint32_t key) const {
  return std::sqrt(VarianceOf(key));
}

Status StandardScaler::Fuse(fusion::PlanBuilder* plan) const {
  using Repr = fusion::PlanBuilder::Repr;
  // With no moments accumulated yet, MeanOf/StdDevOf return 0.0 for every
  // key: centered = x - 0.0 ≡ x bitwise (including -0.0 and NaN) and σ=0
  // skips the division, so the whole stage is an identity and is elided.
  // (Integer table columns then keep their type; downstream stages read
  // cells numerically, so the feature output is unaffected.)
  if (plan->repr() == Repr::kVec) {
    if (stats_.empty()) {
      plan->AddElidedStage("standard_scaler");
    } else {
      plan->AddStage(std::make_unique<ScaleVecStage>(this, options_.with_mean));
    }
    return Status::OK();
  }
  if (plan->repr() != Repr::kTable) {
    return Status::FailedPrecondition(
        "scaler fuses only over a table or vectorized block");
  }
  if (options_.columns.empty() || stats_.empty()) {
    plan->AddElidedStage("standard_scaler");
    return Status::OK();
  }
  std::vector<ScaleTableStage::ColScale> cols;
  cols.reserve(options_.columns.size());
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(options_.columns[c]));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot scale non-numeric column " +
                                        options_.columns[c]);
    }
    const uint32_t key = static_cast<uint32_t>(c);
    cols.push_back(ScaleTableStage::ColScale{slot, MeanOf(key), StdDevOf(key)});
  }
  plan->AddStage(std::make_unique<ScaleTableStage>(std::move(cols)));
  return Status::OK();
}

void StandardScaler::Reset() {
  stats_.clear();
  column_counts_.clear();
  total_rows_ = 0;
  table_mode_seen_ = false;
}

std::unique_ptr<PipelineComponent> StandardScaler::Clone() const {
  auto out = std::make_unique<StandardScaler>(options_);
  out->total_rows_ = total_rows_;
  out->stats_ = stats_;
  out->column_counts_ = column_counts_;
  out->table_mode_seen_ = table_mode_seen_;
  return out;
}

Status StandardScaler::SaveState(Serializer* out) const {
  out->WriteInt("scaler.total_rows", total_rows_);
  out->WriteInt("scaler.table_mode", table_mode_seen_ ? 1 : 0);
  std::vector<std::pair<uint32_t, Moments>> sorted(stats_.begin(),
                                                   stats_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint32_t> keys;
  std::vector<double> sums;
  std::vector<double> sum_squares;
  for (const auto& [key, m] : sorted) {
    keys.push_back(key);
    sums.push_back(m.sum);
    sum_squares.push_back(m.sum_squares);
  }
  out->WriteUint32Vector("scaler.keys", keys);
  out->WriteDoubleVector("scaler.sums", sums);
  out->WriteDoubleVector("scaler.sum_squares", sum_squares);
  std::vector<std::pair<uint32_t, double>> counts;
  for (const auto& [key, count] : column_counts_) {
    counts.emplace_back(key, static_cast<double>(count));
  }
  std::sort(counts.begin(), counts.end());
  out->WritePairs("scaler.column_counts", counts);
  return Status::OK();
}

Status StandardScaler::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(total_rows_, in->ReadInt("scaler.total_rows"));
  CDPIPE_ASSIGN_OR_RETURN(int64_t table_mode,
                          in->ReadInt("scaler.table_mode"));
  table_mode_seen_ = table_mode != 0;
  CDPIPE_ASSIGN_OR_RETURN(auto keys, in->ReadUint32Vector("scaler.keys"));
  CDPIPE_ASSIGN_OR_RETURN(auto sums, in->ReadDoubleVector("scaler.sums"));
  CDPIPE_ASSIGN_OR_RETURN(auto sum_squares,
                          in->ReadDoubleVector("scaler.sum_squares"));
  if (keys.size() != sums.size() || keys.size() != sum_squares.size()) {
    return Status::InvalidArgument("scaler state arrays misaligned");
  }
  stats_.clear();
  for (size_t i = 0; i < keys.size(); ++i) {
    stats_[keys[i]] = Moments{sums[i], sum_squares[i]};
  }
  CDPIPE_ASSIGN_OR_RETURN(auto counts, in->ReadPairs("scaler.column_counts"));
  column_counts_.clear();
  for (const auto& [key, count] : counts) {
    column_counts_[key] = static_cast<int64_t>(count);
  }
  return Status::OK();
}

std::string StandardScaler::DescribeState() const {
  return StrFormat("moments for %zu dimensions over %lld rows", stats_.size(),
                   static_cast<long long>(total_rows_));
}

}  // namespace cdpipe
