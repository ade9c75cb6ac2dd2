#include "src/pipeline/zscore_anomaly_detector.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Detector kernel.  The per-column mean and |x - mean| limit are
/// snapshotted when the stage is built: any statistics change bumps the
/// pipeline state version, which invalidates the plan, so the snapshot
/// always matches the statistics.  Uncalibrated and constant columns are
/// left out of the snapshot (they never vote); a row survives when no
/// column flags it, and null cells never vote to drop.
class ZScoreTableStage final : public fusion::FusedStage {
 public:
  struct ColLimit {
    size_t slot;
    double mean;
    double limit;
  };

  ZScoreTableStage(const ZScoreAnomalyDetector* detector,
                   std::vector<ColLimit> cols)
      : detector_(detector), cols_(std::move(cols)) {}

  const char* label() const override { return "zscore_anomaly_detector"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    ctx.rows_scanned += table.live_rows;
    size_t dropped = 0;
    for (const ColLimit& cl : cols_) {
      const fusion::BlockColumn& col = table.cols[cl.slot];
      for (size_t r = 0; r < table.num_rows; ++r) {
        if (table.keep[r] == 0) continue;
        if (col.IsNull(r)) continue;  // null never votes to drop
        if (std::abs(col.NumericAt(r) - cl.mean) > cl.limit) {
          table.keep[r] = 0;
          --table.live_rows;
          ++dropped;
        }
      }
    }
    if (dropped > 0) detector_->RecordDropped(dropped);
    return Status::OK();
  }

 private:
  const ZScoreAnomalyDetector* detector_;
  std::vector<ColLimit> cols_;
};

}  // namespace

ZScoreAnomalyDetector::ZScoreAnomalyDetector(Options options)
    : options_(std::move(options)), stats_(options_.columns.size()) {
  CDPIPE_CHECK(!options_.columns.empty());
  CDPIPE_CHECK_GT(options_.threshold, 0.0);
}

Status ZScoreAnomalyDetector::Update(const fusion::UpdateBlock& block) {
  if (block.plan.repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition(
        "zscore_anomaly_detector expects a table batch");
  }
  const fusion::TableBlock& table = block.table;
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot,
                            block.plan.SlotOf(options_.columns[c]));
    const fusion::BlockColumn& col = table.cols[slot];
    if (!col.is_numeric()) {
      return Status::FailedPrecondition(
          "cannot compute z-scores for non-numeric column " +
          options_.columns[c]);
    }
    Welford& w = stats_[c];
    for (size_t r = 0; r < table.num_rows; ++r) {
      if (table.keep[r] == 0 || col.IsNull(r)) continue;
      w.Add(col.NumericAt(r));
    }
  }
  return Status::OK();
}

Status ZScoreAnomalyDetector::Fuse(fusion::PlanBuilder* plan) const {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition(
        "zscore_anomaly_detector expects a table batch");
  }
  std::vector<ZScoreTableStage::ColLimit> cols;
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(options_.columns[c]));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition(
          "cannot compute z-scores for non-numeric column " +
          options_.columns[c]);
    }
    const Welford& w = stats_[c];
    if (w.count < options_.min_observations) continue;  // not calibrated
    const double sd = std::sqrt(w.Variance());
    if (sd <= 0.0) continue;  // constant column: nothing is anomalous
    cols.push_back(
        ZScoreTableStage::ColLimit{slot, w.mean, options_.threshold * sd});
  }
  if (cols.empty()) {
    // No column is calibrated yet: provably a no-op on every row.
    plan->AddElidedStage("zscore_anomaly_detector");
    return Status::OK();
  }
  plan->AddStage(std::make_unique<ZScoreTableStage>(this, std::move(cols)));
  return Status::OK();
}

void ZScoreAnomalyDetector::Reset() {
  for (Welford& w : stats_) w = Welford{};
}

std::unique_ptr<PipelineComponent> ZScoreAnomalyDetector::Clone() const {
  auto out = std::make_unique<ZScoreAnomalyDetector>(options_);
  out->stats_ = stats_;
  out->dropped_.store(dropped_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return out;
}

std::string ZScoreAnomalyDetector::DescribeState() const {
  std::string out = StrFormat("threshold=%.1f sigma;", options_.threshold);
  for (size_t c = 0; c < options_.columns.size(); ++c) {
    out += StrFormat(" %s: n=%lld mean=%.3g sd=%.3g",
                     options_.columns[c].c_str(),
                     static_cast<long long>(stats_[c].count), stats_[c].mean,
                     std::sqrt(stats_[c].Variance()));
  }
  return out;
}

Status ZScoreAnomalyDetector::SaveState(Serializer* out) const {
  out->WriteInt("zscore.num_columns",
                static_cast<int64_t>(stats_.size()));
  std::vector<double> counts;
  std::vector<double> means;
  std::vector<double> m2s;
  for (const Welford& w : stats_) {
    counts.push_back(static_cast<double>(w.count));
    means.push_back(w.mean);
    m2s.push_back(w.m2);
  }
  out->WriteDoubleVector("zscore.counts", counts);
  out->WriteDoubleVector("zscore.means", means);
  out->WriteDoubleVector("zscore.m2s", m2s);
  return Status::OK();
}

Status ZScoreAnomalyDetector::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(int64_t num_columns,
                          in->ReadInt("zscore.num_columns"));
  if (num_columns != static_cast<int64_t>(stats_.size())) {
    return Status::InvalidArgument(
        "z-score checkpoint has a different number of columns");
  }
  CDPIPE_ASSIGN_OR_RETURN(auto counts, in->ReadDoubleVector("zscore.counts"));
  CDPIPE_ASSIGN_OR_RETURN(auto means, in->ReadDoubleVector("zscore.means"));
  CDPIPE_ASSIGN_OR_RETURN(auto m2s, in->ReadDoubleVector("zscore.m2s"));
  if (counts.size() != stats_.size() || means.size() != stats_.size() ||
      m2s.size() != stats_.size()) {
    return Status::InvalidArgument("z-score state arrays misaligned");
  }
  for (size_t c = 0; c < stats_.size(); ++c) {
    stats_[c].count = static_cast<int64_t>(counts[c]);
    stats_[c].mean = means[c];
    stats_[c].m2 = m2s[c];
  }
  return Status::OK();
}

double ZScoreAnomalyDetector::MeanOf(size_t column) const {
  CDPIPE_CHECK_LT(column, stats_.size());
  return stats_[column].mean;
}

double ZScoreAnomalyDetector::StdDevOf(size_t column) const {
  CDPIPE_CHECK_LT(column, stats_.size());
  return std::sqrt(stats_[column].Variance());
}

int64_t ZScoreAnomalyDetector::CountOf(size_t column) const {
  CDPIPE_CHECK_LT(column, stats_.size());
  return stats_[column].count;
}

}  // namespace cdpipe
