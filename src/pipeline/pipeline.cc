#include "src/pipeline/pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/engine/execution_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace {

obs::Histogram* ComponentHistogram(const std::string& component_name) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "pipeline.component." + component_name + ".transform_seconds");
}

/// Rows per transform shard / maximum shard fan-out for the parallel pure
/// path.  As with the gradient shards in linear_model.cc, the shard count
/// is a function of the row count ONLY (never the worker count) and shard
/// outputs are concatenated in ascending shard order, so serial and
/// parallel runs produce bit-identical features.
constexpr size_t kMinRowsPerTransformShard = 256;
constexpr size_t kMaxTransformShards = 64;

size_t NumTransformShards(size_t rows) {
  return std::clamp(rows / kMinRowsPerTransformShard, size_t{1},
                    kMaxTransformShards);
}

/// The pipeline's entry schema: a single string column named "raw".
const std::shared_ptr<const Schema>& RawSchema() {
  static const std::shared_ptr<const Schema> kRawSchema =
      std::move(Schema::Make({Field{"raw", ValueType::kString}})).ValueOrDie();
  return kRawSchema;
}

/// Rows that reach the next component: the raw records before the parser,
/// then the block's live rows.
size_t LiveRows(const fusion::PlanBuilder& plan,
                const fusion::ExecContext& ctx) {
  switch (plan.repr()) {
    case fusion::PlanBuilder::Repr::kRaw:
      return ctx.raw_rows();
    case fusion::PlanBuilder::Repr::kTable:
      return ctx.scratch->table.live_rows;
    case fusion::PlanBuilder::Repr::kVec:
      return ctx.scratch->vec.num_rows();
  }
  return 0;
}

struct ShardOutput {
  FeatureData features;
  size_t scanned = 0;
};

/// Fixed-order merge: concatenates shard outputs in ascending shard order.
Result<FeatureData> MergeShardOutputs(std::vector<ShardOutput> shards,
                                      size_t* rows_scanned) {
  FeatureData merged;
  merged.dim = shards.empty() ? 0 : shards[0].features.dim;
  size_t total = 0;
  for (const ShardOutput& s : shards) total += s.features.num_rows();
  merged.features.reserve(total);
  merged.labels.reserve(total);
  for (ShardOutput& s : shards) {
    if (s.features.dim != merged.dim) {
      return Status::Internal("transform shards disagree on feature dim");
    }
    std::move(s.features.features.begin(), s.features.features.end(),
              std::back_inserter(merged.features));
    merged.labels.insert(merged.labels.end(), s.features.labels.begin(),
                         s.features.labels.end());
    if (rows_scanned != nullptr) *rows_scanned += s.scanned;
  }
  return merged;
}

}  // namespace

Status Pipeline::AddComponent(std::unique_ptr<PipelineComponent> component) {
  if (component == nullptr) {
    return Status::InvalidArgument("component must not be null");
  }
  if (component->is_stateful() && !component->supports_online_statistics()) {
    return Status::FailedPrecondition(
        "component '" + component->name() +
        "' keeps statistics that cannot be computed incrementally; the "
        "platform does not support such components (paper, section 3.1)");
  }
  component_histograms_.push_back(ComponentHistogram(component->name()));
  component_names_.push_back(component->name());
  components_.push_back(std::move(component));
  // Structure changed: any cached plan is for a different pipeline.
  state_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Result<FeatureData> Pipeline::WalkChunk(
    const RawChunk& chunk, const std::vector<PipelineComponent*>& chain,
    size_t* rows_scanned) const {
  fusion::ScratchLease lease(scratch_pool_.get());
  fusion::PlanBuilder plan(*RawSchema());
  FeatureData out;
  fusion::ExecContext ctx;
  ctx.records = &chunk.records;
  ctx.begin = 0;
  ctx.end = chunk.records.size();
  ctx.scratch = lease.get();
  ctx.out = &out;
  // Statistics move at every barrier, so the chunk's stages get a serial
  // no statistics memo has seen.
  ctx.plan_serial = fusion::NextPlanSerial();
  for (size_t i = 0; i < chain.size(); ++i) {
    PipelineComponent* component = chain[i];
    CDPIPE_TRACE_SPAN(component_names_[i].c_str(), "pipeline");
    Stopwatch watch;
    if (component->is_stateful()) {
      ctx.rows_scanned += LiveRows(plan, ctx);  // the statistics-update scan
      CDPIPE_RETURN_NOT_OK(component->Update(fusion::UpdateBlock{
          plan, ctx.scratch->table, ctx.scratch->vec}));
    }
    CDPIPE_RETURN_NOT_OK(component->Fuse(&plan));
    CDPIPE_RETURN_NOT_OK(plan.RunPendingStages(ctx));
    component_histograms_[i]->Observe(watch.ElapsedSeconds());
  }
  CDPIPE_RETURN_NOT_OK(plan.AddSink());
  CDPIPE_RETURN_NOT_OK(plan.RunPendingStages(ctx));
  CDPIPE_RETURN_NOT_OK(fusion::FinishBlock(ctx, rows_scanned));
  return out;
}

Result<FeatureData> Pipeline::UpdateAndTransform(const RawChunk& chunk,
                                                 size_t* rows_scanned) {
  // Invalidate cached plans before the first statistic moves.
  state_version_.fetch_add(1, std::memory_order_acq_rel);
  std::vector<PipelineComponent*> chain;
  chain.reserve(components_.size());
  for (const auto& component : components_) chain.push_back(component.get());
  return WalkChunk(chunk, chain, rows_scanned);
}

Result<FeatureData> Pipeline::TransformRecomputingStatistics(
    const RawChunk& chunk, size_t* rows_scanned) const {
  // Without online statistics computation the platform has to rescan the
  // chunk to rebuild each stateful component's statistics before
  // transforming it: each one is swapped for a reset clone.
  std::vector<std::unique_ptr<PipelineComponent>> scratch;
  std::vector<PipelineComponent*> chain;
  chain.reserve(components_.size());
  for (const auto& component : components_) {
    if (component->is_stateful()) {
      scratch.push_back(component->Clone());
      scratch.back()->Reset();
      chain.push_back(scratch.back().get());
    } else {
      chain.push_back(component.get());
    }
  }
  return WalkChunk(chunk, chain, rows_scanned);
}

Result<FeatureData> Pipeline::Transform(const RawChunk& chunk,
                                        size_t* rows_scanned) const {
  return Transform(chunk, /*engine=*/nullptr, rows_scanned);
}

Result<FeatureData> Pipeline::Transform(const RawChunk& chunk,
                                        ExecutionEngine* engine,
                                        size_t* rows_scanned) const {
  CDPIPE_TRACE_SPAN("pipeline.fused_transform", "pipeline");
  CDPIPE_ASSIGN_OR_RETURN(
      std::shared_ptr<const fusion::FusedPlan> plan,
      plan_cache_->GetOrCompile(components_, *RawSchema(), state_version()));
  const size_t rows = chunk.records.size();
  const size_t num_shards = NumTransformShards(rows);
  if (engine == nullptr || engine->num_threads() <= 1 || num_shards <= 1) {
    FeatureData out;
    fusion::ScratchLease lease(scratch_pool_.get());
    CDPIPE_RETURN_NOT_OK(plan->Execute(chunk.records, 0, rows, lease.get(),
                                       &out, rows_scanned));
    return out;
  }
  // Shard boundaries depend on the row count only: the first `remainder`
  // shards take one extra row.
  const size_t base = rows / num_shards;
  const size_t remainder = rows % num_shards;
  std::vector<ShardOutput> shards(num_shards);
  CDPIPE_RETURN_NOT_OK(
      engine->ParallelFor(num_shards, [&](size_t s) -> Status {
        const size_t begin = s * base + std::min(s, remainder);
        const size_t end = begin + base + (s < remainder ? 1 : 0);
        ShardOutput& out = shards[s];
        out.scanned = 0;  // overwritten wholesale: the task is
        out.features = FeatureData{};  // retry-idempotent
        fusion::ScratchLease lease(scratch_pool_.get());
        return plan->Execute(chunk.records, begin, end, lease.get(),
                             &out.features, &out.scanned);
      }));
  return MergeShardOutputs(std::move(shards), rows_scanned);
}

std::unique_ptr<Pipeline> Pipeline::Clone() const {
  auto out = std::make_unique<Pipeline>();
  for (size_t i = 0; i < components_.size(); ++i) {
    out->component_histograms_.push_back(component_histograms_[i]);
    out->component_names_.push_back(component_names_[i]);
    out->components_.push_back(components_[i]->Clone());
  }
  return out;
}

void Pipeline::Reset() {
  state_version_.fetch_add(1, std::memory_order_acq_rel);
  for (const auto& component : components_) component->Reset();
}

Status Pipeline::SaveState(Serializer* out) const {
  out->WriteInt("pipeline.num_components",
                static_cast<int64_t>(components_.size()));
  for (const auto& component : components_) {
    out->WriteString("pipeline.component", component->name());
    CDPIPE_RETURN_NOT_OK(component->SaveState(out));
  }
  return Status::OK();
}

Status Pipeline::LoadState(Deserializer* in) {
  // Invalidate cached fused plans before any component statistic is
  // replaced (a partially applied load must not reuse old plans either).
  state_version_.fetch_add(1, std::memory_order_acq_rel);
  CDPIPE_ASSIGN_OR_RETURN(int64_t count,
                          in->ReadInt("pipeline.num_components"));
  if (count != static_cast<int64_t>(components_.size())) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) +
        " components, pipeline has " + std::to_string(components_.size()));
  }
  for (const auto& component : components_) {
    CDPIPE_ASSIGN_OR_RETURN(std::string name,
                            in->ReadString("pipeline.component"));
    if (name != component->name()) {
      return Status::InvalidArgument("checkpoint component '" + name +
                                     "' does not match pipeline component '" +
                                     component->name() + "'");
    }
    CDPIPE_RETURN_NOT_OK(component->LoadState(in));
  }
  return Status::OK();
}

std::string Pipeline::ToString() const {
  std::string out = "Pipeline[";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += components_[i]->name();
  }
  out += "]";
  return out;
}

}  // namespace cdpipe
