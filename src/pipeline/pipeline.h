#ifndef CDPIPE_PIPELINE_PIPELINE_H_
#define CDPIPE_PIPELINE_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/pipeline/component.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

class ExecutionEngine;

namespace obs {
class Histogram;
}  // namespace obs

/// An ordered sequence of pipeline components ending in a vectorizing stage,
/// i.e. the full preprocessing part of a deployed ML pipeline.  The model is
/// deliberately *not* part of this class — it is attached by the
/// PipelineManager so the platform can swap training strategies without
/// touching preprocessing.
///
/// The pipeline owns its components.  Statistics live inside the components;
/// the two entry points mirror the paper's two data paths, and both run
/// the components' block kernels (src/pipeline/fusion):
///
///  - `UpdateAndTransform` — the online path for arriving training chunks:
///    every component first folds the chunk into its statistics, then
///    transforms it (online statistics computation, §3.1).
///  - `Transform` — the pure path for prediction queries and for
///    re-materializing evicted feature chunks (§3.2): statistics are only
///    read, never written, so replayed historical data cannot skew them.
class Pipeline {
 public:
  Pipeline() = default;

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  // Manual moves: the statistics version is an atomic (non-movable); the
  // plan cache and scratch pool move by pointer.
  Pipeline(Pipeline&& other) noexcept
      : components_(std::move(other.components_)),
        component_histograms_(std::move(other.component_histograms_)),
        component_names_(std::move(other.component_names_)),
        state_version_(
            other.state_version_.load(std::memory_order_relaxed)),
        plan_cache_(std::move(other.plan_cache_)),
        scratch_pool_(std::move(other.scratch_pool_)) {}
  Pipeline& operator=(Pipeline&& other) noexcept {
    components_ = std::move(other.components_);
    component_histograms_ = std::move(other.component_histograms_);
    component_names_ = std::move(other.component_names_);
    state_version_.store(other.state_version_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    plan_cache_ = std::move(other.plan_cache_);
    scratch_pool_ = std::move(other.scratch_pool_);
    return *this;
  }

  /// Appends a component.  Fails with FailedPrecondition if the component is
  /// stateful but does not support online statistics computation (§3.1: the
  /// platform does not support such components).
  Status AddComponent(std::unique_ptr<PipelineComponent> component);

  size_t num_components() const { return components_.size(); }
  const PipelineComponent& component(size_t i) const { return *components_[i]; }

  /// Online path: one walk down the chain over a single block covering the
  /// whole chunk.  At each stateful component an update barrier folds the
  /// block's live rows into its statistics; then the component's stages
  /// run on the block.  Output must be FeatureData (the pipeline must end
  /// in a vectorizing stage).  `rows_scanned`, when non-null, accumulates
  /// the number of (row × component) scans performed, for cost accounting:
  /// one transform scan per component plus one update scan per stateful
  /// component, over the rows that reach it.  The walk's stages are built
  /// per chunk and bypass the plan cache; the call advances the statistics
  /// version that invalidates cached plans.
  Result<FeatureData> UpdateAndTransform(const RawChunk& chunk,
                                         size_t* rows_scanned = nullptr);

  /// Pure path: Transform only, through the cached compiled plan.  Used
  /// for prediction queries and dynamic re-materialization.
  Result<FeatureData> Transform(const RawChunk& chunk,
                                size_t* rows_scanned = nullptr) const;

  /// Pure path, parallelized across row ranges of `chunk` on `engine`.
  /// Statistics are frozen on this path and every component transforms rows
  /// independently, so the chunk is split into shards whose count is a
  /// function of the row count ONLY (mirroring the sharded gradient path in
  /// linear_model.cc) and the per-shard outputs are concatenated in shard
  /// order — the result is bit-identical to the serial overload for any
  /// engine thread count.  Must not be called from inside an engine task
  /// (the pool does not nest).  Runs serially for small chunks or a
  /// single-threaded engine.
  Result<FeatureData> Transform(const RawChunk& chunk, ExecutionEngine* engine,
                                size_t* rows_scanned = nullptr) const;

  /// The NoOptimization baseline (§5.4): processes the chunk as if online
  /// statistics computation did not exist — the same walk as
  /// UpdateAndTransform, but each stateful component's statistics are
  /// recomputed from scratch *for this chunk* on a throwaway reset clone
  /// (one extra scan per stateful component).  The deployed statistics are
  /// not touched; stateless components (and their drop counters) are the
  /// deployed ones.
  Result<FeatureData> TransformRecomputingStatistics(
      const RawChunk& chunk, size_t* rows_scanned = nullptr) const;

  /// Deep copy of the pipeline including component statistics (warm start).
  std::unique_ptr<Pipeline> Clone() const;

  /// Resets the statistics of every component.
  void Reset();

  std::string ToString() const;

  /// Checkpointing: persists / restores the statistics of every component.
  /// The loader must have built an identically structured pipeline; the
  /// component names are verified.
  Status SaveState(Serializer* out) const;
  Status LoadState(Deserializer* in);

  /// Statistics version: advanced before anything that may mutate component
  /// state (online updates, reset, checkpoint restore).  Fused plans are
  /// compiled against a version and never reused across a bump, so a plan
  /// can never apply stale statistics.
  uint64_t state_version() const {
    return state_version_.load(std::memory_order_acquire);
  }

  /// Fused-plan cache introspection (tests, reports).  Never null on a
  /// live pipeline.
  const fusion::PlanCache* plan_cache() const { return plan_cache_.get(); }

 private:
  /// The online walk shared by UpdateAndTransform and
  /// TransformRecomputingStatistics.  `chain[i]` stands at position i: the
  /// deployed component, or a throwaway clone of it.  Every stateful
  /// `chain[i]` folds the block in at its update barrier.
  Result<FeatureData> WalkChunk(const RawChunk& chunk,
                                const std::vector<PipelineComponent*>& chain,
                                size_t* rows_scanned) const;

  std::vector<std::unique_ptr<PipelineComponent>> components_;
  /// Parallel to components_: per-component transform-latency histograms
  /// ("pipeline.component.<Name>.transform_seconds") in the global metrics
  /// registry.  Components of the same name share one histogram.
  std::vector<obs::Histogram*> component_histograms_;
  /// Parallel to components_: names materialized once at AddComponent time
  /// so per-call stage resolution never re-allocates them.
  std::vector<std::string> component_names_;
  std::atomic<uint64_t> state_version_{0};
  std::unique_ptr<fusion::PlanCache> plan_cache_ =
      std::make_unique<fusion::PlanCache>();
  std::unique_ptr<fusion::ScratchPool> scratch_pool_ =
      std::make_unique<fusion::ScratchPool>();
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_PIPELINE_H_
