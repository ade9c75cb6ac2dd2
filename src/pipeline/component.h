#ifndef CDPIPE_PIPELINE_COMPONENT_H_
#define CDPIPE_PIPELINE_COMPONENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/io/serialization.h"

namespace cdpipe {

namespace fusion {
class PlanBuilder;
struct UpdateBlock;
}  // namespace fusion

/// A stage of a deployed machine learning pipeline.
///
/// Per §4.3 of the paper, every component implements two methods, both
/// over the block representation of src/pipeline/fusion:
///
///  - `Update`: incrementally folds a block into the component's internal
///    statistics (the *online statistics computation* optimization).  Called
///    exactly once per arriving training chunk, on the online path, at the
///    component's update barrier — after every upstream stage has run and
///    before the component's own stages.  Never called during
///    re-materialization or inference.
///  - `Fuse`: contributes the block kernel(s) that apply the component
///    using the current statistics.  Kernels must not mutate statistics, so
///    the same features are produced for training data and prediction
///    queries (train/serve consistency) and evicted feature chunks can be
///    re-materialized at any later time.
///
/// Components whose statistics cannot be maintained incrementally (exact
/// percentiles, PCA, ...) are outside the platform's contract (§3.1); the
/// `supports_online_statistics` flag exists so such a component can be
/// rejected at pipeline construction time.
class PipelineComponent {
 public:
  virtual ~PipelineComponent() = default;

  virtual std::string name() const = 0;

  /// True when the component maintains statistics (is stateful).
  virtual bool is_stateful() const { return false; }

  /// True when the statistics can be folded in incrementally.  Stateless
  /// components trivially support this.  The Pipeline refuses stateful
  /// components that return false here.
  virtual bool supports_online_statistics() const { return true; }

  /// Incrementally updates internal statistics from the live rows of
  /// `block`, in ascending row order.
  virtual Status Update(const fusion::UpdateBlock& block) {
    (void)block;
    return Status::OK();
  }

  /// Contributes this component's block kernel(s) to the plan under
  /// construction (see src/pipeline/fusion/fusion.h): resolves columns,
  /// snapshots dispatch decisions and statistics, and appends stages.  A
  /// configuration the kernels cannot express (wrong representation,
  /// missing or non-numeric column) returns an error, which the pipeline's
  /// Transform / UpdateAndTransform report as is.  Must be const: the
  /// platform compiles plans concurrently with serving.
  virtual Status Fuse(fusion::PlanBuilder* plan) const = 0;

  /// Discards all statistics, returning the component to its initial state.
  virtual void Reset() {}

  /// Deep copy, including statistics.  Used for warm starting and for the
  /// NoOptimization baseline (which recomputes statistics on throwaway
  /// clones).
  virtual std::unique_ptr<PipelineComponent> Clone() const = 0;

  /// One-line human-readable summary of the statistics (for reports).
  virtual std::string DescribeState() const { return "(stateless)"; }

  /// Checkpointing: persists / restores the component's statistics.
  /// Stateless components have nothing to save.  Configuration is NOT
  /// saved — the loader must reconstruct the same pipeline structure first.
  virtual Status SaveState(Serializer* out) const {
    (void)out;
    return Status::OK();
  }
  virtual Status LoadState(Deserializer* in) {
    (void)in;
    return Status::OK();
  }
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_COMPONENT_H_
