#ifndef CDPIPE_PERFBENCH_DRIVER_REPLAY_H_
#define CDPIPE_PERFBENCH_DRIVER_REPLAY_H_

// One replay of a workload's fixed stream, in either of two modes:
//
//  - untraced: through the public Deployment API (ContinuousDeployment +
//    InitialTrain + Run), timed only around setup and the whole replay;
//  - traced: a replica of Deployment::Run's per-chunk protocol that calls
//    the layers (DataManager, PipelineManager) directly and records a span
//    around every call, followed by a serving probe of the final model
//    (SnapshotPublisher, PredictionService) outside the timed replay.
//
// Both modes must end in the same prequential error and total work, bit
// for bit; the caller compares them.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/driver/workload.h"
#include "src/common/status.h"
#include "src/storage/chunk_store.h"

namespace cdpipe {
namespace perfbench {

/// The calls the traced replica wraps in spans.  kChunk is the whole
/// per-chunk protocol; every other span is nested inside one.
enum class SpanName : uint8_t {
  kChunk,
  kIngest,          // DataManager::IngestChunk (spill writes happen here)
  kPreprocess,      // PipelineManager::PreprocessChunk
  kEvaluate,        // PipelineManager::EvaluateFeatures
  kOnlineUpdate,    // PipelineManager::OnlineUpdate
  kStoreFeatures,   // DataManager::StoreFeatures (eviction included)
  kProactiveIter,   // sample + rematerialize + train step
  kSample,          // DataManager::SampleForTraining (disk fetch included)
  kRemat,           // PipelineManager::Rematerialize fan-out
  kTrainStep,       // PipelineManager::TrainStep
  kPrefetch,        // DataManager::PrefetchForNextSample
  kNumSpans,
};

const char* SpanNameString(SpanName name);

struct ReplayResult {
  std::string mode;
  /// Wall-clock and process CPU seconds of the setup and of the replay.
  double setup_s = 0;
  double setup_cpu_s = 0;
  double replay_s = 0;
  double replay_cpu_s = 0;
  double peak_rss_mb = 0;
  int64_t chunks = 0;
  int64_t chunks_processed = 0;
  int64_t degraded = 0;
  double prequential_error = 0;
  int64_t total_work = 0;
  int64_t remat_chunks = 0;
  ChunkStore::Counters storage;
  // Traced mode only.
  /// The after-replay serving probe of the final model.
  LoadResult load;
  std::array<std::vector<double>, static_cast<size_t>(SpanName::kNumSpans)>
      span_us;
  /// Per chunk: time of the chunk span not covered by its child spans.
  std::vector<double> chunk_self_us;
};

Result<ReplayResult> RunUntraced(const WorkloadSpec& spec,
                                 const Inputs& inputs,
                                 const std::string& spill_dir);

/// `spans_out`, when not empty, receives the replay's spans as a Chrome
/// trace (chrome://tracing / ui.perfetto.dev).
Result<ReplayResult> RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
                               const std::string& spill_dir,
                               const std::string& spans_out);

}  // namespace perfbench
}  // namespace cdpipe

#endif  // CDPIPE_PERFBENCH_DRIVER_REPLAY_H_
