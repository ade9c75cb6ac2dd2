#ifndef CDPIPE_PERFBENCH_DRIVER_WORKLOAD_H_
#define CDPIPE_PERFBENCH_DRIVER_WORKLOAD_H_

// The benchmark's fixed workloads and the pieces both replay modes share:
// stream generation (the load generator), deployment construction and the
// open-loop request generator of the traced runs' serving probe.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/continuous_deployment.h"
#include "src/dataframe/chunk.h"
#include "src/serving/prediction_service.h"

namespace cdpipe {
namespace perfbench {

/// One workload: a fixed stream (chunk count, rows per chunk, seed) and the
/// deployment that replays it.  Every field is a constant of the workload;
/// only `seed` comes from the command line.
struct WorkloadSpec {
  std::string name;
  bool taxi = false;
  size_t bootstrap_chunks = 0;
  size_t stream_chunks = 0;
  size_t records_per_chunk = 0;
  size_t proactive_every_chunks = 5;
  size_t sample_chunks = 0;
  SamplerKind sampler = SamplerKind::kUniform;
  size_t max_materialized_chunks = SIZE_MAX;
  size_t memory_budget_bytes = 0;  ///< 0 = no disk tier
  size_t engine_threads = 1;
  uint64_t seed = 0;
};

/// Records per prediction request.
constexpr size_t kRequestRecords = 8;
/// The after-replay serving probe of traced runs: this many requests at
/// this rate.
constexpr int64_t kProbeRequests = 300;
constexpr double kProbeRatePerS = 1000;
/// A request answered later than this after its due time counts as a miss.
constexpr double kLatencyLimitUs = 20000;

/// Returns false for an unknown workload name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

/// The generated input of one replay: bootstrap and deployment streams plus
/// the request pool the serving probe cycles through.
struct Inputs {
  std::vector<RawChunk> bootstrap;
  std::vector<RawChunk> stream;
  std::vector<RawChunk> requests;
};

Inputs GenerateInputs(const WorkloadSpec& spec);

std::unique_ptr<ContinuousDeployment> MakeDeployment(
    const WorkloadSpec& spec, const std::string& spill_dir);

/// The parts of the deployment the traced replica builds itself; the same
/// values MakeDeployment passes to the Deployment constructor.
Deployment::Options MakeDeploymentOptions(const WorkloadSpec& spec,
                                          const std::string& spill_dir);
std::unique_ptr<Pipeline> MakeWorkloadPipeline(const WorkloadSpec& spec);
std::unique_ptr<LinearModel> MakeWorkloadModel(const WorkloadSpec& spec);
std::unique_ptr<Optimizer> MakeWorkloadOptimizer(const WorkloadSpec& spec);
std::unique_ptr<Metric> MakeWorkloadMetric(const WorkloadSpec& spec);
BatchTrainer::Options InitialTrainOptions();

/// Client-side results of one open-loop request stream.
struct LoadResult {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t over_limit = 0;  ///< answered OK but later than the limit
  std::vector<double> latency_us;  ///< from due time to answer, OK only
  std::vector<double> service_us;  ///< Response::latency_seconds
  std::vector<double> lag_us;      ///< how late each send started
};

/// Sends `count` requests, `requests[i % size]`, through the service's
/// inline path (PredictWith on the calling thread, reading `reader`'s
/// snapshot) at kProbeRatePerS on a fixed schedule, each timed from its due
/// time.  One request is in flight at a time: a slow answer delays the next
/// send, and that delay is charged to the next request's latency because it
/// is timed from its due time.
LoadResult RunOpenLoop(const serving::PredictionService& service,
                       serving::SnapshotReader* reader,
                       const std::vector<RawChunk>& requests, int64_t count);

/// CPU seconds this process has used so far, all threads.
double ProcessCpuSeconds();

/// Peak resident set of this process so far, in MiB (getrusage).
double MaxRssMb();

}  // namespace perfbench
}  // namespace cdpipe

#endif  // CDPIPE_PERFBENCH_DRIVER_WORKLOAD_H_
