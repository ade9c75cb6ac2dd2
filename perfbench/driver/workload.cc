#include "perfbench/driver/workload.h"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <thread>
#include <utility>

#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/ml/metrics.h"
#include "src/ml/optimizer.h"

namespace cdpipe {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The URL configuration of the paper benches (bench/bench_common.cc), kept
// here as constants so the benchmark does not change when those benches do.
UrlPipelineConfig UrlPipeline() {
  UrlPipelineConfig config;
  config.raw_dim = 1u << 16;
  config.hash_bits = 12;
  config.l2_reg = 1e-3;
  return config;
}

UrlStreamGenerator::Config UrlStream(uint64_t seed, size_t records) {
  UrlStreamGenerator::Config config;
  config.feature_dim = UrlPipeline().raw_dim;
  config.initial_active_features = 400;
  config.new_features_per_chunk = 2;
  config.perturbed_weights_per_chunk = 40;
  config.drift_step = 0.05;
  config.directional_drift_step = 0.002;
  config.nnz_per_record = 15;
  config.records_per_chunk = records;
  config.label_noise = 0.02;
  config.margin_threshold = 1.5;
  config.missing_prob = 0.01;
  config.seed = seed;
  return config;
}

TaxiStreamGenerator::Config TaxiStream(uint64_t seed, size_t records) {
  TaxiStreamGenerator::Config config;
  config.records_per_chunk = records;
  config.anomaly_prob = 0.01;
  config.noise_sigma = 0.25;
  config.seed = seed;
  return config;
}

// Requests come from a generator of their own (same distribution, other
// seed) so they are never rows the deployment trains on.
constexpr uint64_t kRequestSeedSalt = 0x5eed5e7e;
constexpr size_t kRequestPool = 64;

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "url_continuous") {
    spec.bootstrap_chunks = 40;
    spec.stream_chunks = 1920;
    spec.records_per_chunk = 100;
    spec.sample_chunks = 20;
    spec.sampler = SamplerKind::kTime;
  } else if (name == "taxi_remat_spill") {
    // Spilling writes one file per chunk, and creating a file is the
    // noisiest operation on small virtual machines (its cost doubles after
    // a minute of sustained spilling), so this workload uses fewer, larger
    // chunks than the paper benches: 480 rows instead of 60, the same rows
    // in an eighth of the files.  A proactive iteration runs after every
    // chunk over 4 sampled chunks, 1,920 rows.
    spec.taxi = true;
    spec.bootstrap_chunks = 6;
    spec.stream_chunks = 240;
    spec.records_per_chunk = 480;
    spec.proactive_every_chunks = 1;
    spec.sample_chunks = 4;
    spec.sampler = SamplerKind::kUniform;
    spec.max_materialized_chunks = 12;
    spec.memory_budget_bytes = 2u << 20;
    spec.engine_threads = 2;
  } else {
    return false;
  }
  *out = std::move(spec);
  return true;
}

Inputs GenerateInputs(const WorkloadSpec& spec) {
  Inputs inputs;
  if (spec.taxi) {
    TaxiStreamGenerator generator(
        TaxiStream(spec.seed, spec.records_per_chunk));
    inputs.bootstrap = generator.Generate(spec.bootstrap_chunks);
    inputs.stream = generator.Generate(spec.stream_chunks);
    TaxiStreamGenerator requests(
        TaxiStream(spec.seed ^ kRequestSeedSalt, kRequestRecords));
    inputs.requests = requests.Generate(kRequestPool);
  } else {
    UrlStreamGenerator generator(UrlStream(spec.seed, spec.records_per_chunk));
    inputs.bootstrap = generator.Generate(spec.bootstrap_chunks);
    inputs.stream = generator.Generate(spec.stream_chunks);
    UrlStreamGenerator requests(
        UrlStream(spec.seed ^ kRequestSeedSalt, kRequestRecords));
    inputs.requests = requests.Generate(kRequestPool);
  }
  return inputs;
}

Deployment::Options MakeDeploymentOptions(const WorkloadSpec& spec,
                                          const std::string& spill_dir) {
  Deployment::Options options;
  options.store.max_materialized_chunks = spec.max_materialized_chunks;
  if (spec.memory_budget_bytes > 0) {
    options.store.memory_budget_bytes = spec.memory_budget_bytes;
    options.store.spill_dir = spill_dir;
  }
  options.sampler = spec.sampler;
  options.eval_window = 2000;
  options.seed = spec.seed;
  options.engine_threads = spec.engine_threads;
  return options;
}

std::unique_ptr<Pipeline> MakeWorkloadPipeline(const WorkloadSpec& spec) {
  return spec.taxi ? MakeTaxiPipeline() : MakeUrlPipeline(UrlPipeline());
}

std::unique_ptr<LinearModel> MakeWorkloadModel(const WorkloadSpec& spec) {
  return std::make_unique<LinearModel>(
      spec.taxi ? MakeTaxiModelOptions(1e-4)
                : MakeUrlModelOptions(UrlPipeline()));
}

std::unique_ptr<Optimizer> MakeWorkloadOptimizer(const WorkloadSpec& spec) {
  // Table 3's winners: RMSProp on taxi, Adam on URL.
  OptimizerOptions options;
  options.kind = spec.taxi ? OptimizerKind::kRmsprop : OptimizerKind::kAdam;
  options.learning_rate = spec.taxi ? 0.02 : 0.002;
  return MakeOptimizer(options);
}

std::unique_ptr<Metric> MakeWorkloadMetric(const WorkloadSpec& spec) {
  // Taxi labels are log1p(duration), so RMSE is the paper's RMSLE.
  if (spec.taxi) return std::make_unique<Rmse>();
  return std::make_unique<MisclassificationRate>();
}

BatchTrainer::Options InitialTrainOptions() {
  BatchTrainer::Options options;
  options.max_epochs = 40;
  options.batch_size = 200;
  options.tolerance = 1e-4;
  return options;
}

std::unique_ptr<ContinuousDeployment> MakeDeployment(
    const WorkloadSpec& spec, const std::string& spill_dir) {
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = spec.proactive_every_chunks;
  continuous.sample_chunks = spec.sample_chunks;
  return std::make_unique<ContinuousDeployment>(
      MakeDeploymentOptions(spec, spill_dir), std::move(continuous),
      MakeWorkloadPipeline(spec), MakeWorkloadModel(spec),
      MakeWorkloadOptimizer(spec), MakeWorkloadMetric(spec));
}

LoadResult RunOpenLoop(const serving::PredictionService& service,
                       serving::SnapshotReader* reader,
                       const std::vector<RawChunk>& requests, int64_t count) {
  LoadResult result;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kProbeRatePerS));
  // Sleep until shortly before the due time, then spin: oversleeping would
  // be charged to the request, since latency counts from the due time.
  const auto spin = std::chrono::microseconds(200);
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < count; ++i) {
    const Clock::time_point due = start + period * i;
    if (Clock::now() < due - spin) std::this_thread::sleep_until(due - spin);
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    const RawChunk& request = requests[static_cast<size_t>(i) % requests.size()];
    Result<serving::PredictionService::Response> response =
        service.PredictWith(reader, request);
    const Clock::time_point done = Clock::now();
    ++result.sent;
    result.lag_us.push_back(
        std::chrono::duration<double, std::micro>(sent - due).count());
    if (!response.ok()) {
      ++result.errors;
      continue;
    }
    const double latency =
        std::chrono::duration<double, std::micro>(done - due).count();
    ++result.ok;
    if (latency > kLatencyLimitUs) ++result.over_limit;
    result.latency_us.push_back(latency);
    result.service_us.push_back(response->latency_seconds * 1e6);
  }
  return result;
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double MaxRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
}  // namespace cdpipe
