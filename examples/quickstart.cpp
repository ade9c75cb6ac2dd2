// Quickstart: deploy a pipeline + model with continuous (proactive)
// training in ~80 lines.
//
// We build a tiny libsvm-style classification stream, assemble the
// preprocessing pipeline (parser -> scaler -> hasher), attach a linear SVM,
// and run the continuous deployment strategy: online learning on every
// arriving chunk plus a proactive mini-batch SGD iteration over a sample of
// history every 5 chunks.
//
//   ./quickstart
//
// Set CDPIPE_TRACE=/tmp/trace.json to record a span trace of the whole run
// (open it in chrome://tracing or https://ui.perfetto.dev).

#include <cstdio>
#include <memory>

#include "src/core/continuous_deployment.h"
#include "src/data/url_stream.h"
#include "src/obs/trace.h"

using namespace cdpipe;

int main() {
  // 1. A synthetic training stream: sparse binary classification with
  //    gradual drift (stand-in for your real feed).
  UrlStreamGenerator::Config stream_config;
  stream_config.feature_dim = 1u << 14;
  stream_config.initial_active_features = 1000;
  stream_config.records_per_chunk = 50;
  stream_config.seed = 1;
  UrlStreamGenerator generator(stream_config);
  const std::vector<RawChunk> bootstrap = generator.Generate(20);
  const std::vector<RawChunk> stream = generator.Generate(200);

  // 2. The preprocessing pipeline.  Every component implements Update
  //    (incremental statistics) and Transform, so the platform can compute
  //    statistics online and re-materialize evicted feature chunks.
  UrlPipelineConfig pipeline_config;
  pipeline_config.raw_dim = stream_config.feature_dim;
  pipeline_config.hash_bits = 10;
  std::unique_ptr<Pipeline> pipeline = MakeUrlPipeline(pipeline_config);
  std::printf("pipeline: %s\n", pipeline->ToString().c_str());

  // 3. Model + optimizer.  The optimizer carries all cross-iteration state,
  //    which is what makes proactive training a plain SGD iteration.
  auto model = std::make_unique<LinearModel>(
      MakeUrlModelOptions(pipeline_config));
  auto optimizer = MakeOptimizer(OptimizerOptions{
      .kind = OptimizerKind::kAdam, .learning_rate = 0.02});

  // 4. Continuous deployment: sample 10 chunks of history (time-biased)
  //    every 5 incoming chunks and run one proactive SGD iteration.
  Deployment::Options options;
  options.sampler = SamplerKind::kTime;
  options.store.max_materialized_chunks = 100;  // bounded feature cache
  options.seed = 7;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 5;
  continuous.sample_chunks = 10;

  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), std::move(pipeline),
      std::move(model), std::move(optimizer),
      std::make_unique<MisclassificationRate>());

  // 5. Initial training (batch gradient descent over the bootstrap data),
  //    then replay the stream: every chunk is evaluated prequentially
  //    (test-then-train) before it updates the model.
  Status init = deployment.InitialTrain(bootstrap, BatchTrainer::Options{
                                                       .max_epochs = 15,
                                                       .batch_size = 0,
                                                       .tolerance = 1e-4,
                                                   });
  if (!init.ok()) {
    std::fprintf(stderr, "initial training failed: %s\n",
                 init.ToString().c_str());
    return 1;
  }
  Result<DeploymentReport> report = deployment.Run(stream);
  if (!report.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("%s\n", report->Summary().c_str());
  std::printf("cost breakdown: %s\n", report->cost.ToString().c_str());
  std::printf("materialization: %lld hits, %lld misses (mu=%.2f)\n",
              static_cast<long long>(report->storage.SampleHits()),
              static_cast<long long>(report->storage.sample_misses),
              report->storage.EmpiricalMu());
  if (obs::Tracer::Global().enabled()) {
    std::printf("trace: %zu spans buffered, dumping to %s at exit "
                "(open in chrome://tracing)\n",
                obs::Tracer::Global().NumBufferedEvents(),
                obs::Tracer::Global().dump_path().c_str());
  }
  return 0;
}
