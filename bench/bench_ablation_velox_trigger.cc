// Ablation (paper §6 related work): Velox retrains when the monitored error
// exceeds a threshold instead of on a fixed schedule.  We compare
// interval-triggered vs error-threshold-triggered periodical retraining —
// and continuous deployment — on a stream with an abrupt concept change.
//
// Observed shape: the threshold trigger reacts immediately after the
// change, but a full retraining at that moment runs over mostly *stale*
// history, so recovery is actually slower than blind interval retraining
// whose later rounds see a post-drift-majority history.  Continuous
// deployment (recency-biased proactive training) recovers at a fraction of
// either cost — exactly the paper's criticism of retraining-based
// maintenance (§6: Velox "discards the updates that have been applied to
// the model so far").
//
// Flags: --half=120  --seed=5

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"

namespace cdpipe {
namespace bench {
namespace {

UrlStreamGenerator::Config StreamConfig(uint64_t seed) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 1u << 14;
  config.initial_active_features = 300;
  config.new_features_per_chunk = 0;
  config.perturbed_weights_per_chunk = 0;
  config.nnz_per_record = 12;
  config.records_per_chunk = 80;
  config.margin_threshold = 1.5;
  config.seed = seed;
  return config;
}

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1u << 14;
  config.hash_bits = 10;
  return config;
}

std::vector<RawChunk> AbruptStream(uint64_t seed, size_t bootstrap,
                                   size_t half) {
  UrlStreamGenerator before(StreamConfig(seed));
  before.Generate(bootstrap);
  std::vector<RawChunk> stream = before.Generate(half);
  UrlStreamGenerator after(StreamConfig(seed + 999));
  std::vector<RawChunk> tail = after.Generate(half);
  for (size_t i = 0; i < tail.size(); ++i) {
    tail[i].id = static_cast<ChunkId>(bootstrap + half + i);
    stream.push_back(std::move(tail[i]));
  }
  return stream;
}

template <typename MakeDeployment>
DeploymentReport Run(const std::vector<RawChunk>& bootstrap,
                     const std::vector<RawChunk>& stream,
                     MakeDeployment&& make) {
  std::unique_ptr<Deployment> deployment = make();
  Status init = deployment->InitialTrain(
      bootstrap, BatchTrainer::Options{.max_epochs = 40, .batch_size = 200,
                                       .tolerance = 1e-4});
  if (!init.ok()) {
    std::fprintf(stderr, "init failed: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  auto report = deployment->Run(stream);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report).ValueOrDie();
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) {
  using namespace cdpipe;
  using namespace cdpipe::bench;
  Flags flags(argc, argv);
  const size_t half = static_cast<size_t>(flags.GetInt("half", 120));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  constexpr size_t kBootstrap = 20;

  UrlStreamGenerator bootstrap_generator(StreamConfig(seed));
  const std::vector<RawChunk> bootstrap =
      bootstrap_generator.Generate(kBootstrap);
  const std::vector<RawChunk> stream = AbruptStream(seed, kBootstrap, half);
  const UrlPipelineConfig pipe_config = PipeConfig();

  auto make_model = [&] {
    return std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config));
  };
  auto make_optimizer = [] {
    return MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                          .learning_rate = 0.005});
  };
  auto make_metric = [] {
    return std::make_unique<MisclassificationRate>();
  };
  auto retrain_options = [] {
    return BatchTrainer::Options{.max_epochs = 12, .batch_size = 500,
                                 .tolerance = 1e-3};
  };

  std::printf(
      "bench_ablation_velox_trigger: abrupt concept change at chunk %zu\n\n",
      half);
  std::printf("%-30s %10s %13s %11s %10s\n", "configuration", "final",
              "win@drift+30", "retrainings", "work");

  struct Row {
    const char* label;
    DeploymentReport report;
  };
  std::vector<Row> rows;

  rows.push_back({"periodical, interval=60", Run(bootstrap, stream, [&] {
                    Deployment::Options options;
                    options.seed = seed;
                    options.eval_window = 800;
                    options.store.max_materialized_chunks = 0;
                    PeriodicalDeployment::PeriodicalOptions periodical;
                    periodical.retrain_every_chunks = 60;
                    periodical.retrain = retrain_options();
                    return std::make_unique<PeriodicalDeployment>(
                        std::move(options), std::move(periodical),
                        MakeUrlPipeline(pipe_config), make_model(),
                        make_optimizer(), make_metric());
                  })});
  rows.push_back({"periodical, velox threshold", Run(bootstrap, stream, [&] {
                    Deployment::Options options;
                    options.seed = seed;
                    options.eval_window = 800;
                    options.store.max_materialized_chunks = 0;
                    PeriodicalDeployment::PeriodicalOptions periodical;
                    periodical.retrain_every_chunks = 100000;  // never
                    periodical.retrain = retrain_options();
                    periodical.retrain_error_threshold = 0.25;
                    periodical.min_chunks_between_retrains = 20;
                    return std::make_unique<PeriodicalDeployment>(
                        std::move(options), std::move(periodical),
                        MakeUrlPipeline(pipe_config), make_model(),
                        make_optimizer(), make_metric());
                  })});
  rows.push_back({"continuous (window sampling)", Run(bootstrap, stream, [&] {
                    Deployment::Options options;
                    options.seed = seed;
                    options.eval_window = 800;
                    options.sampler = SamplerKind::kWindow;
                    options.sampler_window = 40;
                    ContinuousDeployment::ContinuousOptions continuous;
                    continuous.proactive_every_chunks = 4;
                    continuous.sample_chunks = 12;
                    return std::make_unique<ContinuousDeployment>(
                        std::move(options), std::move(continuous),
                        MakeUrlPipeline(pipe_config), make_model(),
                        make_optimizer(), make_metric());
                  })});

  for (const Row& row : rows) {
    const auto& curve = row.report.curve;
    const double at30 =
        curve[std::min(curve.size() - 1, half + 30)].windowed_error;
    std::printf("%-30s %10.4f %13.4f %11lld %10lld\n", row.label,
                row.report.final_error, at30,
                static_cast<long long>(row.report.metrics.CounterValueOr(
                    "deployment.retrainings", 0)),
                static_cast<long long>(row.report.total_work));
  }
  return 0;
}
