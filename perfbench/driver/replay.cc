#include "perfbench/driver/replay.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/ml/batch_view.h"

namespace cdpipe {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs and times `replay` (one Run over the stream).
template <typename Replay>
auto TimedReplay(ReplayResult* out, Replay replay) {
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  auto result = replay();
  out->replay_s = SecondsSince(start);
  out->replay_cpu_s = ProcessCpuSeconds() - cpu_start;
  return result;
}

/// The after-replay serving probe of traced runs: the final deployed model,
/// published once, answers open-loop requests with no training beside it.
/// Requests take the service's inline path: with no queue hop, no thread
/// wake-up (the noisiest cost on a small virtual machine) enters the
/// latency.
LoadResult Probe(PipelineManager* pipeline_manager, const Inputs& inputs) {
  serving::SnapshotPublisher publisher;
  const serving::PredictionService service(
      &publisher, serving::PredictionService::Options());
  pipeline_manager->AttachPublisher(&publisher);
  pipeline_manager->PublishSnapshot();
  pipeline_manager->AttachPublisher(nullptr);
  serving::SnapshotReader reader(&publisher);
  return RunOpenLoop(service, &reader, inputs.requests, kProbeRequests);
}

/// In-memory span log of the traced replica.  Each span knows its parent,
/// so a parent's self time is its duration minus its children's.
class SpanLog {
 public:
  struct Span {
    SpanName name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns = 0;
    int64_t child_ns = 0;
  };

  int32_t Begin(SpanName name, int32_t parent) {
    spans_.push_back(Span{name, parent, NowNs()});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ns +=
          span.end_ns - span.start_ns;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, int32_t parent)
      : log_(log), index_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

void WriteChromeTrace(const SpanLog& log, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(file, "{\"traceEvents\":[");
  const std::vector<SpanLog::Span>& spans = log.spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& span = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", SpanNameString(span.name),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent);
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);
}

/// Builds and drives the layers the way Deployment and ContinuousDeployment
/// do for the benchmark's configurations (no admission queue, no drift
/// detector, static proactive schedule, no injected faults).  Members are
/// declared in the order the Deployment constructor initializes them; the
/// destructor detaches the prefetcher while the engine is still alive.
class Replica {
 public:
  Replica(const WorkloadSpec& spec, const std::string& spill_dir,
          SpanLog* log)
      : spec_(spec),
        options_(MakeDeploymentOptions(spec, spill_dir)),
        data_manager_(options_.store,
                      MakeSampler(options_.sampler, options_.sampler_window)),
        engine_(options_.engine_threads),
        pipeline_manager_(MakeWorkloadPipeline(spec), MakeWorkloadModel(spec),
                          MakeWorkloadOptimizer(spec), &cost_,
                          PipelineManager::Options{options_.online_statistics}),
        metric_(MakeWorkloadMetric(spec)),
        rng_(options_.seed),
        log_(log) {
    engine_.set_retry_policy(options_.retry);
    data_manager_.mutable_store().set_cost_model(&cost_);
    if (data_manager_.store().spilling_enabled()) {
      data_manager_.EnablePrefetch(&engine_);
    }
  }

  ~Replica() { data_manager_.DisablePrefetch(); }

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Deployment::InitialTrain.
  Status InitialTrain(const std::vector<RawChunk>& bootstrap) {
    std::vector<FeatureChunk> transformed;
    transformed.reserve(bootstrap.size());
    for (const RawChunk& chunk : bootstrap) {
      CDPIPE_RETURN_NOT_OK(data_manager_.IngestChunk(chunk));
      CDPIPE_ASSIGN_OR_RETURN(
          FeatureChunk features,
          pipeline_manager_.OnlineStep(chunk, nullptr, false));
      transformed.push_back(std::move(features));
    }
    std::vector<const FeatureData*> parts;
    for (const FeatureChunk& chunk : transformed) parts.push_back(&chunk.data);
    BatchTrainer trainer(InitialTrainOptions());
    CDPIPE_RETURN_NOT_OK(trainer
                             .Train(parts, pipeline_manager_.mutable_model(),
                                    pipeline_manager_.mutable_optimizer(),
                                    &rng_, &engine_)
                             .status());
    for (FeatureChunk& chunk : transformed) {
      CDPIPE_RETURN_NOT_OK(data_manager_.StoreFeatures(std::move(chunk)));
    }
    cost_.Reset();
    return Status::OK();
  }

  /// Deployment::Run with ContinuousDeployment::AfterChunk inlined.
  Status Run(const std::vector<RawChunk>& stream, ReplayResult* out) {
    cost_.Reset();
    data_manager_.mutable_store().ResetCounters();
    evaluator_ = std::make_unique<PrequentialEvaluator>(metric_->Clone(),
                                                        options_.eval_window);
    for (size_t i = 0; i < stream.size(); ++i) {
      CDPIPE_RETURN_NOT_OK(ProcessChunk(i, stream[i]));
      out->chunks_processed += 1;
    }
    out->prequential_error = evaluator_->CumulativeValue();
    out->total_work = cost_.TotalWork();
    out->storage = data_manager_.store().counters();
    return Status::OK();
  }

  int64_t remat_chunks() const { return remat_chunks_; }
  PipelineManager* pipeline_manager() { return &pipeline_manager_; }

 private:

  Status ProcessChunk(size_t index, const RawChunk& chunk) {
    ScopedSpan chunk_span(log_, SpanName::kChunk, -1);
    const int32_t parent = chunk_span.index();
    {
      ScopedSpan span(log_, SpanName::kIngest, parent);
      CDPIPE_RETURN_NOT_OK(data_manager_.IngestChunk(chunk));
    }
    const RawChunk* stored = data_manager_.store().GetRaw(chunk.id);
    if (stored == nullptr) return Status::Internal("ingested chunk missing");

    // Deployment::RunOnlinePath: OnlineStep's three phases.
    Result<FeatureChunk> features = Status::Internal("not preprocessed");
    {
      ScopedSpan span(log_, SpanName::kPreprocess, parent);
      features = pipeline_manager_.PreprocessChunk(*stored);
    }
    if (!features.ok()) return features.status();
    {
      ScopedSpan span(log_, SpanName::kEvaluate, parent);
      pipeline_manager_.EvaluateFeatures(features->data, evaluator_.get());
    }
    {
      ScopedSpan span(log_, SpanName::kOnlineUpdate, parent);
      CDPIPE_RETURN_NOT_OK(pipeline_manager_.OnlineUpdate(features->data));
    }
    {
      ScopedSpan span(log_, SpanName::kStoreFeatures, parent);
      CDPIPE_RETURN_NOT_OK(
          data_manager_.StoreFeatures(std::move(features).value()));
    }

    if ((index + 1) % spec_.proactive_every_chunks == 0) {
      CDPIPE_RETURN_NOT_OK(ProactiveIteration(parent));
      ScopedSpan span(log_, SpanName::kPrefetch, parent);
      data_manager_.PrefetchForNextSample(spec_.sample_chunks,
                                          spec_.proactive_every_chunks, rng_);
    }
    return Status::OK();
  }

  /// ProactiveTrainer::RunIteration's fault-free path, split so that the
  /// rematerialization and the train step are timed separately.
  Status ProactiveIteration(int32_t chunk_parent) {
    ScopedSpan iteration(log_, SpanName::kProactiveIter, chunk_parent);
    const int32_t parent = iteration.index();
    Result<DataManager::SampleSet> sampled =
        Status::Internal("not sampled");
    {
      ScopedSpan span(log_, SpanName::kSample, parent);
      sampled = data_manager_.SampleForTraining(spec_.sample_chunks, &rng_);
    }
    if (!sampled.ok()) return sampled.status();
    const DataManager::SampleSet& sample = *sampled;
    const size_t num_remat = sample.to_rematerialize.size();
    std::vector<FeatureChunk> rebuilt(num_remat);
    {
      ScopedSpan span(log_, SpanName::kRemat, parent);
      CDPIPE_RETURN_NOT_OK(
          engine_.ParallelFor(num_remat, [&](size_t i) -> Status {
            CDPIPE_ASSIGN_OR_RETURN(rebuilt[i],
                                    pipeline_manager_.Rematerialize(
                                        *sample.to_rematerialize[i]));
            return Status::OK();
          }));
    }
    remat_chunks_ += static_cast<int64_t>(num_remat);
    std::vector<const FeatureData*> parts;
    parts.reserve(sample.num_chunks());
    for (const FeatureChunk* chunk : sample.materialized) {
      parts.push_back(&chunk->data);
    }
    for (const FeatureChunk& chunk : rebuilt) parts.push_back(&chunk.data);
    uint32_t dim = 0;
    CDPIPE_ASSIGN_OR_RETURN(const std::vector<BatchView::RowRef> rows,
                            BatchView::CollectRows(parts, &dim));
    const BatchView batch(dim, rows);
    if (batch.empty()) return Status::OK();
    ScopedSpan span(log_, SpanName::kTrainStep, parent);
    return pipeline_manager_.TrainStep(batch, CostPhase::kProactiveTraining,
                                       &engine_);
  }

  const WorkloadSpec& spec_;
  Deployment::Options options_;
  CostModel cost_;
  DataManager data_manager_;
  ExecutionEngine engine_;
  PipelineManager pipeline_manager_;
  std::unique_ptr<Metric> metric_;
  Rng rng_;
  SpanLog* log_;
  std::unique_ptr<PrequentialEvaluator> evaluator_;
  int64_t remat_chunks_ = 0;
};

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kChunk:
      return "chunk";
    case SpanName::kIngest:
      return "ingest";
    case SpanName::kPreprocess:
      return "preprocess";
    case SpanName::kEvaluate:
      return "evaluate";
    case SpanName::kOnlineUpdate:
      return "online_update";
    case SpanName::kStoreFeatures:
      return "store_features";
    case SpanName::kProactiveIter:
      return "proactive_iter";
    case SpanName::kSample:
      return "sample";
    case SpanName::kRemat:
      return "remat";
    case SpanName::kTrainStep:
      return "train_step";
    case SpanName::kPrefetch:
      return "prefetch";
    case SpanName::kNumSpans:
      break;
  }
  return "?";
}

Result<ReplayResult> RunUntraced(const WorkloadSpec& spec,
                                 const Inputs& inputs,
                                 const std::string& spill_dir) {
  ReplayResult out;
  out.mode = "untraced";
  out.chunks = static_cast<int64_t>(inputs.stream.size());
  const double rss_before = MaxRssMb();

  const double setup_cpu_start = ProcessCpuSeconds();
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<ContinuousDeployment> deployment =
      MakeDeployment(spec, spill_dir);
  CDPIPE_RETURN_NOT_OK(
      deployment->InitialTrain(inputs.bootstrap, InitialTrainOptions()));
  out.setup_s = SecondsSince(setup_start);
  out.setup_cpu_s = ProcessCpuSeconds() - setup_cpu_start;

  Result<DeploymentReport> report =
      TimedReplay(&out, [&] { return deployment->Run(inputs.stream); });
  if (!report.ok()) return report.status();
  out.peak_rss_mb = MaxRssMb() - rss_before;

  out.chunks_processed = report->chunks_processed;
  out.degraded = report->degraded_events;
  out.prequential_error = report->final_error;
  out.total_work = report->total_work;
  out.storage = report->storage;
  out.remat_chunks = deployment->proactive_stats().chunks_rematerialized;
  return out;
}

Result<ReplayResult> RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
                               const std::string& spill_dir,
                               const std::string& spans_out) {
  ReplayResult out;
  out.mode = "traced";
  out.chunks = static_cast<int64_t>(inputs.stream.size());
  const double rss_before = MaxRssMb();
  SpanLog log;
  log.Reserve(inputs.stream.size() * 12);

  const double setup_cpu_start = ProcessCpuSeconds();
  const Clock::time_point setup_start = Clock::now();
  Replica replica(spec, spill_dir, &log);
  CDPIPE_RETURN_NOT_OK(replica.InitialTrain(inputs.bootstrap));
  out.setup_s = SecondsSince(setup_start);
  out.setup_cpu_s = ProcessCpuSeconds() - setup_cpu_start;

  const Status status =
      TimedReplay(&out, [&] { return replica.Run(inputs.stream, &out); });
  if (!status.ok()) return status;
  out.peak_rss_mb = MaxRssMb() - rss_before;
  out.remat_chunks = replica.remat_chunks();
  out.load = Probe(replica.pipeline_manager(), inputs);

  for (const SpanLog::Span& span : log.spans()) {
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    out.span_us[static_cast<size_t>(span.name)].push_back(us);
    if (span.name == SpanName::kChunk) {
      out.chunk_self_us.push_back(
          static_cast<double>(span.end_ns - span.start_ns - span.child_ns) /
          1e3);
    }
  }
  if (!spans_out.empty()) WriteChromeTrace(log, spans_out);
  return out;
}

}  // namespace perfbench
}  // namespace cdpipe
