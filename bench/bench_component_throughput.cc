// Microbenchmark: full-pipeline throughput (rows/second) of both pipeline
// entry points on representative chunks — the pure Transform path (one
// cached compiled plan) and the online UpdateAndTransform path (one walk
// with an update barrier per stateful component) — for the URL and Taxi
// pipelines at 64 and 512 rows.
//
// Hand-rolled timing loop (Stopwatch + calibrated repetition counts)
// instead of google-benchmark so the binary emits the same JSON schema as
// the committed BENCH_components.json baseline:
//
//   bench_component_throughput [--min_seconds=0.5] [--label=single-path]
//       [--json_out=path] [--obs=0]
//
// The UpdateAndTransform rows fold the same chunk into the statistics on
// every call; the statistics' key sets stop growing after the first call,
// so every timed call does the same work.  `--obs=1` runs the identical
// suite with the whole observability plane live (event journal, watchdog,
// HTTP obs server on an ephemeral port) — diff the two labels to measure
// the plane's overhead on hot transform loops.

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/obs/event_journal.h"
#include "src/obs/health.h"
#include "src/obs/obs_server.h"

namespace cdpipe {
namespace bench {
namespace {

struct BenchResult {
  std::string name;
  size_t batch_rows = 0;
  double rows_per_second = 0.0;
};

/// Times `body` (one call = one pass over `batch_rows` rows): repeats until
/// `min_seconds` of accumulated runtime, after a warm-up pass, and returns
/// rows/second.
BenchResult TimeRowsPerSecond(const std::string& name, size_t batch_rows,
                              double min_seconds,
                              const std::function<void()>& body) {
  body();  // warm-up (touches lazy caches, faults pages)
  size_t iterations = 0;
  Stopwatch watch;
  do {
    body();
    ++iterations;
  } while (watch.ElapsedSeconds() < min_seconds);
  const double seconds = watch.ElapsedSeconds();
  BenchResult result;
  result.name = name;
  result.batch_rows = batch_rows;
  result.rows_per_second =
      static_cast<double>(iterations * batch_rows) / seconds;
  std::printf("%-38s rows=%-5zu  %12.0f rows/s  (%zu iters)\n",
              name.c_str(), batch_rows, result.rows_per_second, iterations);
  return result;
}

/// Times both entry points of `pipeline` on `chunk`: the pure Transform
/// after one statistics update, then UpdateAndTransform.
void TimeEntryPoints(const std::string& workload, Pipeline* pipeline,
                     const RawChunk& chunk, double min_seconds,
                     std::vector<BenchResult>* results) {
  const size_t rows = chunk.num_rows();
  (void)pipeline->UpdateAndTransform(chunk);
  results->push_back(TimeRowsPerSecond(
      workload + "Transform", rows, min_seconds,
      [&] { (void)pipeline->Transform(chunk); }));
  results->push_back(TimeRowsPerSecond(
      workload + "UpdateAndTransform", rows, min_seconds,
      [&] { (void)pipeline->UpdateAndTransform(chunk); }));
}

void RunSuite(double min_seconds, std::vector<BenchResult>* results) {
  for (size_t rows : {64, 512}) {
    UrlPipelineConfig config;
    config.raw_dim = 1u << 16;
    config.hash_bits = 12;
    auto pipeline = MakeUrlPipeline(config);
    UrlStreamGenerator::Config stream_config;
    stream_config.feature_dim = config.raw_dim;
    stream_config.initial_active_features = 3000;
    stream_config.records_per_chunk = rows;
    UrlStreamGenerator generator(stream_config);
    TimeEntryPoints("FullUrlPipeline", pipeline.get(), generator.NextChunk(),
                    min_seconds, results);
  }

  for (size_t rows : {64, 512}) {
    auto pipeline = MakeTaxiPipeline();
    TaxiStreamGenerator::Config stream_config;
    stream_config.records_per_chunk = rows;
    TaxiStreamGenerator generator(stream_config);
    TimeEntryPoints("FullTaxiPipeline", pipeline.get(), generator.NextChunk(),
                    min_seconds, results);
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double min_seconds = flags.GetDouble("min_seconds", 0.5);
  const std::string label = flags.GetString("label", "single-path");
  const std::string json_out = flags.GetString("json_out", "");
  const bool obs_on = flags.GetDouble("obs", 0) != 0;

  // Normalize glibc to its multi-threaded code paths in both obs modes before
  // timing anything: the first thread a process ever creates permanently
  // clears `__libc_single_threaded`, turning every shared_ptr refcount in
  // the transform loops into a real atomic RMW (measured 5–25% on the
  // shortest loops).  Any real deployment runs an engine pool and pays
  // this anyway; without the normalization the --obs=1 run (which starts
  // watchdog + server threads) would be charged for it while the baseline
  // is not, and the A/B would measure glibc, not the obs plane.
  std::thread(([] {})).join();

  // With --obs=1 the full observability plane runs alongside the timed
  // loops: journal enabled, watchdog polling, HTTP server accepting.
  std::unique_ptr<obs::Watchdog> watchdog;
  std::unique_ptr<obs::ObsServer> server;
  if (obs_on) {
    obs::EventJournal::Global().Enable();
    watchdog = std::make_unique<obs::Watchdog>();
    watchdog->Start();
    server = std::make_unique<obs::ObsServer>();
    const Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "obs server failed to start: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("obs plane live on http://127.0.0.1:%u\n", server->port());
  }

  std::printf("component throughput (label=%s, min_seconds=%.2f, obs=%d)\n",
              label.c_str(), min_seconds, obs_on ? 1 : 0);
  std::vector<BenchResult> results;
  RunSuite(min_seconds, &results);

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", json_out.c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"component_throughput\",\n";
    out << StrFormat("  \"label\": \"%s\",\n", label.c_str());
    out << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out << StrFormat(
          "    {\"name\": \"%s\", \"batch_rows\": %zu, "
          "\"rows_per_second\": %.1f}%s\n",
          results[i].name.c_str(), results[i].batch_rows,
          results[i].rows_per_second,
          i + 1 < results.size() ? "," : "");
    }
    out << "  ]\n}\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed writing '%s'\n", json_out.c_str());
      return 1;
    }
    std::printf("wrote JSON report: %s\n", json_out.c_str());
  }
  if (server != nullptr) server->Stop();
  if (watchdog != nullptr) watchdog->Stop();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) { return cdpipe::bench::Main(argc, argv); }
