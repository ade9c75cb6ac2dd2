#ifndef CDPIPE_CORE_REPORT_H_
#define CDPIPE_CORE_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/admission.h"
#include "src/core/cost_model.h"
#include "src/obs/metrics.h"
#include "src/storage/chunk_store.h"

namespace cdpipe {

/// Everything a deployment run produces: the quality curve (prequential
/// error over time), the cost curve (cumulative seconds and work units),
/// and the final counters — the raw material for every figure and table in
/// the paper's evaluation.
struct DeploymentReport {
  /// One row per processed chunk.
  struct PointRow {
    int64_t chunk_index = 0;
    int64_t observations = 0;        ///< prequential observations so far
    double cumulative_error = 0.0;   ///< cumulative prequential metric
    double windowed_error = 0.0;     ///< sliding-window metric
    double cumulative_seconds = 0.0; ///< total cost so far (wall clock)
    int64_t cumulative_work = 0;     ///< total work units so far
  };

  std::string strategy;
  std::string metric_name;
  std::vector<PointRow> curve;

  double final_error = 0.0;
  double average_error = 0.0;  ///< mean of the per-chunk cumulative metric
  int64_t total_work = 0;
  int64_t chunks_processed = 0;
  /// Degradation events of this run (chunks processed without storage,
  /// left unmaterialized, or dropped from a proactive sample, and served
  /// evaluations that fell back to the in-loop path): the sum of the
  /// `deployment.degraded`, `proactive.chunks_skipped` and
  /// `proactive.iterations_degraded` counters of `metrics`.  Zero in a
  /// healthy run.
  int64_t degraded_events = 0;

  /// Per-phase seconds and work units; `cost.TotalSeconds()` is the run's
  /// wall-clock cost.
  CostModel cost;
  /// Chunk-store counters of this run: μ (`EmpiricalMu()`, split by tier
  /// in `MemoryMu()` / `DiskMu()`), spills, disk loads, prefetch hits.
  ChunkStore::Counters storage;
  /// Per-run delta of the global metrics registry (counters and histogram
  /// buckets recorded during this Run; gauges hold end-of-run values):
  /// proactive iterations, retrainings, drift events, faults, retries and
  /// the serving tier's requests all live here.  Export with obs::ToJson /
  /// obs::ToPrometheusText.
  obs::MetricsSnapshot metrics;
  /// Admission counts of a RunShaped replay (all zero in a plain Run).  The
  /// identities `offered == admitted + shed_newest + shed_timeout` and
  /// `chunks_processed == admitted - shed_oldest` hold exactly; shed counts
  /// depend only on arrival times and admission options, never on injected
  /// faults or threads.
  AdmissionController::Counters ingest;
  /// Per-chunk snapshot publishes skipped by the overload gate, and the
  /// worst served-model staleness that gating caused (in chunks; bounded by
  /// Options::publish_staleness_bound_chunks).
  int64_t publish_skipped_overload = 0;
  int64_t max_snapshot_staleness_chunks = 0;

  /// Serializes the curve as CSV with a header row.
  std::string CurveToCsv() const;

  /// Downsamples the curve to at most `points` rows (for compact figures).
  std::vector<PointRow> SampledCurve(size_t points) const;

  /// One-paragraph human-readable summary.
  std::string Summary() const;
};

std::ostream& operator<<(std::ostream& os, const DeploymentReport& report);

}  // namespace cdpipe

#endif  // CDPIPE_CORE_REPORT_H_
