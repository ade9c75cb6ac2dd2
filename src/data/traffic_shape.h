#ifndef CDPIPE_DATA_TRAFFIC_SHAPE_H_
#define CDPIPE_DATA_TRAFFIC_SHAPE_H_

#include <cstdint>
#include <vector>

#include "src/dataframe/chunk.h"

namespace cdpipe {

/// Deterministic arrival-time shapes for overload stress scenarios.  A
/// shaper rewrites the `event_time_seconds` of an already-generated stream —
/// the chunk *contents* (and therefore the learning problem) are untouched;
/// only the arrival process the admission controller sees changes.  All
/// shapes are pure functions of (config, chunk index) plus an explicitly
/// seeded jitter RNG, so a shaped stream is bit-identical across runs and
/// thread counts.
enum class TrafficShape : uint8_t {
  /// Constant inter-arrival gap (`base_period_seconds`) — the fault-free
  /// control: with a service rate at or above the arrival rate the ingest
  /// queue never fills and RunShaped reproduces Run exactly.
  kUniform = 0,
  /// Periodic flash crowds: every `burst_every` chunks, the first
  /// `burst_length` arrive `burst_factor`× faster than base, then the gap
  /// relaxes back — the queue spikes and drains repeatedly.
  kFlashCrowd,
  /// Sustained overload: every gap is `base / overload_factor`, so with
  /// `overload_factor` above the service headroom the backlog only grows.
  kSustainedOverload,
  /// Diurnal curve: the arrival rate swings sinusoidally between 1× and
  /// `(1 + diurnal_amplitude)`× base with period `diurnal_period_chunks`,
  /// like a day/night load cycle — peaks overload, troughs recover.
  kDiurnal,
};

struct TrafficShapeConfig {
  TrafficShape shape = TrafficShape::kUniform;
  /// Nominal inter-arrival gap in event seconds (the 1× rate).
  double base_period_seconds = 60.0;
  double start_seconds = 0.0;

  // kFlashCrowd
  size_t burst_every = 8;    ///< burst period in chunks
  size_t burst_length = 4;   ///< chunks per burst
  double burst_factor = 8.0; ///< in-burst arrival speed-up

  // kSustainedOverload
  double overload_factor = 2.0;

  // kDiurnal
  double diurnal_amplitude = 3.0;     ///< peak rate = (1 + amplitude)× base
  size_t diurnal_period_chunks = 12;  ///< full day length in chunks

  /// Seeded multiplicative jitter on every gap, uniform in
  /// [1 - jitter_fraction, 1 + jitter_fraction).  0 = strictly periodic.
  double jitter_fraction = 0.0;
  uint64_t seed = 17;
};

/// The shaped arrival times (event seconds, non-decreasing) for a stream of
/// `n` chunks.  Exposed separately so tests can assert on the arrival
/// process without generating chunk payloads.
std::vector<int64_t> ShapedArrivalTimes(const TrafficShapeConfig& config,
                                        size_t n);

/// Rewrites `(*stream)[i].event_time_seconds` to the shaped arrival times.
void ApplyTrafficShape(const TrafficShapeConfig& config,
                       std::vector<RawChunk>* stream);

}  // namespace cdpipe

#endif  // CDPIPE_DATA_TRAFFIC_SHAPE_H_
