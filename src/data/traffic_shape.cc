#include "src/data/traffic_shape.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace cdpipe {

std::vector<int64_t> ShapedArrivalTimes(const TrafficShapeConfig& config,
                                        size_t n) {
  CDPIPE_CHECK_GT(config.base_period_seconds, 0.0);
  CDPIPE_CHECK(config.jitter_fraction >= 0.0 && config.jitter_fraction < 1.0);
  Rng rng(config.seed);
  std::vector<int64_t> out;
  out.reserve(n);
  double t = config.start_seconds;
  int64_t previous = 0;
  for (size_t i = 0; i < n; ++i) {
    // Round, then clamp non-decreasing: an aggressive burst can compress
    // gaps below one second and rounding must never reorder arrivals.
    int64_t arrival = static_cast<int64_t>(std::llround(t));
    if (i > 0) arrival = std::max(arrival, previous);
    out.push_back(arrival);
    previous = arrival;

    double gap = config.base_period_seconds;
    switch (config.shape) {
      case TrafficShape::kUniform:
        break;
      case TrafficShape::kFlashCrowd: {
        CDPIPE_CHECK_GT(config.burst_every, 0u);
        CDPIPE_CHECK_GT(config.burst_factor, 0.0);
        const size_t position = i % config.burst_every;
        if (position < config.burst_length) gap /= config.burst_factor;
        break;
      }
      case TrafficShape::kSustainedOverload:
        CDPIPE_CHECK_GT(config.overload_factor, 0.0);
        gap /= config.overload_factor;
        break;
      case TrafficShape::kDiurnal: {
        CDPIPE_CHECK_GT(config.diurnal_period_chunks, 0u);
        // Rate multiplier swings over [1, 1 + amplitude]; the gap is its
        // reciprocal.  Phase starts at the trough so every run begins calm.
        const double phase = 2.0 * M_PI * static_cast<double>(i) /
                             static_cast<double>(config.diurnal_period_chunks);
        const double rate = 1.0 + config.diurnal_amplitude * 0.5 *
                                      (1.0 - std::cos(phase));
        gap /= rate;
        break;
      }
    }
    if (config.jitter_fraction > 0.0) {
      gap *= rng.NextUniform(1.0 - config.jitter_fraction,
                             1.0 + config.jitter_fraction);
    }
    t += std::max(gap, 0.0);
  }
  return out;
}

void ApplyTrafficShape(const TrafficShapeConfig& config,
                       std::vector<RawChunk>* stream) {
  CDPIPE_CHECK(stream != nullptr);
  const std::vector<int64_t> arrivals =
      ShapedArrivalTimes(config, stream->size());
  for (size_t i = 0; i < stream->size(); ++i) {
    (*stream)[i].event_time_seconds = arrivals[i];
  }
}

}  // namespace cdpipe
