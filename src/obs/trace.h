#ifndef CDPIPE_OBS_TRACE_H_
#define CDPIPE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/correlation.h"

namespace cdpipe {
namespace obs {

/// One completed span, ready for Chrome trace format ("ph":"X").  Names are
/// copied into fixed storage so events never dangle and recording never
/// allocates.
struct TraceEvent {
  char name[64];
  char category[16];
  int64_t start_us = 0;     ///< microseconds since tracer epoch
  int64_t duration_us = 0;
  /// Correlation captured from the recording thread's CorrelationScope;
  /// emitted as Chrome-trace "args" so spans join up with journal events.
  uint32_t deployment = 0;  ///< 0 = none
  int64_t entity = -1;      ///< chunk id / step seq, -1 = none
};

/// Process-wide span recorder.  Disabled by default: the enabled check is a
/// single relaxed atomic load, so leaving instrumentation in hot paths is
/// free.  When enabled (programmatically or via the CDPIPE_TRACE environment
/// variable, whose value is the output path), every span goes into a
/// per-thread ring buffer — threads never contend with each other; the only
/// lock is the buffer's own mutex, uncontended except while a dump snapshots
/// it.  `WriteChromeTrace` emits a JSON file loadable in chrome://tracing
/// (or https://ui.perfetto.dev).  When CDPIPE_TRACE is set, the trace is
/// also dumped automatically at process exit.
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Microseconds since the tracer epoch (first use), steady clock.
  static int64_t NowMicros();

  /// Appends a completed span to the calling thread's ring buffer.  When the
  /// ring is full the oldest events are overwritten (counted as dropped and
  /// reflected in the `obs.trace_dropped` counter).
  void RecordComplete(const char* name, const char* category,
                      int64_t start_us, int64_t duration_us,
                      CorrelationId corr = CorrelationId{});

  /// Chrome trace format: {"traceEvents":[{"ph":"X",...},...]}.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Where the automatic exit dump goes ("" = no dump).
  std::string dump_path() const;

  /// Events currently held across all thread buffers (post-overwrite).
  size_t NumBufferedEvents() const;
  uint64_t NumDroppedEvents() const;

  /// Drops all buffered events (buffers stay registered).  Tests only.
  void Clear();

  /// Ring capacity for buffers created after the call (existing buffers are
  /// unchanged).  Also configurable at startup via the CDPIPE_TRACE_RING
  /// environment variable.
  void SetRingCapacityForNewThreads(size_t capacity);
  size_t ring_capacity_for_new_threads() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  ~Tracer();

 private:
  struct ThreadBuffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> ring;  ///< sized to capacity on first event
    size_t capacity = 0;
    size_t next = 0;       ///< write cursor
    bool wrapped = false;  ///< ring has overwritten at least once
    uint64_t dropped = 0;
    uint32_t tid = 0;      ///< stable small id for the trace output
  };

  Tracer();
  ThreadBuffer* BufferForThisThread();
  void AppendEventsLocked(const ThreadBuffer& buffer,
                          std::vector<std::pair<uint32_t, TraceEvent>>* out)
      const;

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> ring_capacity_{1u << 16};
  std::atomic<uint32_t> next_tid_{1};
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string dump_path_;
};

/// RAII span: records [construction, destruction) into the global tracer.
/// When tracing is disabled the constructor is one atomic load and the
/// destructor a branch — cheap enough for per-chunk and per-component use.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "cdpipe")
      : active_(Tracer::Global().enabled()), name_(name), category_(category) {
    if (active_) {
      corr_ = CorrelationScope::Current();
      start_us_ = Tracer::NowMicros();
    }
  }

  /// Dynamic-name variant (e.g. a pipeline component's name).  The string is
  /// only copied when tracing is enabled.
  explicit ScopedSpan(const std::string& name,
                      const char* category = "cdpipe")
      : active_(Tracer::Global().enabled()), category_(category) {
    if (active_) {
      owned_name_ = name;
      name_ = owned_name_.c_str();
      corr_ = CorrelationScope::Current();
      start_us_ = Tracer::NowMicros();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (active_) {
      Tracer::Global().RecordComplete(name_, category_, start_us_,
                                      Tracer::NowMicros() - start_us_, corr_);
    }
  }

 private:
  bool active_;
  const char* name_ = "";
  const char* category_;
  int64_t start_us_ = 0;
  CorrelationId corr_;
  std::string owned_name_;
};

#define CDPIPE_SPAN_CONCAT_IMPL_(a, b) a##b
#define CDPIPE_SPAN_CONCAT_(a, b) CDPIPE_SPAN_CONCAT_IMPL_(a, b)
/// Declares a scoped span covering the rest of the enclosing block.
#define CDPIPE_TRACE_SPAN(...) \
  ::cdpipe::obs::ScopedSpan CDPIPE_SPAN_CONCAT_(cdpipe_span_, \
                                                __COUNTER__)(__VA_ARGS__)

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_TRACE_H_
