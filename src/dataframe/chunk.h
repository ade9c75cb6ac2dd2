#ifndef CDPIPE_DATAFRAME_CHUNK_H_
#define CDPIPE_DATAFRAME_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/schema.h"
#include "src/linalg/sparse_vector.h"

namespace cdpipe {

/// Chunk identifier.  The data manager assigns each incoming raw chunk a
/// monotonically increasing timestamp which doubles as its unique id
/// (paper §4.2).
using ChunkId = int64_t;

/// Vectorized batch: one (sparse) feature vector and one label per example.
/// This is what the model consumes and what the chunk store materializes.
struct FeatureData {
  uint32_t dim = 0;
  std::vector<SparseVector> features;
  std::vector<double> labels;

  size_t num_rows() const { return features.size(); }
  size_t ByteSize() const;

  /// Internal-consistency check: features/labels aligned, dims match.
  Status Validate() const;
};

/// An immutable chunk of raw input records as received from the outside
/// world (one line per record).  Raw chunks are always retained by the
/// chunk store and are the source of re-materialization (paper §3.2).
struct RawChunk {
  ChunkId id = 0;
  /// Event-time of the chunk in seconds (used by time/window samplers and
  /// the deployment replay).
  int64_t event_time_seconds = 0;
  std::vector<std::string> records;

  size_t num_rows() const { return records.size(); }
  size_t ByteSize() const;
};

/// The pipeline's output for one raw chunk: materialized features plus a
/// reference (the id) back to the originating raw chunk.
struct FeatureChunk {
  ChunkId origin_id = 0;
  int64_t event_time_seconds = 0;
  FeatureData data;

  size_t num_rows() const { return data.num_rows(); }
  size_t ByteSize() const { return data.ByteSize(); }
};

}  // namespace cdpipe

#endif  // CDPIPE_DATAFRAME_CHUNK_H_
