#ifndef CDPIPE_PIPELINE_FUSION_FUSION_H_
#define CDPIPE_PIPELINE_FUSION_FUSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"

namespace cdpipe {

class PipelineComponent;

/// Pipeline "compiler" (runtime specialization of the transform chain) —
/// the one execution path of every pipeline.
///
/// Every component contributes *block kernels* through its Fuse(): short,
/// pre-resolved stages that take a range of raw records straight to
/// FeatureData without materializing a table or feature batch between
/// components.  Column dispatch (schema lookups, column type resolution,
/// statistics snapshots, dictionary pointers) happens once when the stages
/// are built instead of once per row; per-block state lives in reusable
/// per-thread scratch buffers.
///
/// Two drivers run the same stages:
///
///  - The pure path (Pipeline::Transform) compiles the whole chain into a
///    FusedPlan, cached per (entry-schema fingerprint, pipeline state
///    version) and invalidated whenever component statistics change
///    (UpdateAndTransform / Reset / LoadState bump the version).
///  - The online path (Pipeline::UpdateAndTransform) walks the chain once
///    per chunk over a single block: at each stateful component an update
///    barrier folds the block's live rows into the statistics (the
///    component's block Update), and only then does the component's Fuse
///    add its stages, which run on the block before the walk moves on.
///    These per-chunk stages never enter the plan cache.
///
/// A component that cannot express its configuration as a block kernel
/// (missing or non-numeric column, table-only component on vectors)
/// returns an error from Fuse(); that error is what Transform /
/// UpdateAndTransform report.  Outputs are pinned bit for bit by the
/// transform-equivalence golden suite.
namespace fusion {

class PlanBuilder;

/// Order-sensitive fingerprint of (field name, field type) pairs — the plan
/// cache key component that captures "what shape of chunk does this plan
/// expect".  FNV-1a, stable across processes.
uint64_t SchemaFingerprint(const Schema& schema);

// ---------------------------------------------------------------------------
// Execution-time block state (lives in per-thread ExecScratch, reused
// across blocks and chunks; nothing here is shared between threads).
// ---------------------------------------------------------------------------

/// One column of a table block: flat typed storage plus a per-row null
/// byte mask.  The fused analogue of dataframe Column, without arenas or
/// ownership — string cells borrow the raw records, which outlive the
/// Transform call.
struct BlockColumn {
  ValueType type = ValueType::kNull;
  std::vector<double> d;
  std::vector<int64_t> i;
  std::vector<std::string_view> s;
  /// Parallel to rows; consulted only when `any_null`.
  std::vector<uint8_t> null;
  bool any_null = false;

  void Reset(ValueType t) {
    type = t;
    d.clear();
    i.clear();
    s.clear();
    null.clear();
    any_null = false;
  }

  bool IsNull(size_t r) const { return any_null && null[r] != 0; }

  /// True for the types NumericAt can read.
  bool is_numeric() const {
    return type == ValueType::kDouble || type == ValueType::kInt64 ||
           type == ValueType::kTimestamp;
  }

  /// Numeric cell; integer and timestamp cells widen by static_cast.
  double NumericAt(size_t r) const {
    return type == ValueType::kDouble ? d[r] : static_cast<double>(i[r]);
  }

  /// Widens an integer/timestamp column to double in place (all rows
  /// convert, null placeholders included), so numeric components can write
  /// fractional results into integer-typed input columns.
  void PromoteToDouble() {
    if (type == ValueType::kDouble) return;
    d.resize(i.size());
    for (size_t r = 0; r < i.size(); ++r) d[r] = static_cast<double>(i[r]);
    type = ValueType::kDouble;
  }
};

/// Table-state block: columns in plan-assigned physical slots plus a keep
/// mask.  Filters mark rows dead instead of materializing a filtered copy;
/// sinks and block Updates visit live rows in ascending row order.
struct TableBlock {
  size_t num_rows = 0;
  size_t live_rows = 0;
  std::vector<BlockColumn> cols;
  std::vector<uint8_t> keep;
};

/// Vector-state block: all rows' sparse entries concatenated, each row's
/// range collapsed (sorted, duplicate indices pre-summed — the exact
/// SparseVector::SortAndCombineInto preprocessing).
struct VecBlock {
  uint32_t dim = 0;
  std::vector<std::pair<uint32_t, double>> entries;
  /// Exclusive end offset of each row's entries.
  std::vector<uint32_t> row_end;
  std::vector<double> labels;
  /// True when any entry value is NaN — lets the imputer stage skip the
  /// whole block when there is nothing to fill.
  bool saw_nan = false;
  /// Rows whose entries contain at least one NaN (ascending; meaningful
  /// only while `saw_nan` is set).  The imputer rescans just these rows
  /// instead of the whole block.
  std::vector<uint32_t> nan_rows;

  size_t num_rows() const { return row_end.size(); }
};

/// Hash memo persisted across blocks, chunks, and plan recompiles: the
/// bucket/sign of a raw feature index depends only on the hasher's
/// immutable config, so the lazily filled array stays valid for the
/// lifetime of the scratch.  One packed word per raw index — set flag,
/// sign flag, bucket — so a lookup costs a single cache line, not three
/// (the memo is far larger than L1/L2 and lookups are random).
struct HasherMemo {
  static constexpr uint64_t kSet = uint64_t{1} << 63;
  static constexpr uint64_t kNegative = uint64_t{1} << 62;

  uint64_t seed = 0;
  uint32_t bits = 0;
  bool signed_hash = false;
  uint32_t dim = 0;
  std::vector<uint64_t> packed;

  bool Matches(uint64_t s, uint32_t b, bool sgn, uint32_t d) const {
    return !packed.empty() && seed == s && bits == b && signed_hash == sgn &&
           dim == d;
  }
};

/// Per-(component, plan) lazily filled statistics memo — mean/σ per key.
/// Unlike HasherMemo this caches *statistics-dependent* values, so it is
/// keyed by the owning component and the plan serial: any statistics
/// change produces a new serial (a recompiled plan, or the next chunk's
/// online walk) and implicitly invalidates it.
struct StatsMemo {
  /// One record per key so a lookup touches one cache line, not three.
  struct Entry {
    double mean = 0.0;
    double sd = 0.0;
    uint64_t seen = 0;
  };

  const void* owner = nullptr;
  uint64_t plan_serial = 0;
  std::vector<Entry> entries;
  /// σ-only variant for scalers that never subtract the mean (the sparse
  /// default): one double per dimension keeps the memo L1-sized at typical
  /// hashed dims.  -1 marks an unfilled cell (σ is never negative).
  std::vector<double> sd;
  /// Keys filled since the last rebind, in either variant.  A rebind resets
  /// just these cells: the online path rebinds once per chunk, and an
  /// O(dim) clear per chunk would cost more than the scaling itself.
  std::vector<uint32_t> filled;

  /// Binds the σ-only variant to (owner, serial) over `dim` keys.
  void BindSd(const void* o, uint64_t serial, size_t dim) {
    if (owner == o && plan_serial == serial && sd.size() == dim) return;
    Rebind(o, serial);
    if (sd.size() != dim) sd.assign(dim, -1.0);
  }
  /// Binds the (mean, σ) variant to (owner, serial) over `dim` keys.
  void BindEntries(const void* o, uint64_t serial, size_t dim) {
    if (owner == o && plan_serial == serial && entries.size() == dim) return;
    Rebind(o, serial);
    if (entries.size() != dim) entries.assign(dim, Entry{});
  }

 private:
  void Rebind(const void* o, uint64_t serial) {
    for (const uint32_t key : filled) {
      if (key < sd.size()) sd[key] = -1.0;
      if (key < entries.size()) entries[key].seen = 0;
    }
    filled.clear();
    owner = o;
    plan_serial = serial;
  }
};

/// Per-thread execution scratch.  Acquired from a ScratchPool for the
/// duration of one block; buffers keep their capacity between blocks.
struct ExecScratch {
  VecBlock vec;
  TableBlock table;
  HasherMemo hasher_memo;
  StatsMemo scaler_memo;
  // Reusable small buffers for per-row work.
  std::vector<std::string_view> tokens;
  std::vector<std::pair<uint32_t, double>> row_entries;
  std::vector<std::pair<uint32_t, double>> out_entries;
  std::vector<double> acc;
  std::vector<uint64_t> occupied;
  std::vector<uint64_t> summary;
  /// Buckets that received a two-way collision in the current row (the
  /// hasher's dense path sums pairs in place; a third hit forces the
  /// sorted fallback).
  std::vector<uint32_t> collided;
  std::vector<uint8_t> flags;
};

/// Everything a stage needs while processing one block.
struct ExecContext {
  const std::vector<std::string>* records = nullptr;
  size_t begin = 0;
  size_t end = 0;
  ExecScratch* scratch = nullptr;
  FeatureData* out = nullptr;
  /// Serial of the executing plan (see FusedPlan::serial), or of the
  /// online walk's per-chunk stages (see NextPlanSerial).
  uint64_t plan_serial = 0;
  /// (row x component) scans: every stage counts the live rows it is
  /// handed, once per component, so the cost model sees one scan per
  /// component per row (plus one update scan per stateful component on
  /// the online path).
  size_t rows_scanned = 0;
  /// Stages that did provably no per-row work on this block.
  size_t stages_elided = 0;

  size_t raw_rows() const { return end - begin; }
};

/// One compiled stage.  Immutable after compile; Run only mutates the
/// per-thread state reachable through `ctx`.
class FusedStage {
 public:
  virtual ~FusedStage() = default;
  virtual const char* label() const = 0;
  virtual Status Run(ExecContext& ctx) const = 0;
};

// ---------------------------------------------------------------------------
// Compile-time planning
// ---------------------------------------------------------------------------

/// Builder each component's Fuse() contributes to.  Tracks the simulated
/// batch representation (raw records -> table -> vector -> done) and the
/// logical schema, so downstream components resolve columns at compile
/// time.  A component that cannot express its configuration as a block
/// kernel returns a non-OK status from Fuse(), which fails the transform.
class PlanBuilder {
 public:
  enum class Repr { kRaw, kTable, kVec };

  explicit PlanBuilder(const Schema& entry_schema)
      : entry_schema_(&entry_schema) {}

  Repr repr() const { return repr_; }
  const Schema& entry_schema() const { return *entry_schema_; }

  // --- table state ---
  /// Logical schema of the simulated table (valid when repr()==kTable).
  const Schema& schema() const { return *schema_; }
  /// Physical slot of a logical field, or NotFound.
  Result<size_t> SlotOf(const std::string& field) const;
  ValueType SlotDeclaredType(size_t slot) const { return slot_types_[slot]; }
  /// Appends a field to the logical schema, returning its new slot.
  Result<size_t> AddSlot(const Field& field);
  /// Reorders/restricts the logical schema to `fields` (column projection).
  /// Physical slots are untouched — projection is free at runtime.
  Status Project(const std::vector<std::string>& fields);
  size_t num_slots() const { return slot_types_.size(); }

  // --- representation transitions ---
  Status BeginTable(std::shared_ptr<const Schema> schema);
  void BeginVec(uint32_t dim);
  uint32_t vec_dim() const { return vec_dim_; }

  void AddStage(std::unique_ptr<FusedStage> stage);
  /// Accounting-only stage: counts its scan and one elision per block, does
  /// no per-row work.  Used for provably no-op components (identity
  /// projections, statistics-free scalers).
  void AddElidedStage(const char* label);

  /// Appends the terminal stage that emits the vector block as FeatureData.
  /// FailedPrecondition unless the chain ends vectorized.
  Status AddSink();

  /// Runs the stages appended since the previous call, in order, on `ctx`.
  /// The online walk calls this after each component's Fuse, so every
  /// stage runs before the next component's update barrier reads the block.
  Status RunPendingStages(ExecContext& ctx);

 private:
  friend class FusedPlan;

  const Schema* entry_schema_;
  Repr repr_ = Repr::kRaw;
  std::shared_ptr<const Schema> schema_;
  /// Logical field index -> physical slot.
  std::vector<size_t> slot_of_field_;
  /// Physical slot -> declared type (as produced by the parser / deriver;
  /// runtime promotions are tracked per block in BlockColumn::type).
  std::vector<ValueType> slot_types_;
  uint32_t vec_dim_ = 0;
  std::vector<std::unique_ptr<FusedStage>> stages_;
  /// Stages already run by RunPendingStages.
  size_t executed_ = 0;
  size_t compile_elided_ = 0;
};

/// What an update barrier hands a stateful component's block Update: the
/// block exactly as the upstream stages left it, plus the plan under
/// construction, whose representation and slots are the ones the
/// component's Fuse compiles against next.  Updates fold only live rows
/// (TableBlock rows whose keep byte is set), in ascending row order.
struct UpdateBlock {
  const PlanBuilder& plan;
  const TableBlock& table;  ///< meaningful when plan.repr() == kTable
  const VecBlock& vec;      ///< meaningful when plan.repr() == kVec
};

/// A fresh process-unique serial for statistics-dependent scratch memos.
/// Every compiled plan takes one, and so does every chunk's online walk.
uint64_t NextPlanSerial();

/// Completes a block after its last stage: validates the emitted features,
/// adds the block's scans to `*rows_scanned` (when non-null) and reports
/// its elisions to the process-wide counter.
Status FinishBlock(const ExecContext& ctx, size_t* rows_scanned);

/// A compiled, immutable, thread-safe execution plan for one pipeline and
/// one entry schema at one statistics version.
class FusedPlan {
 public:
  struct Stats {
    uint64_t fingerprint = 0;
    size_t stages = 0;
    size_t compile_elided = 0;
  };

  /// Compiles `components` against `entry_schema`.  Fails with the first
  /// component's Fuse error, or FailedPrecondition when the chain does not
  /// end vectorized.
  static Result<std::shared_ptr<const FusedPlan>> Compile(
      const std::vector<std::unique_ptr<PipelineComponent>>& components,
      const Schema& entry_schema);

  /// Processes records [begin, end) through every stage into `*out`.
  /// `scratch` must be exclusively owned by the caller for the duration.
  Status Execute(const std::vector<std::string>& records, size_t begin,
                 size_t end, ExecScratch* scratch, FeatureData* out,
                 size_t* rows_scanned) const;

  const Stats& stats() const { return stats_; }

  /// Process-unique, assigned at compile time by NextPlanSerial.  Scratch
  /// memos of statistics-dependent values key on this: a recompile (after
  /// any statistics change) yields a new serial, never a reused one.
  uint64_t serial() const { return serial_; }

  std::string ToString() const;

 private:
  FusedPlan() = default;

  std::vector<std::unique_ptr<FusedStage>> stages_;
  Stats stats_;
  uint64_t serial_ = 0;
};

/// Free list of ExecScratch buffers shared by the (few) concurrent
/// transform shards of one pipeline.  Scratches survive plan recompiles —
/// only configuration-keyed memos (hasher buckets) persist across plans,
/// never statistics.
class ScratchPool {
 public:
  std::unique_ptr<ExecScratch> Acquire();
  void Release(std::unique_ptr<ExecScratch> scratch);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ExecScratch>> free_;
};

/// RAII lease on a pool scratch.
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool* pool)
      : pool_(pool), scratch_(pool->Acquire()) {}
  ~ScratchLease() { pool_->Release(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ExecScratch* get() { return scratch_.get(); }

 private:
  ScratchPool* pool_;
  std::unique_ptr<ExecScratch> scratch_;
};

/// Plan cache keyed by entry-schema fingerprint, validated against the
/// pipeline's statistics version.  Only compiled plans are cached: a chain
/// that fails to compile is a configuration error, returned to the caller
/// every time.  Thread-safe: Transform runs concurrently on engine workers.
class PlanCache {
 public:
  /// The cached plan for (entry schema, version), compiling on miss or
  /// version change.
  Result<std::shared_ptr<const FusedPlan>> GetOrCompile(
      const std::vector<std::unique_ptr<PipelineComponent>>& components,
      const Schema& entry_schema, uint64_t version);

  // Introspection (tests / reports); process-wide counterparts live in the
  // metrics registry as pipeline.plan_cache_hits / _misses /
  // pipeline.fused_plans.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t compiles() const {
    return compiles_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<const FusedPlan> plan;
    uint64_t version = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> compiles_{0};
};

/// Adds `n` to the process-wide pipeline.stages_elided counter (called once
/// per executed block, not per stage).
void CountStagesElided(size_t n);

}  // namespace fusion
}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_FUSION_FUSION_H_
