#ifndef CDPIPE_DATAFRAME_COLUMN_H_
#define CDPIPE_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/value.h"

namespace cdpipe {

/// One typed column of a relational batch.
///
/// Storage is contiguous per type — `double` and `int64`/timestamp cells
/// live in plain vectors, string cells in an offset-indexed byte arena —
/// with a packed null bitmap on the side (allocated only once the first
/// null arrives, so the all-valid fast path costs one empty() check).
/// Pipeline kernels read these vectors directly: no per-cell heap
/// allocation, no variant dispatch in inner loops.
///
/// String columns have a second, *borrowed* storage mode in which each cell
/// is a `std::string_view` into memory owned by someone else (e.g. a raw
/// chunk's records, for the spill codec).  A borrowed column is only valid
/// while its backing storage is alive.
///
/// Null cells keep a placeholder in the typed storage (0 / 0.0 / empty
/// string); the bitmap is authoritative.  Kernels must consult
/// `IsNull`/`has_nulls` rather than sniffing placeholder values.
class Column {
 public:
  Column() = default;
  explicit Column(ValueType type) : type_(type) {}

  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when at least one null has been appended (the bitmap exists).
  bool has_nulls() const { return !null_words_.empty(); }
  bool IsNull(size_t i) const {
    return !null_words_.empty() &&
           (null_words_[i >> 6] >> (i & 63u) & 1u) != 0;
  }

  /// True when string cells are views into externally owned memory.
  bool is_borrowed() const { return borrowed_; }

  // --- Typed appends (must match type(); CHECK-fails otherwise). ---
  void AppendDouble(double v);
  void AppendInt64(int64_t v);  ///< also for kTimestamp columns
  /// Copies the bytes into the column's arena.
  void AppendString(std::string_view v);
  /// Borrows the bytes; caller guarantees they outlive the column.  Only
  /// valid on a column that owns no arena bytes yet (all-borrowed or
  /// all-owned, never mixed).
  void AppendBorrowedString(std::string_view v);
  /// Appends a null placeholder and sets the bitmap bit.
  void AppendNull();
  /// Appends `v` (or null) with a type check against the column type.
  Status AppendValue(const Value& v);

  void Reserve(size_t rows);

  // --- Direct typed access for kernels. ---
  /// Contiguous payload of a kDouble column (placeholders at null slots).
  const std::vector<double>& doubles() const { return doubles_; }
  /// Contiguous payload of a kInt64/kTimestamp column.
  const std::vector<int64_t>& ints() const { return ints_; }
  /// String cell as a view (into the arena or the borrowed storage).
  std::string_view StringAt(size_t i) const {
    if (borrowed_) return views_[i];
    return std::string_view(arena_).substr(offsets_[i],
                                           offsets_[i + 1] - offsets_[i]);
  }

  /// Cell as a Value (interop / tests; not for inner loops).
  Value ValueAt(size_t i) const;

  /// New column with the rows whose `keep[i]` is non-zero, in order.
  /// Borrowed string cells stay borrowed (same backing storage).
  Column Filter(const std::vector<uint8_t>& keep) const;

  /// Marks row `i` null in place (placeholder value is left as is).
  void MarkNull(size_t i);

  /// Owned heap footprint (typed storage + arena + offsets + bitmap).
  /// Borrowed views count the view table only — the bytes belong to the raw
  /// chunk, which the storage layer accounts separately.
  size_t ByteSize() const;

 private:
  void EnsureBitmap();

  ValueType type_ = ValueType::kNull;
  size_t size_ = 0;
  std::vector<double> doubles_;
  std::vector<int64_t> ints_;
  /// Owned string storage: bytes + rows+1 offsets (lazily seeded with 0).
  std::string arena_;
  std::vector<uint32_t> offsets_;
  /// Borrowed string storage.
  std::vector<std::string_view> views_;
  bool borrowed_ = false;
  /// Packed null bitmap (bit set = null); empty means no nulls.
  std::vector<uint64_t> null_words_;
};

}  // namespace cdpipe

#endif  // CDPIPE_DATAFRAME_COLUMN_H_
