#include "src/dataframe/column.h"

#include "src/common/logging.h"

namespace cdpipe {
namespace {

bool IsIntLike(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kTimestamp;
}

}  // namespace

void Column::EnsureBitmap() {
  // The bitmap trails the column lazily: it is empty until the first null,
  // then always sized for the current row count.
  null_words_.resize((size_ + 64) >> 6, 0);
}

void Column::AppendDouble(double v) {
  CDPIPE_CHECK(type_ == ValueType::kDouble);
  doubles_.push_back(v);
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendInt64(int64_t v) {
  CDPIPE_CHECK(IsIntLike(type_));
  ints_.push_back(v);
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendString(std::string_view v) {
  CDPIPE_CHECK(type_ == ValueType::kString);
  CDPIPE_CHECK(!borrowed_);
  if (offsets_.empty()) offsets_.push_back(0);
  arena_.append(v.data(), v.size());
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendBorrowedString(std::string_view v) {
  CDPIPE_CHECK(type_ == ValueType::kString);
  CDPIPE_CHECK(arena_.empty());
  borrowed_ = true;
  views_.push_back(v);
  ++size_;
  if (!null_words_.empty()) EnsureBitmap();
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      ints_.push_back(0);
      break;
    case ValueType::kString:
      if (borrowed_) {
        views_.push_back(std::string_view());
      } else {
        if (offsets_.empty()) offsets_.push_back(0);
        offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      }
      break;
    case ValueType::kNull:
      break;
  }
  ++size_;
  EnsureBitmap();
  null_words_[(size_ - 1) >> 6] |= uint64_t{1} << ((size_ - 1) & 63u);
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (v.type() != type_) {
    return Status::InvalidArgument(
        std::string("cell type ") + ValueTypeName(v.type()) +
        " does not match column type " + ValueTypeName(type_));
  }
  switch (type_) {
    case ValueType::kDouble:
      AppendDouble(v.double_value());
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      AppendInt64(v.int64_value());
      break;
    case ValueType::kString:
      AppendString(v.string_value());
      break;
    case ValueType::kNull:
      break;
  }
  return Status::OK();
}

void Column::Reserve(size_t rows) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.reserve(rows);
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      ints_.reserve(rows);
      break;
    case ValueType::kString:
      if (borrowed_) {
        views_.reserve(rows);
      } else {
        offsets_.reserve(rows + 1);
      }
      break;
    case ValueType::kNull:
      break;
  }
}

Value Column::ValueAt(size_t i) const {
  CDPIPE_CHECK(i < size_);
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kDouble:
      return Value::Double(doubles_[i]);
    case ValueType::kInt64:
      return Value::Int64(ints_[i]);
    case ValueType::kTimestamp:
      return Value::Timestamp(ints_[i]);
    case ValueType::kString:
      return Value::String(std::string(StringAt(i)));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Column Column::Filter(const std::vector<uint8_t>& keep) const {
  CDPIPE_CHECK(keep.size() == size_);
  Column out(type_);
  out.borrowed_ = borrowed_;
  for (size_t i = 0; i < size_; ++i) {
    if (!keep[i]) continue;
    if (IsNull(i)) {
      out.AppendNull();
      continue;
    }
    switch (type_) {
      case ValueType::kDouble:
        out.AppendDouble(doubles_[i]);
        break;
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        out.AppendInt64(ints_[i]);
        break;
      case ValueType::kString:
        if (borrowed_) {
          out.AppendBorrowedString(views_[i]);
        } else {
          out.AppendString(StringAt(i));
        }
        break;
      case ValueType::kNull:
        ++out.size_;
        break;
    }
  }
  return out;
}

void Column::MarkNull(size_t i) {
  CDPIPE_CHECK(i < size_);
  EnsureBitmap();
  null_words_[i >> 6] |= uint64_t{1} << (i & 63u);
}

size_t Column::ByteSize() const {
  size_t total = doubles_.size() * sizeof(double) +
                 ints_.size() * sizeof(int64_t) + arena_.size() +
                 offsets_.size() * sizeof(uint32_t) +
                 views_.size() * sizeof(std::string_view) +
                 null_words_.size() * sizeof(uint64_t);
  return total;
}

}  // namespace cdpipe
