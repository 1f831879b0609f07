// Dataset schema: typed columns (numeric or categorical) plus label
// vocabulary. Mirrors how NSL-KDD / UNSW-NB15 CSVs are structured —
// mostly numeric traffic counters with a handful of high-cardinality
// categorical columns (protocol, service, flag/state).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace pelican::data {

enum class ColumnKind { kNumeric, kCategorical };

struct ColumnSpec {
  std::string name;
  ColumnKind kind = ColumnKind::kNumeric;
  // Category vocabulary, only for kCategorical. Cell values index into it.
  std::vector<std::string> categories;

  [[nodiscard]] std::int64_t CategoryCount() const {
    return static_cast<std::int64_t>(categories.size());
  }

  // The domain of a categorical cell: an integral index into
  // `categories`. NaN and ±inf fail.
  [[nodiscard]] bool InVocabulary(double cell) const {
    return cell == std::floor(cell) && cell >= 0.0 &&
           cell < static_cast<double>(categories.size());
  }
};

class Schema {
 public:
  Schema() = default;
  Schema(std::vector<ColumnSpec> columns, std::vector<std::string> labels);

  [[nodiscard]] std::size_t ColumnCount() const { return columns_.size(); }
  [[nodiscard]] const ColumnSpec& Column(std::size_t i) const {
    return columns_.at(i);
  }
  [[nodiscard]] const std::vector<ColumnSpec>& Columns() const {
    return columns_;
  }

  [[nodiscard]] std::size_t LabelCount() const { return labels_.size(); }
  [[nodiscard]] const std::string& LabelName(std::size_t i) const {
    return labels_.at(i);
  }
  [[nodiscard]] const std::vector<std::string>& Labels() const {
    return labels_;
  }
  // Index of a label name; -1 if unknown.
  [[nodiscard]] int LabelIndex(const std::string& name) const;
  // Index of a column name; -1 if unknown.
  [[nodiscard]] int ColumnIndex(const std::string& name) const;

  // Width of the dense feature vector after one-hot expansion
  // (numeric columns contribute 1, categorical contribute |vocab|).
  [[nodiscard]] std::int64_t EncodedWidth() const;

 private:
  std::vector<ColumnSpec> columns_;
  std::vector<std::string> labels_;
};

// Hash-map lookup tables over a schema's category and label
// vocabularies. Schema::LabelIndex and the per-column category scans
// are O(V) linear searches — fine for one-off lookups, but the CSV
// reader and the serve hot path resolve every categorical cell of
// every record; build one of these per schema (the referenced Schema
// must outlive it) and resolve in O(1).
class VocabularyIndex {
 public:
  explicit VocabularyIndex(const Schema& schema);

  // Category index of `value` within column `col`; -1 if unknown.
  // Accepts string_view so serve-path lookups don't allocate.
  [[nodiscard]] int CategoryIndex(std::size_t col,
                                  std::string_view value) const;

  // Label index of `name`; -1 if unknown.
  [[nodiscard]] int LabelIndex(std::string_view name) const;

 private:
  // Heterogeneous-lookup string hash (find by string_view, no copy).
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Map =
      std::unordered_map<std::string, int, StringHash, std::equal_to<>>;

  std::vector<Map> categories_;  // one map per column (empty if numeric)
  Map labels_;
};

}  // namespace pelican::data
