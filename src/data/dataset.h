// Raw (pre-encoding) dataset: one row of doubles per record, where
// categorical cells hold the category index, plus an integer class label
// per record. The OneHotEncoder turns this into the dense float matrix
// the networks consume.
#pragma once

#include <span>
#include <vector>

#include "data/schema.h"

namespace pelican::data {

class RawDataset {
 public:
  RawDataset() = default;
  explicit RawDataset(Schema schema) : schema_(std::move(schema)) {}

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t Size() const { return labels_.size(); }
  [[nodiscard]] bool Empty() const { return labels_.empty(); }

  // Appends a record. `cells.size()` must equal the schema column count;
  // categorical cells must be integral indices within the vocabulary.
  void Add(std::vector<double> cells, int label);

  [[nodiscard]] std::span<const double> Row(std::size_t i) const;
  // Every row's cells, row-major.
  [[nodiscard]] std::span<const double> Cells() const { return cells_; }
  [[nodiscard]] int Label(std::size_t i) const { return labels_.at(i); }
  [[nodiscard]] const std::vector<int>& Labels() const { return labels_; }

  // New dataset holding the rows at `indices` (in that order).
  [[nodiscard]] RawDataset Subset(std::span<const std::size_t> indices) const;

  // Per-label record counts (length = schema().LabelCount()).
  [[nodiscard]] std::vector<std::size_t> LabelHistogram() const;

 private:
  Schema schema_;
  std::vector<double> cells_;  // row-major, Size() × ColumnCount()
  std::vector<int> labels_;
};

}  // namespace pelican::data
