#include "data/dataset.h"

namespace pelican::data {

void RawDataset::Add(std::vector<double> cells, int label) {
  PELICAN_CHECK(cells.size() == schema_.ColumnCount(),
                "record width does not match schema");
  PELICAN_CHECK(label >= 0 &&
                    label < static_cast<int>(schema_.LabelCount()),
                "label out of range");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& col = schema_.Column(c);
    PELICAN_CHECK(col.kind != ColumnKind::kCategorical ||
                      col.InVocabulary(cells[c]),
                  "categorical cell out of vocabulary: " + col.name);
  }
  cells_.insert(cells_.end(), cells.begin(), cells.end());
  labels_.push_back(label);
}

std::span<const double> RawDataset::Row(std::size_t i) const {
  PELICAN_CHECK(i < Size());
  const std::size_t w = schema_.ColumnCount();
  return {cells_.data() + i * w, w};
}

RawDataset RawDataset::Subset(std::span<const std::size_t> indices) const {
  RawDataset out(schema_);
  for (std::size_t idx : indices) {
    auto row = Row(idx);
    out.Add(std::vector<double>(row.begin(), row.end()), Label(idx));
  }
  return out;
}

std::vector<std::size_t> RawDataset::LabelHistogram() const {
  std::vector<std::size_t> hist(schema_.LabelCount(), 0);
  for (int label : labels_) hist[static_cast<std::size_t>(label)]++;
  return hist;
}

}  // namespace pelican::data
