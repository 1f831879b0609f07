#include "data/encoder.h"

namespace pelican::data {

OneHotEncoder::OneHotEncoder(const Schema& schema)
    : schema_(&schema), width_(schema.EncodedWidth()) {
  offsets_.reserve(schema.ColumnCount());
  std::int64_t offset = 0;
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    const auto& col = schema.Column(c);
    offsets_.push_back(offset);
    if (col.kind == ColumnKind::kNumeric) {
      names_.push_back(col.name);
      offset += 1;
    } else {
      for (const auto& cat : col.categories) {
        names_.push_back(col.name + "=" + cat);
      }
      offset += col.CategoryCount();
    }
  }
  PELICAN_CHECK(offset == width_);
}

void OneHotEncoder::EncodeRow(std::span<const double> row,
                              std::span<float> out) const {
  PELICAN_CHECK(row.size() == schema_->ColumnCount(), "row width mismatch");
  PELICAN_CHECK(static_cast<std::int64_t>(out.size()) == width_,
                "output width mismatch");
  std::fill(out.begin(), out.end(), 0.0F);
  for (std::size_t c = 0; c < row.size(); ++c) {
    const auto& col = schema_->Column(c);
    const std::int64_t base = offsets_[c];
    if (col.kind == ColumnKind::kNumeric) {
      out[static_cast<std::size_t>(base)] = static_cast<float>(row[c]);
    } else {
      PELICAN_CHECK(col.InVocabulary(row[c]),
                    "categorical cell out of vocabulary: " + col.name);
      const auto idx = static_cast<std::int64_t>(row[c]);
      out[static_cast<std::size_t>(base + idx)] = 1.0F;
    }
  }
}

Tensor OneHotEncoder::Transform(const RawDataset& dataset) const {
  const auto n = static_cast<std::int64_t>(dataset.Size());
  Tensor x({n, width_});
  for (std::int64_t i = 0; i < n; ++i) {
    EncodeRow(dataset.Row(static_cast<std::size_t>(i)), x.Row(i));
  }
  return x;
}

}  // namespace pelican::data
