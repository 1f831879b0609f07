#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "common/strings.h"

namespace pelican::data {

void WriteCsv(const RawDataset& dataset, std::ostream& out) {
  const Schema& schema = dataset.schema();
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    out << schema.Column(c).name << ',';
  }
  out << "label\n";
  for (std::size_t i = 0; i < dataset.Size(); ++i) {
    auto row = dataset.Row(i);
    for (std::size_t c = 0; c < row.size(); ++c) {
      const auto& col = schema.Column(c);
      if (col.kind == ColumnKind::kCategorical) {
        out << col.categories[static_cast<std::size_t>(row[c])];
      } else {
        out << FormatFixed(row[c], 6);
      }
      out << ',';
    }
    out << schema.LabelName(static_cast<std::size_t>(dataset.Label(i)))
        << '\n';
  }
  PELICAN_CHECK(out.good(), "CSV write failed");
}

void WriteCsvFile(const RawDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  PELICAN_CHECK(out.is_open(), "cannot open for writing: " + path);
  WriteCsv(dataset, out);
}

namespace {

// Index of `name` in `names` by linear scan; -1 if absent.
int FindName(const std::vector<std::string>& names, std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

// ReadCsv's message for a rejected line (kNone: it has no label).
std::string RowError(const Schema& schema, const CsvRow& row,
                     std::size_t line_no) {
  // The words for each RowDefect, in its order.
  constexpr const char* kWords[] = {
      "CSV row width mismatch", "", "CSV row width mismatch",
      "unknown category", "bad numeric cell", "unknown label",
      "non-finite numeric value"};
  std::string message = kWords[static_cast<std::size_t>(row.defect)];
  if (row.defect > RowDefect::kWidth) {
    message += " '" + std::string(row.field) + "' in column " +
               (row.column < schema.ColumnCount()
                    ? schema.Column(row.column).name
                    : std::string("label"));
  }
  return message + " at line " + std::to_string(line_no);
}

}  // namespace

CsvRow ParseCsvRow(const Schema& schema, std::string_view line,
                   const VocabularyIndex* vocab) {
  CsvRow row;
  const auto reject = [&row](RowDefect defect, std::size_t column,
                             std::string_view field) {
    row.defect = defect;
    row.column = column;
    row.field = field;
    return std::move(row);
  };
  const std::string_view text = Trim(line);
  if (text.empty()) return reject(RowDefect::kEmpty, 0, {});
  const std::size_t columns = schema.ColumnCount();
  const auto fields =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')) + 1;
  if (fields != columns && fields != columns + 1) {
    return reject(RowDefect::kWidth, 0, {});
  }
  std::size_t start = 0;
  const auto next_field = [&text, &start] {
    const std::size_t end = std::min(text.find(',', start), text.size());
    const std::string_view field = Trim(text.substr(start, end - start));
    start = end + 1;
    return field;
  };

  row.cells.resize(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    const ColumnSpec& col = schema.Column(c);
    const std::string_view field = next_field();
    if (col.kind == ColumnKind::kCategorical) {
      const int idx = vocab != nullptr ? vocab->CategoryIndex(c, field)
                                       : FindName(col.categories, field);
      if (idx < 0) return reject(RowDefect::kUnknownCategory, c, field);
      row.cells[c] = idx;
    } else if (!ParseDoubleLenient(field, &row.cells[c])) {
      return reject(RowDefect::kBadNumber, c, field);
    } else if (!std::isfinite(row.cells[c]) &&
               row.defect == RowDefect::kNone) {
      // Held, not returned: a later cell or the label may name a defect
      // that comes first in RowDefect's order.
      row.defect = RowDefect::kNonFinite;
      row.column = c;
      row.field = field;
    }
  }
  if (fields == columns + 1) {
    const std::string_view field = next_field();
    const int label = vocab != nullptr ? vocab->LabelIndex(field)
                                       : FindName(schema.Labels(), field);
    if (label < 0) return reject(RowDefect::kUnknownLabel, columns, field);
    row.label = label;
  }
  return row;
}

RawDataset ReadCsv(const Schema& schema, std::istream& in) {
  RawDataset dataset(schema);
  std::string line;
  PELICAN_CHECK(static_cast<bool>(std::getline(in, line)), "empty CSV");
  const auto header = Split(Trim(line), ',');
  PELICAN_CHECK(header.size() == schema.ColumnCount() + 1,
                "CSV header width mismatch");
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    PELICAN_CHECK(std::string(Trim(header[c])) == schema.Column(c).name,
                  "CSV header column mismatch: " + header[c]);
  }

  // One hash index per file: category/label resolution drops from O(V)
  // per cell to O(1), which dominates wide categorical files.
  const VocabularyIndex vocab(schema);
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    CsvRow row = ParseCsvRow(schema, line, &vocab);
    if (row.defect == RowDefect::kEmpty) continue;
    PELICAN_CHECK(row.defect == RowDefect::kNone && row.label.has_value(),
                  RowError(schema, row, line_no));
    dataset.Add(std::move(row.cells), *row.label);
  }
  return dataset;
}

RawDataset ReadCsvFile(const Schema& schema, const std::string& path) {
  std::ifstream in(path);
  PELICAN_CHECK(in.is_open(), "cannot open for reading: " + path);
  return ReadCsv(schema, in);
}

}  // namespace pelican::data
