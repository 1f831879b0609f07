// CSV import/export for RawDataset, so users can run the pipeline on
// the real NSL-KDD / UNSW-NB15 CSVs when they have them. Layout:
// header row of column names + final "label" column; categorical cells
// hold the category string, the label cell holds the class name.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"

namespace pelican::data {

// Writes `dataset` as CSV. Throws CheckError on I/O failure.
void WriteCsv(const RawDataset& dataset, std::ostream& out);
void WriteCsvFile(const RawDataset& dataset, const std::string& path);

// Why ParseCsvRow rejected a line. Of several defects the first in
// this order is named (cells in column order, the non-finite one last).
enum class RowDefect {
  kNone,
  kEmpty,            // nothing but whitespace
  kWidth,            // neither ColumnCount() nor ColumnCount() + 1 fields
  kUnknownCategory,  // categorical cell outside its column's vocabulary
  kBadNumber,        // numeric cell that is no decimal number
  kUnknownLabel,     // trailing label outside the schema's labels
  kNonFinite,        // numeric cell reading inf or nan
};

struct CsvRow {
  RowDefect defect = RowDefect::kNone;
  std::size_t column = 0;     // the defective cell (ColumnCount(): label)
  std::string_view field;     // its trimmed text, a view into the line
  std::vector<double> cells;  // ColumnCount() cells when defect == kNone
  std::optional<int> label;   // the trailing label, when there is one
};

// The one row grammar: parses a data line in the WriteCsv cell format,
// ColumnCount() cells (numbers as decimals, categories by name) and an
// optional label name. Never throws. `vocab` resolves names; null
// resolves them by a linear scan of the schema (the reference the hash
// index is tested against).
[[nodiscard]] CsvRow ParseCsvRow(const Schema& schema, std::string_view line,
                                 const VocabularyIndex* vocab);

// Reads a CSV that matches `schema`: a header naming its columns, then
// "label"; data lines through ParseCsvRow, each labeled; blank lines
// skipped. A rejected line (an "inf"/"nan" cell too) throws a
// CheckError naming the line and the bad cell's column and text.
RawDataset ReadCsv(const Schema& schema, std::istream& in);
RawDataset ReadCsvFile(const Schema& schema, const std::string& path);

}  // namespace pelican::data
