#include "serve/wire.h"

#include <iterator>

#include "common/strings.h"
#include "data/csv.h"

namespace pelican::serve {

namespace {

// The wire's reason token for each data::RowDefect, in its order.
constexpr const char* kReasons[] = {"",           "empty",
                                    "width",      "unknown_category",
                                    "bad_number", "unknown_label",
                                    "non_finite"};
static_assert(std::size(kReasons) ==
              static_cast<std::size_t>(data::RowDefect::kNonFinite) + 1);

ParsedRecord ToRecord(data::CsvRow row) {
  if (row.defect != data::RowDefect::kNone) {
    return {false, kReasons[static_cast<std::size_t>(row.defect)], {}, {}};
  }
  return {true, "", std::move(row.cells), row.label};
}

}  // namespace

ParsedRecord ParseRecordLine(const data::Schema& schema,
                             std::string_view line) {
  return ToRecord(data::ParseCsvRow(schema, line, nullptr));
}

ParsedRecord WireParser::Parse(std::string_view line) const {
  return ToRecord(data::ParseCsvRow(*schema_, line, &vocab_));
}

std::string RenderVerdict(const core::PelicanIds::Verdict& v) {
  std::string out = "ok,";
  out += v.class_name;
  out += ',';
  out += FormatFixed(v.confidence, 6);
  return out;
}

}  // namespace pelican::serve
