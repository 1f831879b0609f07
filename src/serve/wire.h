// The scoring data plane's wire protocol: line-delimited CSV in, one
// verdict line per record out, same order.
//
// Request line = one data row in the exact WriteCsv cell format —
// numeric cells as decimals, categorical cells by name — with either
// ColumnCount() fields or ColumnCount()+1 (a trailing label name,
// accepted for replaying labeled CSVs verbatim; validated, then
// ignored for scoring).
//
// Response lines:
//   ok,<class_name>,<confidence>   scored (confidence = %.6f softmax)
//   err,<reason>                   quarantined — empty, width,
//                                  bad_number, non_finite,
//                                  unknown_category, unknown_label,
//                                  oversized
//   busy,<reason>                  shed — queue_full, connections
//   late,<reason>                  dropped — deadline, timeout
//
// A malformed line costs exactly one err reply; the connection and the
// server keep going. The reason is data::ParseCsvRow's defect, the one
// row grammar data::ReadCsv also parses with, so a line with several
// defects is named in data::RowDefect's order.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pelican_ids.h"
#include "data/schema.h"

namespace pelican::serve {

inline constexpr std::string_view kBusyQueueReply = "busy,queue_full";
inline constexpr std::string_view kBusyConnectionsReply = "busy,connections";
inline constexpr std::string_view kLateDeadlineReply = "late,deadline";
inline constexpr std::string_view kLateTimeoutReply = "late,timeout";
inline constexpr std::string_view kErrOversizedReply = "err,oversized";

struct ParsedRecord {
  bool ok = false;
  std::string error;          // reason token when !ok
  std::vector<double> row;    // schema.ColumnCount() cells when ok
  std::optional<int> truth;   // trailing label, when present
};

// Parses + validates one request line through data::ParseCsvRow. Never
// throws: a defect lands in {ok=false, error=<reason>}. Resolves names
// by linear scan, O(V) per cell: the reference the hash-backed
// WireParser is tested against. Hot paths should hold a WireParser.
[[nodiscard]] ParsedRecord ParseRecordLine(const data::Schema& schema,
                                           std::string_view line);

// Schema-bound record parser for the serve/stream hot path: builds the
// category + label hash index once, then parses each line with O(1)
// vocabulary lookups. Produces byte-identical ParsedRecords to
// ParseRecordLine on every input. The referenced Schema must outlive
// the parser.
class WireParser {
 public:
  explicit WireParser(const data::Schema& schema)
      : schema_(&schema), vocab_(schema) {}

  [[nodiscard]] ParsedRecord Parse(std::string_view line) const;

 private:
  const data::Schema* schema_;
  data::VocabularyIndex vocab_;
};

// "ok,<class>,<%.6f confidence>" — the byte format the CLI's
// --verdicts-out mirrors, so serve vs batch comparison is `cmp`.
[[nodiscard]] std::string RenderVerdict(const core::PelicanIds::Verdict& v);

}  // namespace pelican::serve
