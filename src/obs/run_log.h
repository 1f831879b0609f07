// pelican::obs — structured run telemetry.
//
// A RunLog is an append-only JSONL file: one self-describing JSON
// object per line, flushed per event so a crashed run keeps every
// completed line. core::Trainer::Fit writes a run_start manifest
// (config, seed, thread count, build provenance), one "epoch" event
// per epoch, and a run_end manifest — see DESIGN.md §9 for the schema.
// Events land through the shared atomic LineSink, so a run log can
// share its file with other line writers without tearing.
#pragma once

#include <chrono>
#include <string>

#include "obs/json.h"
#include "obs/line_sink.h"

namespace pelican::obs {

class RunLog {
 public:
  RunLog() = default;  // inactive: Write() is a no-op

  // Opens (truncates) `path`. Throws CheckError when it can't.
  explicit RunLog(const std::string& path);

  [[nodiscard]] bool active() const { return sink_.active(); }

  // Appends one event as a single atomic line and flushes.
  void Write(const Json& event);

 private:
  LineSink sink_;
};

// UTC wall-clock time as "YYYY-MM-DDTHH:MM:SS.mmmZ". Formatting costs
// ~1µs (gmtime + snprintf) — hot paths should capture the time_point
// and format lazily at render time (the slow ring does).
std::string Iso8601(std::chrono::system_clock::time_point t);
std::string Iso8601Now();

// Build provenance baked in at compile time (obs/CMakeLists.txt).
std::string BuildCompiler();   // e.g. "g++ 12.2.0"
std::string BuildFlags();      // build type + sanitize knob
std::string GitDescribe();     // `git describe --always --dirty` or "unknown"

}  // namespace pelican::obs
