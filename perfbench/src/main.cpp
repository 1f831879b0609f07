// perfbench — the paper-shape Residual-41 benchmark binary.
//
//   perfbench prepare --workload W --seed S --dir D [--tiny]
//   perfbench run --workload W --seed S --dir D --seconds T
//                 [--git DESCRIBE] [--trace-out trace.json] [--tiny]
//
// `prepare` writes the seeded fixture (corpus CSV + trained model with
// sidecars) into D; `run` measures one workload on it and prints the
// result JSON as its last stdout line. --git names the measured commit
// in the manifest. With --trace-out the run is the traced one: spans
// around every library call, the per-layer census, and a Chrome trace
// written to the given path. perfbench/run.py drives both steps.
#include <cstdio>
#include <cstring>
#include <exception>

#include "bench.h"
#include "common/thread_pool.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    if (argc < 2) {
      std::fprintf(stderr, "usage: perfbench prepare|run --workload W ...\n");
      return 2;
    }
    const std::string mode = argv[1];
    Options o;
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--workload") {
        o.workload = value();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
      } else if (flag == "--dir") {
        o.dir = value();
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
      } else if (flag == "--git") {
        o.git = value();
      } else if (flag == "--trace-out") {
        o.trace_out = value();
      } else if (flag == "--tiny") {
        o.tiny = true;
      } else {
        throw std::runtime_error("unknown flag " + flag);
      }
    }
    (void)SpecFor(o);  // rejects unknown workloads
    pelican::SetThreads(kThreads);
    if (mode == "prepare") {
      Prepare(o);
      return 0;
    }
    if (mode != "run") throw std::runtime_error("unknown mode " + mode);

    Tracer tracer;
    Tracer* tr = o.trace_out.empty() ? nullptr : &tracer;
    Report report(tr != nullptr);
    if (o.workload == "train_unsw196") {
      RunTrain(o, report, tr);
    } else {
      RunClassify(o, o.workload == "classify_nsl121_int8", report, tr);
    }
    const std::string manifest = HostManifest(o.git, kScorers);
    if (tr != nullptr) {
      report.Note("self time by span name (ms, top 20):");
      const auto self = tracer.SelfTimeUs();
      for (std::size_t i = 0; i < std::min<std::size_t>(20, self.size()); ++i) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-32s %10.2f", self[i].first.c_str(),
                      self[i].second / 1e3);
        report.Note(line);
      }
      tracer.WriteChromeTrace(o.trace_out, manifest);
      report.Note("chrome trace: " + o.trace_out);
    }
    return report.Print(manifest) == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
