#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/run_log.h"

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void Fnv64::Add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
}

std::string Fnv64::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// ---- Tracer -------------------------------------------------------------------

double Tracer::Us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Tracer::Begin(std::string name, std::uint64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), Us(Clock::now()), 0.0, parent, request});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = Us(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(std::string name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), Us(start), Us(end), parent, request});
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::SelfTimeUs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  std::vector<std::pair<std::string, double>> out(by_name.begin(),
                                                  by_name.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& manifest_json) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << manifest_json
      << ",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\""
        << pelican::obs::Json::Escape(s.name)
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

// ---- Report ---------------------------------------------------------------------

namespace {

Metric Summarize(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples, double value) {
  Metric m{name, unit};
  m.n = samples.size();
  m.value = value;
  m.p25 = Quantile(samples, 0.25);
  m.p75 = Quantile(samples, 0.75);
  return m;
}

}  // namespace

void Report::E2e(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples,
                 double (*aggregate)(std::vector<double>)) {
  metrics_.push_back(Summarize(traced_ ? "traced." + name : name, unit,
                               samples, aggregate(samples)));
}

void Report::Tail(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples,
                  double (*aggregate)(std::vector<double>)) {
  const double value = aggregate(samples);
  if (traced_) {
    metrics_.push_back(Summarize("traced." + name, unit, samples, value));
    return;
  }
  char line[128];
  std::snprintf(line, sizeof line, "%s (tail, not end-to-end): %.4f %s, n=%zu",
                name.c_str(), value, unit.c_str(), samples.size());
  notes_.push_back(line);
}

void Report::Layer(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples) {
  if (traced_) metrics_.push_back(Summarize(name, unit, samples, Median(samples)));
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) Fail(1, "check failed: " + what);
}

void Report::Fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  notes_.push_back("FAIL (" + std::to_string(n) + "): " + what);
}

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t Report::Print(const std::string& manifest_json) const {
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("%s (name, value, unit, samples, quartiles of the samples):\n",
              traced_ ? "per-layer metrics (traced.*: as untraced)"
                      : "end-to-end metrics (aggregated over rounds)");
  for (const auto& m : metrics_) {
    std::printf("  %-30s %14.4f %-8s n=%-6zu p25=%.4f p75=%.4f\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.n, m.p25, m.p75);
  }
  std::printf("checks: %llu run, %llu operations attempted, %llu failed\n",
              static_cast<unsigned long long>(checks_),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::printf("manifest %s\n", manifest_json.c_str());

  // Metrics that could not be measured (no samples) print as -1 so the
  // line stays valid JSON; they also count as a failure.
  std::uint64_t unmeasured = 0;
  std::string values;
  for (const auto& m : metrics_) {
    const bool finite = std::isfinite(m.value);
    if (!finite) {
      ++unmeasured;
      std::fprintf(stderr, "metric %s has no value\n", m.name.c_str());
    }
    values += (values.empty() ? "\"" : ", \"") + m.name +
              "\": {\"value\": " + Num(finite ? m.value : -1.0) +
              ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::uint64_t failed = failed_ + unmeasured;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed), values.c_str());
  std::fflush(stdout);
  return failed;
}

// ---- host manifest ---------------------------------------------------------

namespace {

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "";
}

// The ISA extensions the kernels or -march=native could use.
std::string IsaFlags() {
  static const char* kInteresting[] = {
      "sse4_2",   "avx",      "avx2",        "fma",       "f16c",
      "avx512f",  "avx512bw", "avx512vl",    "avx512_vnni", "avx_vnni",
      "amx_int8", "amx_bf16", "avx512_bf16"};
  std::istringstream flags(" " + CpuInfoField("flags") + " ");
  std::vector<std::string> have;
  for (std::string f; flags >> f;) have.push_back(f);
  std::string out;
  for (const char* want : kInteresting) {
    if (std::find(have.begin(), have.end(), want) != have.end()) {
      out += (out.empty() ? "" : " ") + std::string(want);
    }
  }
  return out;
}

}  // namespace

std::string HostManifest(const std::string& git, std::size_t scorers) {
  pelican::obs::Json j;
  j.Set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.Set("cpu", CpuInfoField("model name"));
  j.Set("isa", IsaFlags());
  j.Set("compiler", pelican::obs::BuildCompiler());
  j.Set("build_type", PERFBENCH_BUILD_TYPE);
  j.Set("pelican_native", PERFBENCH_NATIVE);
  j.Set("git", git);
  j.Set("threads", static_cast<std::uint64_t>(pelican::EffectiveThreads()));
  j.Set("scorers", static_cast<std::uint64_t>(scorers));
  return j.Str();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB → MB
    }
  }
  return std::nan("");
}

}  // namespace perfbench
