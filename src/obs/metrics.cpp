#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "obs/json.h"

namespace pelican::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{false};

namespace {

enum class Kind { kCounter, kGauge, kHistogram };

// Series ids are globally unique (across every Registry instance) so
// one thread-local cache vector can index cells for all of them.
std::atomic<std::size_t>& NextSeriesId() {
  static std::atomic<std::size_t> next{0};
  return next;
}

// One thread's shard of one series. Only the owning thread writes; a
// scrape reads the atomics with relaxed loads. Counters use slot 0.
// Histograms use [0, nb) per-bucket counts (nb includes +Inf) and slot
// nb for the sum's double bits (owner load/store — never a RMW, so a
// plain relaxed pair suffices). The observation count is not stored:
// it is the sum of the bucket counts, derived at merge time, which
// keeps the hot Observe path at one RMW.
struct Cell {
  explicit Cell(std::size_t slots) : u(slots) {}
  std::vector<std::atomic<std::uint64_t>> u;
};

}  // namespace

struct Series {
  std::size_t id = 0;
  Kind kind = Kind::kCounter;
  std::string name;
  std::string help;
  Labels labels;
  std::vector<double> buckets;  // histogram upper bounds, excl. +Inf

  std::mutex mu;  // guards `cells` membership (not their contents)
  std::deque<std::unique_ptr<Cell>> cells;
  std::atomic<std::uint64_t> gauge_bits{0};

  [[nodiscard]] std::size_t CellSlots() const {
    return kind == Kind::kHistogram ? buckets.size() + 2 : 1;
  }

  Cell& LocalCell();
};

namespace {

thread_local std::vector<Cell*> t_cells;

double BitsToDouble(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t DoubleToBits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

Cell& Series::LocalCell() {
  if (t_cells.size() <= id) t_cells.resize(id + 1, nullptr);
  Cell* cell = t_cells[id];
  if (cell == nullptr) {  // first touch from this thread: register a shard
    std::lock_guard lock(mu);
    cells.push_back(std::make_unique<Cell>(CellSlots()));
    cell = cells.back().get();
    t_cells[id] = cell;
  }
  return *cell;
}

}  // namespace detail

void EnableMetrics(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void Counter::Inc(std::uint64_t n) {
  if (series_ == nullptr || !MetricsEnabled()) return;
  series_->LocalCell().u[0].fetch_add(n, std::memory_order_relaxed);
}

void Gauge::Set(double value) {
  if (series_ == nullptr || !MetricsEnabled()) return;
  series_->gauge_bits.store(detail::DoubleToBits(value),
                            std::memory_order_relaxed);
}

void Histogram::Observe(double value) {
  if (series_ == nullptr || !MetricsEnabled()) return;
  detail::Cell& cell = series_->LocalCell();
  const auto& bounds = series_->buckets;
  const std::size_t nb = bounds.size() + 1;  // + the +Inf bucket
  std::size_t idx = 0;
  while (idx < bounds.size() && value > bounds[idx]) ++idx;
  cell.u[idx].fetch_add(1, std::memory_order_relaxed);
  // Sum slot: owner-only load/store (no RMW needed).
  const double sum =
      detail::BitsToDouble(cell.u[nb].load(std::memory_order_relaxed));
  cell.u[nb].store(detail::DoubleToBits(sum + value),
                   std::memory_order_relaxed);
}

HistogramBatch::HistogramBatch(Histogram h) : series_(h.series_) {
  if (series_ != nullptr && series_->buckets.size() + 1 <= kSlots) {
    bounds_ = &series_->buckets;
  }
}

void HistogramBatch::Observe(double value) {
  if (series_ == nullptr) return;
  if (bounds_ == nullptr) {  // oversized histogram: straight through
    Histogram(series_).Observe(value);
    return;
  }
  // A burst's values cluster: most land in the same bucket as the
  // previous observation, so test that slot before the linear scan.
  const auto& bounds = *bounds_;
  std::size_t idx = last_idx_;
  if (idx >= bounds.size() || value > bounds[idx] ||
      (idx > 0 && value <= bounds[idx - 1])) {
    idx = 0;
    while (idx < bounds.size() && value > bounds[idx]) ++idx;
    last_idx_ = idx;
  }
  ++counts_[idx];
  sum_ += value;
  ++n_;
}

void HistogramBatch::Flush() {
  if (n_ == 0 || series_ == nullptr || bounds_ == nullptr) return;
  if (MetricsEnabled()) {
    detail::Cell& cell = series_->LocalCell();
    const std::size_t nb = bounds_->size() + 1;
    for (std::size_t i = 0; i < nb; ++i) {
      if (counts_[i] != 0) {
        cell.u[i].fetch_add(counts_[i], std::memory_order_relaxed);
        counts_[i] = 0;
      }
    }
    const double sum =
        detail::BitsToDouble(cell.u[nb].load(std::memory_order_relaxed));
    cell.u[nb].store(detail::DoubleToBits(sum + sum_),
                     std::memory_order_relaxed);
  } else {
    for (std::size_t i = 0; i < kSlots; ++i) counts_[i] = 0;
  }
  sum_ = 0.0;
  n_ = 0;
}

std::vector<double> DefaultTimeBuckets() {
  return {1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3,
          4e-3, 16e-3, 64e-3,  0.25,  1.0,   4.0};
}

// ---- registry --------------------------------------------------------------

namespace {

std::string SeriesKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : (v < 0 ? "-Inf" : "NaN");
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

// HELP text has its own escape rules (only backslash and newline;
// quotes stay literal). An unescaped newline would start a bogus
// exposition line and break scrapers.
std::string EscapeHelp(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string LabelBlock(const Labels& labels, const char* extra_key = nullptr,
                       const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += std::string(extra_key) + "=\"" + extra_value + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

struct Registry::Impl {
  std::mutex mu;
  std::deque<std::unique_ptr<detail::Series>> series;  // stable pointers
  std::map<std::string, detail::Series*> by_key;
  std::map<std::string, detail::Series*> by_name;  // family representative

  detail::Series* GetOrCreate(detail::Kind kind, const std::string& name,
                              const std::string& help, Labels labels,
                              std::vector<double> buckets) {
    std::lock_guard lock(mu);
    const std::string key = SeriesKey(name, labels);
    auto it = by_key.find(key);
    if (it != by_key.end()) {
      PELICAN_CHECK(it->second->kind == kind,
                    "metric '" + name + "' re-registered with another kind");
      if (kind == detail::Kind::kHistogram) {
        PELICAN_CHECK(it->second->buckets == buckets,
                      "histogram '" + name + "' re-registered with "
                      "different buckets");
      }
      return it->second;
    }
    // Same family (name), different label set: the exposition format
    // emits HELP/TYPE once per family, so kind and help must agree
    // across every label set of the name.
    auto family = by_name.find(name);
    if (family != by_name.end()) {
      PELICAN_CHECK(family->second->kind == kind,
                    "metric family '" + name +
                        "' registered with conflicting kinds");
      PELICAN_CHECK(family->second->help == help,
                    "metric family '" + name +
                        "' registered with conflicting help text");
    }
    auto s = std::make_unique<detail::Series>();
    s->id = detail::NextSeriesId().fetch_add(1, std::memory_order_relaxed);
    s->kind = kind;
    s->name = name;
    s->help = help;
    s->labels = std::move(labels);
    s->buckets = std::move(buckets);
    detail::Series* raw = s.get();
    series.push_back(std::move(s));
    by_key[key] = raw;
    by_name.emplace(name, raw);  // first label set is the family rep
    return raw;
  }

  struct Merged {
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  // Merges every thread's shard of one series (relaxed reads; exact
  // once writers are quiescent, a live lower bound otherwise).
  static Merged Merge(detail::Series& s) {
    Merged m;
    std::lock_guard lock(s.mu);
    if (s.kind == detail::Kind::kGauge) {
      m.gauge =
          detail::BitsToDouble(s.gauge_bits.load(std::memory_order_relaxed));
      return m;
    }
    if (s.kind == detail::Kind::kHistogram) {
      const std::size_t nb = s.buckets.size() + 1;
      m.bucket_counts.assign(nb, 0);
      for (const auto& cell : s.cells) {
        for (std::size_t i = 0; i < nb; ++i) {
          m.bucket_counts[i] += cell->u[i].load(std::memory_order_relaxed);
        }
        m.sum += detail::BitsToDouble(
            cell->u[nb].load(std::memory_order_relaxed));
      }
      for (const std::uint64_t c : m.bucket_counts) m.count += c;
      return m;
    }
    for (const auto& cell : s.cells) {
      m.counter += cell->u[0].load(std::memory_order_relaxed);
    }
    return m;
  }
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::Global() {
  // Leaked: instrumented code in pool workers may run during static
  // destruction, and a destructed registry would dangle under them.
  static Registry* global = new Registry();
  return *global;
}

Counter Registry::GetCounter(const std::string& name, const std::string& help,
                             Labels labels) {
  return Counter(impl_->GetOrCreate(detail::Kind::kCounter, name, help,
                                    std::move(labels), {}));
}

Gauge Registry::GetGauge(const std::string& name, const std::string& help,
                         Labels labels) {
  return Gauge(impl_->GetOrCreate(detail::Kind::kGauge, name, help,
                                  std::move(labels), {}));
}

Histogram Registry::GetHistogram(const std::string& name,
                                 const std::string& help,
                                 std::vector<double> buckets, Labels labels) {
  PELICAN_CHECK(!buckets.empty(), "histogram needs at least one bucket");
  PELICAN_CHECK(std::is_sorted(buckets.begin(), buckets.end()),
                "histogram buckets must be ascending");
  return Histogram(impl_->GetOrCreate(detail::Kind::kHistogram, name, help,
                                      std::move(labels), std::move(buckets)));
}

std::string Registry::RenderPrometheus() {
  std::lock_guard lock(impl_->mu);
  // Group series sharing a family name so HELP/TYPE appear once.
  std::map<std::string, std::vector<detail::Series*>> families;
  for (const auto& s : impl_->series) families[s->name].push_back(s.get());

  std::string out;
  for (auto& [name, group] : families) {
    const char* type = group.front()->kind == detail::Kind::kCounter
                           ? "counter"
                           : group.front()->kind == detail::Kind::kGauge
                                 ? "gauge"
                                 : "histogram";
    out += "# HELP " + name + " " + EscapeHelp(group.front()->help) + "\n";
    out += "# TYPE " + name + " " + std::string(type) + "\n";
    for (detail::Series* s : group) {
      const Impl::Merged m = Impl::Merge(*s);
      if (s->kind == detail::Kind::kCounter) {
        out += name + LabelBlock(s->labels) + " " +
               std::to_string(m.counter) + "\n";
      } else if (s->kind == detail::Kind::kGauge) {
        out += name + LabelBlock(s->labels) + " " + FormatDouble(m.gauge) +
               "\n";
      } else {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s->buckets.size(); ++i) {
          cumulative += m.bucket_counts[i];
          out += name + "_bucket" +
                 LabelBlock(s->labels, "le", FormatDouble(s->buckets[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        cumulative += m.bucket_counts.back();
        out += name + "_bucket" + LabelBlock(s->labels, "le", "+Inf") + " " +
               std::to_string(cumulative) + "\n";
        out += name + "_sum" + LabelBlock(s->labels) + " " +
               FormatDouble(m.sum) + "\n";
        out += name + "_count" + LabelBlock(s->labels) + " " +
               std::to_string(m.count) + "\n";
      }
    }
  }
  return out;
}

std::string Registry::RenderJson() {
  std::lock_guard lock(impl_->mu);
  std::string out = "[";
  bool first = true;
  for (const auto& s : impl_->series) {
    const Impl::Merged m = Impl::Merge(*s);
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\": \"" + Json::Escape(s->name) + "\", \"type\": \"";
    out += s->kind == detail::Kind::kCounter
               ? "counter"
               : s->kind == detail::Kind::kGauge ? "gauge" : "histogram";
    out += "\", \"labels\": {";
    bool lfirst = true;
    for (const auto& [k, v] : s->labels) {
      if (!lfirst) out += ", ";
      lfirst = false;
      out += "\"" + Json::Escape(k) + "\": \"" + Json::Escape(v) + "\"";
    }
    out += "}";
    if (s->kind == detail::Kind::kCounter) {
      out += ", \"value\": " + std::to_string(m.counter);
    } else if (s->kind == detail::Kind::kGauge) {
      out += ", \"value\": " + FormatDouble(m.gauge);
    } else {
      out += ", \"buckets\": [";
      for (std::size_t i = 0; i < m.bucket_counts.size(); ++i) {
        if (i > 0) out += ", ";
        const std::string le = i < s->buckets.size()
                                   ? FormatDouble(s->buckets[i])
                                   : std::string("+Inf");
        out += "{\"le\": \"" + le +
               "\", \"count\": " + std::to_string(m.bucket_counts[i]) + "}";
      }
      out += "], \"sum\": " + FormatDouble(m.sum) +
             ", \"count\": " + std::to_string(m.count);
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::uint64_t Registry::CounterValue(const std::string& name,
                                     const Labels& labels) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->by_key.find(SeriesKey(name, labels));
  if (it == impl_->by_key.end()) return 0;
  return Impl::Merge(*it->second).counter;
}

double Registry::GaugeValue(const std::string& name, const Labels& labels) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->by_key.find(SeriesKey(name, labels));
  if (it == impl_->by_key.end()) return 0.0;
  return Impl::Merge(*it->second).gauge;
}

Registry::HistogramSnapshot Registry::HistogramValue(const std::string& name,
                                                     const Labels& labels) {
  HistogramSnapshot snap;
  std::lock_guard lock(impl_->mu);
  auto it = impl_->by_key.find(SeriesKey(name, labels));
  if (it == impl_->by_key.end()) return snap;
  const Impl::Merged m = Impl::Merge(*it->second);
  snap.upper_bounds = it->second->buckets;
  snap.bucket_counts = m.bucket_counts;
  snap.count = m.count;
  snap.sum = m.sum;
  return snap;
}

std::size_t Registry::SeriesCount() {
  std::lock_guard lock(impl_->mu);
  return impl_->series.size();
}

double HistogramQuantileDelta(const Registry::HistogramSnapshot& before,
                              const Registry::HistogramSnapshot& after,
                              double q) {
  const std::uint64_t total = after.count - before.count;
  if (total == 0) return -1.0;
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < after.bucket_counts.size(); ++i) {
    const std::uint64_t b =
        i < before.bucket_counts.size() ? before.bucket_counts[i] : 0;
    const double d = static_cast<double>(after.bucket_counts[i] - b);
    if (cum + d >= target && d > 0.0) {
      const double lo = i == 0 ? 0.0 : after.upper_bounds[i - 1];
      // +Inf bucket: report its lower edge rather than inventing mass.
      if (i >= after.upper_bounds.size()) return lo;
      return lo + (after.upper_bounds[i] - lo) * (target - cum) / d;
    }
    cum += d;
  }
  return after.upper_bounds.empty() ? -1.0 : after.upper_bounds.back();
}

void Registry::Reset() {
  std::lock_guard lock(impl_->mu);
  for (const auto& s : impl_->series) {
    std::lock_guard cells_lock(s->mu);
    s->gauge_bits.store(0, std::memory_order_relaxed);
    for (const auto& cell : s->cells) {
      for (auto& slot : cell->u) slot.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace pelican::obs
