#include "core/stream.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pelican::core {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Lazily-registered stream metrics; never touched while metrics are off.
struct StreamMetrics {
  obs::Counter records;
  obs::Counter alerts;
  obs::Counter quarantined;
  obs::Counter labeled;
  obs::Histogram latency_seconds;
  obs::Gauge drift_score;
  obs::Gauge drifted_features;
  obs::Gauge detection_rate;
  obs::Gauge accuracy;
  obs::Gauge false_alarm_rate;
};
StreamMetrics& StreamCounters() {
  auto& reg = obs::Registry::Global();
  static StreamMetrics m{
      reg.GetCounter("pelican_stream_records_total",
                     "Records ingested by StreamDetector"),
      reg.GetCounter("pelican_stream_alerts_total",
                     "Attack verdicts raised (incl. suppressed)"),
      reg.GetCounter("pelican_stream_quarantined_total",
                     "Malformed records quarantined"),
      reg.GetCounter("pelican_stream_labeled_total",
                     "Records ingested with ground-truth labels"),
      reg.GetHistogram("pelican_stream_record_seconds",
                       "Per-record Ingest latency",
                       obs::DefaultTimeBuckets()),
      reg.GetGauge("pelican_stream_drift_score",
                   "Max per-feature z-score of the windowed mean vs the "
                   "training baseline"),
      reg.GetGauge("pelican_stream_drifted_features",
                   "Features whose windowed-mean z-score exceeds the "
                   "threshold"),
      reg.GetGauge("pelican_stream_window_detection_rate",
                   "Rolling DR (eq. 4) over the labeled window"),
      reg.GetGauge("pelican_stream_window_accuracy",
                   "Rolling ACC (eq. 3) over the labeled window"),
      reg.GetGauge("pelican_stream_window_false_alarm_rate",
                   "Rolling FAR (eq. 5) over the labeled window")};
  return m;
}

}  // namespace

std::string StreamStatsJson(const StreamStats& stats) {
  obs::Json json;
  json.Set("active", true);
  json.Set("processed", stats.processed);
  json.Set("alerts", stats.alerts);
  json.Set("suppressed", stats.suppressed);
  json.Set("quarantined", stats.quarantined);
  json.Set("labeled", stats.labeled);
  json.Set("window_alert_rate", stats.window_alert_rate);
  json.Set("window_low_confidence", stats.window_low_confidence);
  // NaN (no labels yet) renders as null — see obs::Json.
  json.Set("window_detection_rate", stats.window_detection_rate);
  json.Set("window_accuracy", stats.window_accuracy);
  json.Set("window_false_alarm_rate", stats.window_false_alarm_rate);
  json.Set("window_labeled", stats.window_labeled);
  json.Set("window_drift_score", stats.window_drift_score);
  json.Set("window_drifted_features", stats.window_drifted_features);
  std::string per_class = "[";
  for (std::size_t i = 0; i < stats.per_class.size(); ++i) {
    if (i > 0) per_class += ", ";
    per_class += std::to_string(stats.per_class[i]);
  }
  per_class += "]";
  json.SetRaw("per_class", per_class);
  return json.Str();
}

bool IsMalformedRecord(const data::Schema& schema,
                       std::span<const double> raw_record) {
  if (raw_record.size() != schema.ColumnCount()) return true;
  for (std::size_t i = 0; i < raw_record.size(); ++i) {
    const double v = raw_record[i];
    if (!std::isfinite(v)) return true;
    const auto& col = schema.Column(i);
    if (col.kind == data::ColumnKind::kCategorical && !col.InVocabulary(v)) {
      return true;
    }
  }
  return false;
}

// ---- QualityMonitor --------------------------------------------------------

QualityMonitor::QualityMonitor(std::size_t n_classes, std::size_t n_features,
                               std::size_t window, int normal_label,
                               double drift_z_threshold)
    : n_features_(n_features),
      window_(window),
      normal_label_(normal_label),
      z_threshold_(drift_z_threshold),
      cm_(n_classes, window),
      ring_(window * n_features, 0.0F),
      sum_(n_features, 0.0) {
  PELICAN_CHECK(window >= 1);
  PELICAN_CHECK(n_features >= 1);
  PELICAN_CHECK(drift_z_threshold > 0.0);
}

void QualityMonitor::ObserveFeatures(std::span<const float> scaled_row) {
  PELICAN_CHECK(scaled_row.size() == n_features_,
                "feature width mismatch in drift monitor");
  float* slot = ring_.data() + next_ * n_features_;
  if (count_ == window_) {  // evict the row this slot still holds
    for (std::size_t d = 0; d < n_features_; ++d) sum_[d] -= slot[d];
  } else {
    ++count_;
  }
  for (std::size_t d = 0; d < n_features_; ++d) {
    slot[d] = scaled_row[d];
    sum_[d] += scaled_row[d];
  }
  next_ = (next_ + 1) % window_;
}

void QualityMonitor::ObserveLabeled(int truth, int predicted) {
  cm_.Record(truth, predicted);
}

QualityMonitor::Snapshot QualityMonitor::Current() const {
  Snapshot snap;
  const std::uint64_t labeled = cm_.Matrix().Total() < 0
                                    ? 0
                                    : static_cast<std::uint64_t>(
                                          cm_.Matrix().Total());
  snap.labeled_in_window = labeled;
  if (labeled == 0) {
    snap.detection_rate = kNaN;
    snap.accuracy = kNaN;
    snap.false_alarm_rate = kNaN;
  } else {
    const auto binary =
        metrics::CollapseToBinary(cm_.Matrix(), normal_label_);
    snap.detection_rate = binary.DetectionRate();
    snap.accuracy = cm_.Matrix().Accuracy();
    snap.false_alarm_rate = binary.FalseAlarmRate();
  }
  if (count_ > 0) {
    const double sqrt_n = std::sqrt(static_cast<double>(count_));
    for (std::size_t d = 0; d < n_features_; ++d) {
      const double z =
          std::abs(sum_[d] / static_cast<double>(count_)) * sqrt_n;
      if (z > snap.drift_score) snap.drift_score = z;
      if (z > z_threshold_) ++snap.drifted_features;
    }
  }
  return snap;
}

void QualityMonitor::Reset() {
  cm_.Reset();
  next_ = 0;
  count_ = 0;
  std::fill(sum_.begin(), sum_.end(), 0.0);
}

// ---- StreamDetector --------------------------------------------------------

StreamDetector::StreamDetector(const PelicanIds& ids, StreamConfig config)
    : ids_(&ids),
      config_(config),
      per_class_(ids.schema().LabelCount(), 0),
      window_(config.window),
      quality_(ids.schema().LabelCount(),
               static_cast<std::size_t>(ids.schema().EncodedWidth()),
               config.window, ids.normal_label(),
               config.drift_z_threshold) {
  PELICAN_CHECK(ids.Trained(), "StreamDetector needs a trained model");
  PELICAN_CHECK(config_.window >= 1);
  PELICAN_CHECK(config_.low_confidence >= 0.0F &&
                config_.low_confidence <= 1.0F);
  PELICAN_CHECK(config_.max_window_alert_rate > 0.0 &&
                config_.max_window_alert_rate <= 1.0);
}

std::optional<Alert> StreamDetector::Ingest(
    std::span<const double> raw_record, std::optional<int> truth_label) {
  auto alerts = IngestRows(raw_record, 1,
                           truth_label ? &*truth_label : nullptr, nullptr);
  if (alerts.empty()) return std::nullopt;
  return std::move(alerts.front());
}

std::vector<PelicanIds::Verdict> StreamDetector::IngestAll(
    const data::RawDataset& records,
    const std::function<void(const Alert&)>& on_alert,
    bool labels_for_quality) {
  const std::size_t batch = ids_->scoring_batch();
  const std::size_t width = records.schema().ColumnCount();
  std::vector<PelicanIds::Verdict> verdicts;
  for (std::size_t start = 0; start < records.Size(); start += batch) {
    const std::size_t rows = std::min(batch, records.Size() - start);
    for (const Alert& alert : IngestRows(
             records.Cells().subspan(start * width, rows * width), rows,
             labels_for_quality ? records.Labels().data() + start : nullptr,
             &verdicts)) {
      if (on_alert) on_alert(alert);
    }
  }
  return verdicts;
}

std::vector<Alert> StreamDetector::IngestRows(
    std::span<const double> cells, std::size_t rows, const int* truths,
    std::vector<PelicanIds::Verdict>* verdicts) {
  obs::TraceSpan span("stream_ingest", "stream");
  const bool timed = obs::MetricsEnabled();
  const auto t0 = timed ? Clock::now() : Clock::time_point{};
  const std::size_t width = cells.size() / rows;
  std::vector<char> malformed(rows);
  std::vector<double> live;  // the rows that are scored
  for (std::size_t i = 0; i < rows; ++i) {
    const auto row = cells.subspan(i * width, width);
    malformed[i] = IsMalformedRecord(ids_->schema(), row) ? 1 : 0;
    if (malformed[i] == 0) live.insert(live.end(), row.begin(), row.end());
  }
  Tensor scaled;
  auto scored = ids_->InspectRows(live, &scaled);
  const double seconds =
      timed ? std::chrono::duration<double>(Clock::now() - t0).count() /
                  static_cast<double>(rows)
            : 0.0;

  std::vector<Alert> alerts;
  std::lock_guard lock(mu_);
  for (std::size_t i = 0, j = 0; i < rows; ++i) {
    std::optional<int> truth;
    if (truths != nullptr) truth = truths[i];
    std::optional<Alert> alert;
    if (malformed[i] != 0) {
      alert = Record(nullptr, {}, truth, seconds);
    } else {
      alert = Record(&scored[j], scaled.Row(static_cast<std::int64_t>(j)),
                     truth, seconds);
      ++j;
    }
    if (alert.has_value()) alerts.push_back(std::move(*alert));
  }
  if (verdicts != nullptr) {
    for (auto& verdict : scored) verdicts->push_back(std::move(verdict));
  }
  return alerts;
}

std::optional<Alert> StreamDetector::Record(
    const PelicanIds::Verdict* verdict, std::span<const float> scaled_row,
    std::optional<int> truth_label, double seconds) {
  std::optional<Alert> alert;
  if (verdict == nullptr) {
    // Count it against the stream position but keep the detector on
    // the wire: no verdict, no window entry, no quality update.
    ++processed_;
    ++quarantined_;
  } else {
    if (truth_label.has_value()) {
      PELICAN_CHECK(*truth_label >= 0 &&
                        static_cast<std::size_t>(*truth_label) <
                            ids_->schema().LabelCount(),
                    "truth label out of range");
    }
    const std::uint64_t sequence = processed_++;
    per_class_[static_cast<std::size_t>(verdict->label)]++;

    quality_.ObserveFeatures(scaled_row);
    if (truth_label.has_value()) {
      ++labeled_;
      quality_.ObserveLabeled(*truth_label, verdict->label);
    }

    // Window rate *before* this record decides suppression, so the
    // first alert of a flood always gets through unflagged.
    const double rate_before =
        window_size_ == 0 ? 0.0
                          : static_cast<double>(window_attacks_) /
                                static_cast<double>(window_size_);
    WindowEntry& slot = window_[window_next_];
    if (window_size_ == window_.size()) {  // evict the oldest verdict
      window_attacks_ -= slot.attack ? 1 : 0;
      window_low_confidence_ -= slot.low_confidence ? 1 : 0;
    } else {
      ++window_size_;
    }
    slot = {verdict->is_attack, verdict->confidence < config_.low_confidence};
    window_attacks_ += slot.attack ? 1 : 0;
    window_low_confidence_ += slot.low_confidence ? 1 : 0;
    window_next_ = (window_next_ + 1) % window_.size();

    if (verdict->is_attack) {
      ++alerts_;
      alert = Alert{sequence, verdict->label, verdict->class_name,
                    verdict->confidence,
                    rate_before > config_.max_window_alert_rate};
      if (alert->suppressed) ++suppressed_;
    }
  }
  if (obs::MetricsEnabled()) {
    auto& m = StreamCounters();
    m.records.Inc();
    if (alert.has_value()) m.alerts.Inc();
    if (verdict == nullptr) m.quarantined.Inc();
    if (truth_label.has_value()) m.labeled.Inc();
    m.latency_seconds.Observe(seconds);
    const auto snap = quality_.Current();
    m.drift_score.Set(snap.drift_score);
    m.drifted_features.Set(static_cast<double>(snap.drifted_features));
    if (snap.labeled_in_window > 0) {
      m.detection_rate.Set(snap.detection_rate);
      m.accuracy.Set(snap.accuracy);
      m.false_alarm_rate.Set(snap.false_alarm_rate);
    }
  }
  return alert;
}

StreamStats StreamDetector::Stats() const {
  std::lock_guard lock(mu_);
  StreamStats stats;
  stats.processed = processed_;
  stats.alerts = alerts_;
  stats.suppressed = suppressed_;
  stats.quarantined = quarantined_;
  stats.labeled = labeled_;
  stats.per_class = per_class_;
  if (window_size_ > 0) {
    stats.window_alert_rate = static_cast<double>(window_attacks_) /
                              static_cast<double>(window_size_);
    stats.window_low_confidence = static_cast<double>(window_low_confidence_) /
                                  static_cast<double>(window_size_);
  }
  const auto snap = quality_.Current();
  stats.window_detection_rate = snap.detection_rate;
  stats.window_accuracy = snap.accuracy;
  stats.window_false_alarm_rate = snap.false_alarm_rate;
  stats.window_labeled = snap.labeled_in_window;
  stats.window_drift_score = snap.drift_score;
  stats.window_drifted_features = snap.drifted_features;
  return stats;
}

void StreamDetector::ResetWindow() {
  std::lock_guard lock(mu_);
  window_next_ = 0;
  window_size_ = 0;
  window_attacks_ = 0;
  window_low_confidence_ = 0;
  quality_.Reset();
}

}  // namespace pelican::core
