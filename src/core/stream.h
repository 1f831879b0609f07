// Streaming detector — the operational deployment of Fig. 1: the NIDS
// sits on the wire, classifies flow records as they arrive, raises
// alerts for the security team, and tracks rolling health statistics
// over a sliding window (alert rate, per-class counts, low-confidence
// fraction, and through QualityMonitor the paper's DR/ACC/FAR and the
// input's drift, DESIGN.md §10) so operators can spot drift or floods.
#pragma once

#include <functional>
#include <mutex>
#include <optional>

#include "core/pelican_ids.h"
#include "metrics/metrics.h"

namespace pelican::core {

struct Alert {
  std::uint64_t sequence = 0;       // 0-based ingest index
  int label = 0;
  std::string class_name;
  float confidence = 0.0F;
  bool suppressed = false;          // true when the flood limiter held it
};

struct StreamStats {
  std::uint64_t processed = 0;
  std::uint64_t alerts = 0;           // attack verdicts (incl. suppressed)
  std::uint64_t suppressed = 0;       // held back by the flood limiter
  std::uint64_t quarantined = 0;      // malformed records counted + skipped
  std::uint64_t labeled = 0;          // records ingested with ground truth
  double window_alert_rate = 0.0;     // attack fraction of current window
  double window_low_confidence = 0.0; // verdicts under the threshold
  std::vector<std::uint64_t> per_class;  // verdict counts by class

  // Detection-quality telemetry over the sliding window. The three
  // rates are NaN until at least one labeled record is in the window
  // (eqs. 3–5 are undefined without ground truth); the drift fields
  // are always maintained. ResetWindow() clears all of them.
  double window_detection_rate = 0.0;    // eq. 4 over the window, or NaN
  double window_accuracy = 0.0;          // eq. 3 over the window, or NaN
  double window_false_alarm_rate = 0.0;  // eq. 5 over the window, or NaN
  std::uint64_t window_labeled = 0;      // labeled pairs in the window
  double window_drift_score = 0.0;       // max per-feature |z|, see below
  std::uint64_t window_drifted_features = 0;  // features over threshold
};

// JSON rendering of a stats snapshot (the /stream endpoint payload).
std::string StreamStatsJson(const StreamStats& stats);

// StreamDetector's quarantine predicate: a raw record is malformed when
// its width disagrees with the schema, any cell is non-finite, or a
// categorical cell is outside its column's domain
// (data::ColumnSpec::InVocabulary; the one-hot encoder throws on one).
[[nodiscard]] bool IsMalformedRecord(const data::Schema& schema,
                                     std::span<const double> raw_record);

struct StreamConfig {
  std::size_t window = 256;          // sliding-window length
  float low_confidence = 0.5F;       // verdicts below this are flagged
  // Flood limiter: once the window alert rate exceeds this, further
  // alerts are marked suppressed (delivered but flagged, so a DoS can't
  // bury the console). 1.0 disables.
  double max_window_alert_rate = 1.0;
  // A feature counts as drifted when the z-score of its windowed mean
  // exceeds this (see QualityMonitor). 122 standardized features give
  // a max-|z| around 3 by chance on in-distribution traffic, so the
  // default stays comfortably above noise yet catches real shifts.
  double drift_z_threshold = 6.0;
};

// Detection-quality and input-drift telemetry over a sliding window.
//
// Quality: a metrics::WindowedConfusionMatrix over the last `window`
// labeled records; rolling DR/ACC/FAR are the paper's eqs. 3–5 on its
// binary collapse — bit-comparable to the offline computation on the
// same pairs.
//
// Drift: the monitor sees each record as the network does — encoded
// and standardized by the training scaler — so under the training
// distribution every feature has mean 0 / variance 1 by construction.
// It keeps exact windowed sums per feature; with m_d the windowed mean
// of feature d over n records, the drift statistic is
//
//   z_d = |m_d| · √n        (standard errors of the baseline mean)
//
// and the window drift score is max_d z_d. Flagging uses the mean
// shift, which is robust for one-hot columns whose variance is
// legitimately far from 1.
class QualityMonitor {
 public:
  QualityMonitor(std::size_t n_classes, std::size_t n_features,
                 std::size_t window, int normal_label,
                 double drift_z_threshold);

  // Feeds the standardized feature row of one (non-quarantined) record.
  void ObserveFeatures(std::span<const float> scaled_row);
  // Feeds a ground-truth/predicted pair when the truth is known.
  void ObserveLabeled(int truth, int predicted);

  struct Snapshot {
    double detection_rate = 0.0;   // NaN when no labels in window
    double accuracy = 0.0;         // NaN when no labels in window
    double false_alarm_rate = 0.0; // NaN when no labels in window
    std::uint64_t labeled_in_window = 0;
    double drift_score = 0.0;
    std::uint64_t drifted_features = 0;
  };
  [[nodiscard]] Snapshot Current() const;

  // Drops both the quality and the drift windows.
  void Reset();

 private:
  std::size_t n_features_;
  std::size_t window_;
  int normal_label_;
  double z_threshold_;
  metrics::WindowedConfusionMatrix cm_;
  std::vector<float> ring_;      // window_ rows × n_features_, circular
  std::size_t next_ = 0;         // slot the next row lands in
  std::size_t count_ = 0;        // rows currently held (≤ window_)
  std::vector<double> sum_;      // per-feature Σx over the window
};

// Thread-safe: Stats() and ResetWindow() may run on other threads
// while records are ingested. One mutex guards the detector's state; it
// is held while a record's verdict is recorded, never while scoring.
class StreamDetector {
 public:
  // `ids` must be trained and must outlive the detector.
  StreamDetector(const PelicanIds& ids, StreamConfig config = {});

  // Classifies one record; returns an Alert for attack verdicts.
  // A malformed record (IsMalformedRecord) is quarantined: counted in
  // StreamStats::quarantined and skipped, so one bad record can't take
  // the detector off the wire mid-stream. Per-record observability
  // (ingest trace span, record/alert/quarantine counters, latency
  // histogram, quality/drift gauges) follows the process-wide obs
  // switches.
  // `truth_label`, when provided (labeled replay, delayed ground truth
  // from an analyst), feeds the rolling DR/ACC/FAR quality window.
  std::optional<Alert> Ingest(std::span<const double> raw_record,
                              std::optional<int> truth_label = std::nullopt);

  // Ingests a whole dataset, with the alerts, Stats(), counters and
  // gauges of per-record Ingest. Scores in slices of at most the
  // model's scoring batch, records each verdict through Ingest's step,
  // then calls `on_alert` per alert, in order, without the detector's
  // lock. A record's latency observation is its slice's time over the
  // slice's rows. With `labels_for_quality` the labels feed the quality
  // window (a labeled replay of a held-out fold). Returns the verdicts
  // of the records it scored (all but the quarantined), in order.
  std::vector<PelicanIds::Verdict> IngestAll(
      const data::RawDataset& records,
      const std::function<void(const Alert&)>& on_alert,
      bool labels_for_quality = false);

  [[nodiscard]] StreamStats Stats() const;

  // Drops window history (e.g. after an operator acknowledges a flood
  // or a deliberate traffic change) — including the quality confusion
  // window and the drift window. Lifetime totals are kept.
  void ResetWindow();

 private:
  // Scores `rows` records (row-major `cells`) in one InspectRows call
  // and records each through Record; `truths` is one label per row, or
  // null. Appends the scored verdicts to a non-null `verdicts`.
  std::vector<Alert> IngestRows(std::span<const double> cells,
                                std::size_t rows, const int* truths,
                                std::vector<PelicanIds::Verdict>* verdicts);
  // The per-record step, under mu_: counts a quarantine when `verdict`
  // is null, else records the verdict and its scaled row; with metrics
  // on, also the counters, the latency `seconds` and the gauges.
  std::optional<Alert> Record(const PelicanIds::Verdict* verdict,
                              std::span<const float> scaled_row,
                              std::optional<int> truth_label,
                              double seconds);

  const PelicanIds* ids_;
  StreamConfig config_;
  mutable std::mutex mu_;  // guards every member below
  std::uint64_t processed_ = 0;
  std::uint64_t alerts_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t labeled_ = 0;
  std::vector<std::uint64_t> per_class_;
  // The flood limiter's window over the last config_.window verdicts:
  // a ring, with running counts of its attacks and low confidences.
  struct WindowEntry {
    bool attack = false;
    bool low_confidence = false;
  };
  std::vector<WindowEntry> window_;
  std::size_t window_next_ = 0;  // slot the next verdict lands in
  std::size_t window_size_ = 0;  // verdicts held (≤ config_.window)
  std::size_t window_attacks_ = 0;
  std::size_t window_low_confidence_ = 0;
  QualityMonitor quality_;
};

}  // namespace pelican::core
