// Experiment parameter sets — Table I of the paper, plus the scaled-down
// variants the benches actually run on this single-core host (the
// deviation is printed side-by-side by bench/table1_parameters).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pelican::core {

struct ExperimentConfig {
  std::string dataset;          // "NSL-KDD" or "UNSW-NB15"
  std::int64_t filter_size;     // Conv filters (= encoded width in paper)
  std::int64_t kernel_size;     // Conv kernel
  std::int64_t recurrent_units; // GRU units (= filters)
  float dropout_rate;
  int epochs;
  float learning_rate;
  std::size_t batch_size;
  std::size_t records;          // dataset size used
};

// The paper's Table I settings, verbatim.
ExperimentConfig PaperNslKdd();
ExperimentConfig PaperUnswNb15();

// CPU-scaled settings used by the benches: same shape (identical
// kernel, dropout, learning rate, optimizer), smaller width / record
// count / epoch budget. See EXPERIMENTS.md for the scaling rationale.
ExperimentConfig ScaledNslKdd();
ExperimentConfig ScaledUnswNb15();

// Two-column "paper vs. used" rendering of Table I.
std::string RenderParameterTable(const ExperimentConfig& paper,
                                 const ExperimentConfig& used);

}  // namespace pelican::core
