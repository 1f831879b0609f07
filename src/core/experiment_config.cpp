#include "core/experiment_config.h"

#include <sstream>

#include "common/strings.h"

namespace pelican::core {

ExperimentConfig PaperNslKdd() {
  return {.dataset = "NSL-KDD",
          .filter_size = 121,
          .kernel_size = 10,
          .recurrent_units = 121,
          .dropout_rate = 0.6F,
          .epochs = 50,
          .learning_rate = 0.01F,
          .batch_size = 4000,
          .records = 148516};
}

ExperimentConfig PaperUnswNb15() {
  return {.dataset = "UNSW-NB15",
          .filter_size = 196,
          .kernel_size = 10,
          .recurrent_units = 196,
          .dropout_rate = 0.6F,
          .epochs = 100,
          .learning_rate = 0.01F,
          .batch_size = 4000,
          .records = 257673};
}

// Scaled settings, calibrated so the paper's orderings reproduce within
// the single-core budget. Dropout shrinks 0.6 → 0.3 because the paper's
// rate is proportionally far more destructive at width 24 than at 196
// (the plain networks cannot converge at all under 0.6 at this width).
ExperimentConfig ScaledNslKdd() {
  return {.dataset = "NSL-KDD (synthetic)",
          .filter_size = 24,
          .kernel_size = 10,
          .recurrent_units = 24,
          .dropout_rate = 0.3F,
          .epochs = 24,
          .learning_rate = 0.01F,
          .batch_size = 64,
          .records = 3000};
}

ExperimentConfig ScaledUnswNb15() {
  return {.dataset = "UNSW-NB15 (synthetic)",
          .filter_size = 24,
          .kernel_size = 10,
          .recurrent_units = 24,
          .dropout_rate = 0.3F,
          .epochs = 24,
          .learning_rate = 0.01F,
          .batch_size = 64,
          .records = 3000};
}

std::string RenderParameterTable(const ExperimentConfig& paper,
                                 const ExperimentConfig& used) {
  std::ostringstream os;
  auto row = [&](const std::string& name, const std::string& a,
                 const std::string& b) {
    os << PadRight(name, 18) << PadLeft(a, 14) << PadLeft(b, 22) << '\n';
  };
  row("Category", "Paper", "This reproduction");
  row("Dataset", paper.dataset, used.dataset);
  row("Filter size", std::to_string(paper.filter_size),
      std::to_string(used.filter_size));
  row("Kernel size", std::to_string(paper.kernel_size),
      std::to_string(used.kernel_size));
  row("Recurrent unit", std::to_string(paper.recurrent_units),
      std::to_string(used.recurrent_units));
  row("Dropout rate", FormatFixed(paper.dropout_rate, 1),
      FormatFixed(used.dropout_rate, 1));
  row("Epochs", std::to_string(paper.epochs), std::to_string(used.epochs));
  row("Learning rate", FormatFixed(paper.learning_rate, 2),
      FormatFixed(used.learning_rate, 2));
  row("Batch size", std::to_string(paper.batch_size),
      std::to_string(used.batch_size));
  row("Records", std::to_string(paper.records),
      std::to_string(used.records));
  return os.str();
}

}  // namespace pelican::core
