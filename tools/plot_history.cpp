// plot_history — turns the CSV series the benches write into an SVG
// line chart (the visual counterpart of the paper's Fig. 2 / Fig. 5).
//
//   plot_history --out fig5_unsw_train.svg --column train_loss
//       fig5_unsw_Plain_21.csv fig5_unsw_Residual_21.csv
//       fig5_unsw_Plain_41.csv fig5_unsw_Residual_41.csv
//
// Each CSV needs a header; the first column is the x axis, `--column`
// picks the y column; the series name is the file stem.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "common/svg.h"

namespace {

using namespace pelican;

struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

Csv ReadNumericCsv(const std::string& path) {
  std::ifstream in(path);
  PELICAN_CHECK(in.is_open(), "cannot open " + path);
  Csv csv;
  std::string line;
  PELICAN_CHECK(static_cast<bool>(std::getline(in, line)),
                "empty file: " + path);
  for (auto& cell : Split(Trim(line), ',')) {
    csv.header.push_back(std::string(Trim(cell)));
  }
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    const auto cells = Split(Trim(line), ',');
    PELICAN_CHECK(cells.size() == csv.header.size(),
                  "ragged row in " + path);
    std::vector<double> row;
    for (const auto& cell : cells) {
      double value = 0.0;
      // Empty cells (no test series) become NaN-free zero-skips; mark
      // with a sentinel the plotter drops.
      row.push_back(ParseDouble(cell, &value) ? value : 1e308);
    }
    csv.rows.push_back(std::move(row));
  }
  PELICAN_CHECK(!csv.rows.empty(), "no data rows in " + path);
  return csv;
}

std::string Stem(const std::string& path) {
  auto slash = path.rfind('/');
  std::string name = slash == std::string::npos ? path
                                                : path.substr(slash + 1);
  auto dot = name.rfind('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "chart.svg";
  std::string column = "train_loss";
  std::string title;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--column" && i + 1 < argc) {
      column = argv[++i];
    } else if (arg == "--title" && i + 1 < argc) {
      title = argv[++i];
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::printf(
        "usage: plot_history [--out f.svg] [--column train_loss]\n"
        "                    [--title text] history1.csv [history2.csv ...]\n");
    return 2;
  }

  try {
    if (title.empty()) title = column;
    LineChart chart(title, "epoch", column);
    for (const auto& file : files) {
      const auto csv = ReadNumericCsv(file);
      std::size_t y_col = csv.header.size();
      for (std::size_t c = 0; c < csv.header.size(); ++c) {
        if (csv.header[c] == column) y_col = c;
      }
      PELICAN_CHECK(y_col < csv.header.size(),
                    "column '" + column + "' not in " + file);
      std::vector<std::pair<double, double>> points;
      for (const auto& row : csv.rows) {
        if (row[y_col] >= 1e307) continue;  // empty cell sentinel
        points.emplace_back(row[0], row[y_col]);
      }
      PELICAN_CHECK(!points.empty(),
                    "no plottable values for '" + column + "' in " + file);
      chart.AddSeries(Stem(file), std::move(points));
    }
    WriteTextFile(out, chart.Render());
    std::printf("wrote %s (%zu series)\n", out.c_str(), files.size());
    return 0;
  } catch (const pelican::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
