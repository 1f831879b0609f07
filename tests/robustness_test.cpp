// Robustness / failure-injection tests: malformed input files, extreme
// values, boundary-size datasets — the inputs a deployed NIDS actually
// sees. The contract under test: reject cleanly (CheckError) or degrade
// gracefully; never crash, never emit NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/core.h"
#include "data/data.h"
#include "models/pelican.h"
#include "models/zoo.h"

namespace pelican {
namespace {

// ---- malformed CSV ---------------------------------------------------------

data::Schema TinySchema() {
  std::vector<data::ColumnSpec> cols;
  cols.push_back({"a", data::ColumnKind::kNumeric, {}});
  cols.push_back({"p", data::ColumnKind::kCategorical, {"x", "y"}});
  return data::Schema(std::move(cols), {"Normal", "Attack"});
}

TEST(CsvRobustness, EmptyStreamRejected) {
  std::stringstream in;
  EXPECT_THROW(data::ReadCsv(TinySchema(), in), CheckError);
}

TEST(CsvRobustness, HeaderOnlyGivesEmptyDataset) {
  std::stringstream in("a,p,label\n");
  const auto ds = data::ReadCsv(TinySchema(), in);
  EXPECT_EQ(ds.Size(), 0u);
}

TEST(CsvRobustness, BlankLinesSkipped) {
  std::stringstream in("a,p,label\n\n1.0,x,Normal\n   \n2.0,y,Attack\n");
  const auto ds = data::ReadCsv(TinySchema(), in);
  EXPECT_EQ(ds.Size(), 2u);
}

TEST(CsvRobustness, RejectsNonNumericCell) {
  std::stringstream in("a,p,label\nNaN?,x,Normal\n");
  EXPECT_THROW(data::ReadCsv(TinySchema(), in), CheckError);
}

TEST(CsvRobustness, RejectsInfiniteCell) {
  std::stringstream in("a,p,label\ninf,x,Normal\n");
  EXPECT_THROW(data::ReadCsv(TinySchema(), in), CheckError);
}

TEST(CsvRobustness, NonFiniteErrorNamesRowAndColumn) {
  std::stringstream in("a,p,label\n1.0,x,Normal\nnan,y,Attack\n");
  try {
    data::ReadCsv(TinySchema(), in);
    FAIL() << "non-finite cell was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("column a"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(CsvRobustness, UnparseableErrorNamesRowAndColumn) {
  std::stringstream in("a,p,label\nbogus,x,Normal\n");
  try {
    data::ReadCsv(TinySchema(), in);
    FAIL() << "unparseable cell was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad numeric cell"), std::string::npos) << what;
    EXPECT_NE(what.find("column a"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(CsvRobustness, RejectsRaggedRow) {
  std::stringstream in("a,p,label\n1.0,x\n");
  EXPECT_THROW(data::ReadCsv(TinySchema(), in), CheckError);
}

TEST(CsvRobustness, MissingFileRejected) {
  EXPECT_THROW(data::ReadCsvFile(TinySchema(), "/no/such/file.csv"),
               CheckError);
}

TEST(OfficialRobustness, GarbageLinesAreCountedNotFatal) {
  std::stringstream in;
  in << "complete,garbage\n"
     << ",,,,,,,,\n"
     << "\x01\x02\x03\n";
  data::OfficialLoadReport report;
  const auto ds = data::ReadNslKddOfficial(in, &report);
  EXPECT_EQ(ds.Size(), 0u);
  EXPECT_EQ(report.skipped, 3u);
}

// ---- extreme values through the pipeline -----------------------------------

TEST(PipelineRobustness, HugeFeatureValuesDontProduceNan) {
  // A record with counters at 1e9 (a real counter wrap / flood) must be
  // tamed by standardization; training must stay finite.
  Rng rng(1);
  auto ds = data::GenerateNslKdd(200, rng);
  const auto schema = ds.schema();
  // Inject extremes into a numeric column for a handful of records.
  data::RawDataset spiked(schema);
  for (std::size_t i = 0; i < ds.Size(); ++i) {
    auto row = ds.Row(i);
    std::vector<double> cells(row.begin(), row.end());
    if (i % 37 == 0) {
      cells[static_cast<std::size_t>(schema.ColumnIndex("src_bytes"))] = 1e9;
    }
    spiked.Add(std::move(cells), ds.Label(i));
  }

  const data::OneHotEncoder encoder(schema);
  Tensor x = encoder.Transform(spiked);
  data::StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(x);

  Rng net_rng(2);
  auto net = models::BuildPelican(encoder.EncodedWidth(), 5, net_rng, 8);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 32;
  core::Trainer trainer(*net, tc);
  const auto history = trainer.Fit(x, spiked.Labels());
  EXPECT_TRUE(std::isfinite(history.back().train_loss));
  for (auto& p : net->Params()) {
    for (float v : p.value->data()) {
      ASSERT_TRUE(std::isfinite(v)) << p.name;
    }
  }
}

TEST(PipelineRobustness, SingleRecordInference) {
  Rng rng(3);
  auto train_set = data::GenerateNslKdd(300, rng);
  core::IdsConfig config;
  config.n_blocks = 1;
  config.channels = 8;
  config.train.epochs = 2;
  core::PelicanIds ids(train_set.schema(), config);
  ids.Train(train_set);
  auto row = train_set.Row(0);
  const auto verdict =
      ids.Inspect(std::vector<double>(row.begin(), row.end()));
  EXPECT_GE(verdict.label, 0);
  EXPECT_LT(verdict.label, 5);
  EXPECT_TRUE(std::isfinite(verdict.confidence));
}

TEST(PipelineRobustness, BatchLargerThanDataset) {
  Rng rng(4);
  auto ds = data::GenerateNslKdd(20, rng);
  const data::OneHotEncoder encoder(ds.schema());
  Tensor x = encoder.Transform(ds);
  data::StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(x);
  Rng net_rng(5);
  auto net = models::BuildMlp(encoder.EncodedWidth(), 5, net_rng, 16);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 4096;  // >> 20 — must clamp, not crash
  core::Trainer trainer(*net, tc);
  EXPECT_NO_THROW(trainer.Fit(x, ds.Labels()));
}

TEST(PipelineRobustness, ConstantFeatureColumns) {
  // A schema where a numeric column never varies: scaler must map it to
  // zero, training must proceed.
  std::vector<data::ColumnSpec> cols;
  cols.push_back({"varies", data::ColumnKind::kNumeric, {}});
  cols.push_back({"constant", data::ColumnKind::kNumeric, {}});
  data::Schema schema(std::move(cols), {"Normal", "Attack"});
  data::RawDataset ds(schema);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const int label = i % 2;
    ds.Add({label == 0 ? rng.Normal(-1, 0.3) : rng.Normal(1, 0.3), 7.0},
           label);
  }
  const data::OneHotEncoder encoder(schema);
  Tensor x = encoder.Transform(ds);
  data::StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(x);
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    EXPECT_EQ(x.At(i, 1), 0.0F);
  }
  Rng net_rng(7);
  auto net = models::BuildMlp(2, 2, net_rng, 8);
  core::TrainConfig tc;
  tc.epochs = 10;
  core::Trainer trainer(*net, tc);
  const auto history = trainer.Fit(x, ds.Labels());
  EXPECT_GT(history.back().train_accuracy, 0.9F);
}

TEST(PipelineRobustness, AllOneClassTrainingDoesNotCrash) {
  // Degenerate stream (e.g. capture of pure benign traffic): training
  // must converge to predicting that class.
  Rng rng(8);
  Tensor x = Tensor::RandomNormal({50, 4}, rng, 0, 1);
  std::vector<int> y(50, 0);
  Rng net_rng(9);
  auto net = models::BuildMlp(4, 2, net_rng, 8);
  core::TrainConfig tc;
  tc.epochs = 15;  // 50 samples / batch 64 → one step per epoch
  core::Trainer trainer(*net, tc);
  trainer.Fit(x, y);
  const auto pred = trainer.Predict(x);
  for (int p : pred) EXPECT_EQ(p, 0);
}

TEST(StreamRobustness, WrongWidthRecordRejected) {
  Rng rng(10);
  auto train_set = data::GenerateNslKdd(200, rng);
  core::IdsConfig config;
  config.n_blocks = 1;
  config.channels = 8;
  config.train.epochs = 1;
  core::PelicanIds ids(train_set.schema(), config);
  ids.Train(train_set);
  const std::vector<double> short_record(5, 0.0);
  EXPECT_THROW(ids.Inspect(short_record), CheckError);
}

// Inspect takes raw rows from its caller. A categorical cell outside
// its column's vocabulary once passed a debug-only check and wrote past
// the one-hot row (NaN made the index cast undefined); each must throw.
TEST(StreamRobustness, OutOfVocabularyCategoricalRejectedByInspect) {
  Rng rng(10);
  auto train_set = data::GenerateNslKdd(200, rng);
  core::IdsConfig config;
  config.n_blocks = 1;
  config.channels = 8;
  config.train.epochs = 1;
  core::PelicanIds ids(train_set.schema(), config);
  ids.Train(train_set);
  const auto& columns = train_set.schema().Columns();
  const auto categorical = static_cast<std::size_t>(
      std::find_if(columns.begin(), columns.end(),
                   [](const data::ColumnSpec& c) {
                     return c.kind == data::ColumnKind::kCategorical;
                   }) -
      columns.begin());
  ASSERT_LT(categorical, columns.size());
  const auto good = train_set.Row(0);
  EXPECT_NO_THROW((void)ids.Inspect(good));
  for (const double bad : {1000.0, -1.0, 0.5, std::nan("")}) {
    std::vector<double> row(good.begin(), good.end());
    row[categorical] = bad;
    EXPECT_THROW((void)ids.Inspect(row), CheckError) << "cell " << bad;
  }
}

TEST(StreamRobustness, MalformedRecordsQuarantinedNotFatal) {
  Rng rng(12);
  auto train_set = data::GenerateNslKdd(200, rng);
  core::IdsConfig config;
  config.n_blocks = 1;
  config.channels = 8;
  config.train.epochs = 1;
  core::PelicanIds ids(train_set.schema(), config);
  ids.Train(train_set);

  core::StreamDetector detector(ids);
  // A healthy record flows through...
  auto good = train_set.Row(0);
  EXPECT_NO_THROW(
      detector.Ingest(std::vector<double>(good.begin(), good.end())));
  // ...a short record and a NaN-poisoned record are counted + skipped.
  EXPECT_NO_THROW(detector.Ingest(std::vector<double>(5, 0.0)));
  std::vector<double> poisoned(good.begin(), good.end());
  poisoned[3] = std::nan("");
  EXPECT_NO_THROW(detector.Ingest(poisoned));

  const auto stats = detector.Stats();
  EXPECT_EQ(stats.processed, 3u);
  EXPECT_EQ(stats.quarantined, 2u);
}

TEST(GeneratorRobustness, ZeroRecordsGivesEmptyDataset) {
  Rng rng(11);
  const auto ds = data::GenerateNslKdd(0, rng);
  EXPECT_TRUE(ds.Empty());
}

}  // namespace
}  // namespace pelican
