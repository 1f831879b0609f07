// Scoring data plane tests: wire-protocol parsing (incl. a seeded
// mutation fuzz), bounded-queue admission control, shed-on-full-queue,
// read/score deadline expiry, reply conservation under an overload that
// mixes shed, late and ok replies, malformed-line quarantine, oversized
// resync, socket-level fault injection (short reads, EINTR, EAGAIN,
// ECONNRESET, mid-record truncation), graceful drain conservation
// (no accepted record lost), a concurrent-clients stress pass (the
// TSan build exercises it), serve metrics export, the record lifecycle
// (stage-histogram telescoping, slow-ring top-K under concurrency,
// /slow + access-log JSONL schema, cross-thread trace flows), the HTTP
// control plane under injected EINTR, and the StreamDetector
// quarantine counter/JSON satellite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/core.h"
#include "data/data.h"
#include "obs/obs.h"
#include "serve/serve.h"

namespace pelican {
namespace {

using namespace std::chrono_literals;

// RAII guard: restore the all-off default even on assertion failure so
// other suites see a quiet process (same convention as obs_test).
struct ObsOff {
  ~ObsOff() {
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    obs::ResetTrace();
  }
};

// One model for the whole suite (training dominates test runtime).
const core::PelicanIds& TrainedIds() {
  static const core::PelicanIds* ids = [] {
    Rng rng(77);
    auto ds = data::GenerateNslKdd(240, rng);
    core::IdsConfig config;
    config.n_blocks = 2;
    config.channels = 8;
    config.train.epochs = 2;
    config.train.batch_size = 32;
    config.train.seed = 7;
    auto* built = new core::PelicanIds(data::NslKddSchema(), config);
    built->Train(ds);
    return built;
  }();
  return *ids;
}

// Labeled CSV data lines (WriteCsv cell format, header dropped) — the
// exact bytes a client would stream at the server.
const std::vector<std::string>& DataLines() {
  static const std::vector<std::string> lines = [] {
    Rng rng(91);
    const auto ds = data::GenerateNslKdd(64, rng);
    std::stringstream csv;
    data::WriteCsv(ds, csv);
    std::vector<std::string> out;
    std::string line;
    bool header = true;
    while (std::getline(csv, line)) {
      if (header) {
        header = false;
        continue;
      }
      if (!line.empty()) out.push_back(line);
    }
    return out;
  }();
  return lines;
}

// The dataset those lines round-trip to, for batch-verdict comparison.
const data::RawDataset& DataRows() {
  static const data::RawDataset* ds = [] {
    Rng rng(91);
    return new data::RawDataset(data::GenerateNslKdd(64, rng));
  }();
  return *ds;
}

// The rows a server actually scores: DataLines() parsed back through
// the wire codec. WriteCsv's %.6f cells lose sub-micro precision, so
// byte-identical serve-vs-batch comparison must feed BOTH paths the
// CSV-round-tripped values (exactly what the CLI smoke test does by
// scoring one file twice).
const data::RawDataset& WireRows() {
  static const data::RawDataset* ds = [] {
    auto* out = new data::RawDataset(TrainedIds().schema());
    for (const auto& line : DataLines()) {
      auto parsed = serve::ParseRecordLine(TrainedIds().schema(), line);
      PELICAN_CHECK(parsed.ok, parsed.error);
      out->Add(std::move(parsed.row), parsed.truth.value_or(0));
    }
    return out;
  }();
  return *ds;
}

// ---- raw socket client ------------------------------------------------------

int ConnectTo(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendStr(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads reply lines until `count` lines, EOF, or `timeout`. EOF/error
// returns what was collected so far.
std::vector<std::string> ReadLines(int fd, std::size_t count,
                                   std::chrono::milliseconds timeout = 10s) {
  std::vector<std::string> lines;
  std::string buf;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  timeval tv{};
  tv.tv_sec = 0;
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  while (lines.size() < count) {
    std::size_t pos = 0;
    while (lines.size() < count &&
           (pos = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, pos));
      buf.erase(0, pos + 1);
    }
    if (lines.size() >= count) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    char tmp[4096];
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    buf.append(tmp, static_cast<std::size_t>(n));
  }
  return lines;
}

// True when recv eventually reports EOF (server closed its side).
bool AwaitEof(int fd, std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  timeval tv{};
  tv.tv_sec = 0;
  tv.tv_usec = 100 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char tmp[1024];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      return true;  // RST counts as closed
    }
  }
  return false;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// Inverse of JoinLines: non-empty lines of a blob (JSONL payloads).
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Polls a predicate with a deadline (for cross-thread counters).
template <typename F>
bool Eventually(F&& predicate, std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return predicate();
}

// Sets `flag` when it goes out of scope. Declared after a server whose
// before_batch_hook waits on the flag, it frees the held scorers before
// the server's destructor drains them on every exit path, so a failed
// assertion fails the test instead of hanging it.
class ReleaseOnExit {
 public:
  explicit ReleaseOnExit(std::atomic<bool>& flag) : flag_(flag) {}
  ~ReleaseOnExit() { flag_.store(true); }
  ReleaseOnExit(const ReleaseOnExit&) = delete;
  ReleaseOnExit& operator=(const ReleaseOnExit&) = delete;

 private:
  std::atomic<bool>& flag_;
};

void ExpectConservation(const serve::ServeStats& s) {
  EXPECT_EQ(s.records, s.ok + s.quarantined + s.shed + s.late);
  EXPECT_EQ(s.records, s.replies);
}

// ---- wire protocol ---------------------------------------------------------

TEST(Wire, ParsesValidLabeledLine) {
  const auto& schema = TrainedIds().schema();
  const auto parsed = serve::ParseRecordLine(schema, DataLines()[0]);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.row.size(), schema.ColumnCount());
  ASSERT_TRUE(parsed.truth.has_value());
  EXPECT_EQ(*parsed.truth, DataRows().Label(0));
}

TEST(Wire, ParsesUnlabeledLine) {
  const auto& schema = TrainedIds().schema();
  const std::string line = DataLines()[0];
  const auto cut = line.rfind(',');
  const auto parsed = serve::ParseRecordLine(schema, line.substr(0, cut));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_FALSE(parsed.truth.has_value());
}

TEST(Wire, RejectsWithReasonTokens) {
  const auto& schema = TrainedIds().schema();
  EXPECT_EQ(serve::ParseRecordLine(schema, "").error, "empty");
  EXPECT_EQ(serve::ParseRecordLine(schema, "   ").error, "empty");
  EXPECT_EQ(serve::ParseRecordLine(schema, "1,2,3").error, "width");

  std::string line = DataLines()[0];
  // Find a numeric field and corrupt it.
  auto fields = Split(line, ',');
  std::size_t numeric = 0;
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    if (schema.Column(c).kind == data::ColumnKind::kNumeric) {
      numeric = c;
      break;
    }
  }
  auto rebuilt = [&fields] { return Join(fields, ","); };
  const std::string keep = fields[numeric];
  fields[numeric] = "not-a-number";
  EXPECT_EQ(serve::ParseRecordLine(schema, rebuilt()).error, "bad_number");
  fields[numeric] = "inf";
  EXPECT_EQ(serve::ParseRecordLine(schema, rebuilt()).error, "non_finite");
  fields[numeric] = keep;

  std::size_t categorical = schema.ColumnCount();
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    if (schema.Column(c).kind == data::ColumnKind::kCategorical) {
      categorical = c;
      break;
    }
  }
  ASSERT_LT(categorical, schema.ColumnCount());
  const std::string keep_cat = fields[categorical];
  fields[categorical] = "no-such-category";
  EXPECT_EQ(serve::ParseRecordLine(schema, rebuilt()).error,
            "unknown_category");
  fields[categorical] = keep_cat;

  fields.back() = "NoSuchLabel";
  EXPECT_EQ(serve::ParseRecordLine(schema, rebuilt()).error, "unknown_label");
}

// A line with several defects is named by the first in one order:
// cells in column order (unknown category, bad number), then the label,
// and last the first non-finite cell, however early it sits.
TEST(Wire, NamesFirstDefectInOrder) {
  const auto& schema = TrainedIds().schema();
  std::vector<std::size_t> numeric, categorical;
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    (schema.Column(c).kind == data::ColumnKind::kNumeric ? numeric
                                                         : categorical)
        .push_back(c);
  }
  ASSERT_GE(numeric.size(), 2u);
  ASSERT_FALSE(categorical.empty());
  const auto with = [&](std::vector<std::pair<std::size_t, std::string>> set,
                        const std::string& label) {
    auto fields = Split(DataLines()[2], ',');
    for (const auto& [c, text] : set) fields[c] = text;
    fields.back() = label;
    return Join(fields, ",");
  };
  const std::size_t first = numeric.front(), later = numeric.back();
  const std::string label = Split(DataLines()[2], ',').back();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {with({{first, "nan"}}, "NoSuchClass"), "unknown_label"},
      {with({{first, "inf"}, {categorical.back(), "no_such"}}, label),
       "unknown_category"},
      {with({{first, "-inf"}, {later, "x1"}}, label), "bad_number"},
      {with({{later, "nan"}, {first, "inf"}}, label), "non_finite"}};
  for (const auto& [line, reason] : cases) {
    EXPECT_EQ(serve::ParseRecordLine(schema, line).error, reason) << line;
  }
  // Two non-finite cells: the first is the one named.
  const auto row = data::ParseCsvRow(schema, cases.back().first, nullptr);
  EXPECT_EQ(row.column, first);
  EXPECT_EQ(row.field, "inf");
}

// Satellite: deterministic mutation fuzz. Truncated, oversized-field,
// non-UTF8, field-count-mismatched lines must classify cleanly (never
// crash), and a live server must answer every mutant with exactly the
// reply the local parse predicts — quarantine counts included.
TEST(Wire, SeededMutationFuzzMatchesServerQuarantine) {
  const auto& schema = TrainedIds().schema();
  Rng rng(20200613);  // the paper's DSN year+month+day; any fixed seed

  std::vector<std::string> corpus;
  for (int i = 0; i < 24; ++i) {
    corpus.push_back(DataLines()[i % DataLines().size()]);
  }
  const auto mutate = [&](std::string line) {
    switch (rng.Below(6)) {
      case 0:  // truncate mid-record
        line.resize(rng.Below(line.size()) + 1);
        break;
      case 1: {  // insert random bytes (incl. non-UTF8), newline-free
        const std::size_t at = rng.Below(line.size());
        std::string noise;
        for (int b = 0; b < 8; ++b) {
          char byte = static_cast<char>(rng.Below(256));
          if (byte == '\n' || byte == '\r') byte = '\v';
          noise += byte;
        }
        line.insert(at, noise);
        break;
      }
      case 2: {  // duplicate a field (field-count mismatch)
        auto fields = Split(line, ',');
        fields.insert(fields.begin() +
                          static_cast<std::ptrdiff_t>(
                              rng.Below(fields.size())),
                      fields[rng.Below(fields.size())]);
        line = Join(fields, ",");
        break;
      }
      case 3: {  // blow up one field
        auto fields = Split(line, ',');
        fields[rng.Below(fields.size())] = "9e999999";
        line = Join(fields, ",");
        break;
      }
      case 4: {  // non-finite text in one field
        auto fields = Split(line, ',');
        fields[rng.Below(fields.size())] = rng.Chance(0.5) ? "nan" : "-inf";
        line = Join(fields, ",");
        break;
      }
      default:  // drop a chunk from the middle
        line.erase(rng.Below(line.size()),
                   rng.Below(40) + 1);
        break;
    }
    return line;
  };
  for (int i = 0; i < 200; ++i) {
    corpus.push_back(mutate(corpus[rng.Below(24)]));
  }

  // Local classification first: must never crash, every line lands in
  // ok or a reason token.
  std::size_t expect_ok = 0, expect_err = 0;
  std::vector<bool> is_ok;
  for (const auto& line : corpus) {
    const auto parsed = serve::ParseRecordLine(schema, line);
    is_ok.push_back(parsed.ok);
    if (parsed.ok) {
      ++expect_ok;
    } else {
      ++expect_err;
      EXPECT_FALSE(parsed.error.empty());
    }
  }

  // Now the same corpus through a live server.
  serve::ScoringServerConfig cfg;
  cfg.queue_depth = 512;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  std::size_t got_ok = 0, got_err = 0;
  for (std::size_t off = 0; off < corpus.size(); off += 32) {
    const std::size_t count = std::min<std::size_t>(32, corpus.size() - off);
    std::string payload;
    for (std::size_t j = 0; j < count; ++j) {
      payload += corpus[off + j];
      payload += '\n';
    }
    ASSERT_TRUE(SendStr(fd, payload));
    const auto replies = ReadLines(fd, count);
    ASSERT_EQ(replies.size(), count);
    for (std::size_t j = 0; j < count; ++j) {
      if (is_ok[off + j]) {
        EXPECT_EQ(replies[j].rfind("ok,", 0), 0u) << replies[j];
        ++got_ok;
      } else {
        EXPECT_EQ(replies[j].rfind("err,", 0), 0u) << replies[j];
        ++got_err;
      }
    }
  }
  ::close(fd);
  EXPECT_EQ(got_ok, expect_ok);
  EXPECT_EQ(got_err, expect_err);
  EXPECT_TRUE(Eventually([&] {
    return server.Stats().quarantined == expect_err;
  }));
  server.Drain();
  ExpectConservation(server.Stats());
}

// ---- bounded queue ---------------------------------------------------------

TEST(BoundedQueue, TryPushShedsWhenFull) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: shed, not buffered
  EXPECT_EQ(q.Depth(), 2u);
  const auto batch = q.PopBatch(8, 0ms);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(q.TryPush(4));
}

TEST(BoundedQueue, CloseDrainsRemainderThenSignalsEmpty) {
  serve::BoundedQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_FALSE(q.TryPush(3));  // closed: refuse new work
  EXPECT_EQ(q.PopBatch(1, 0ms).size(), 1u);  // drain the remainder...
  EXPECT_EQ(q.PopBatch(8, 0ms).size(), 1u);
  EXPECT_TRUE(q.PopBatch(8, 0ms).empty());   // ...then terminate
}

TEST(BoundedQueue, PopBatchWakesOnPush) {
  serve::BoundedQueue<int> q(8);
  std::thread producer([&q] {
    std::this_thread::sleep_for(20ms);
    q.TryPush(42);
  });
  const auto batch = q.PopBatch(8, 0ms);  // blocks until the push
  producer.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 42);
}

// ---- round trip ------------------------------------------------------------

TEST(ScoringServer, VerdictsMatchBatchInspectAll) {
  serve::ScoringServer server(TrainedIds());
  server.Start();
  ASSERT_TRUE(server.Running());
  ASSERT_NE(server.Port(), 0);

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, JoinLines(DataLines())));
  const auto replies = ReadLines(fd, DataLines().size());
  ::close(fd);
  ASSERT_EQ(replies.size(), DataLines().size());

  const auto verdicts = TrainedIds().InspectAll(WireRows());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i], serve::RenderVerdict(verdicts[i])) << "row " << i;
  }
  server.Drain();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.ok, DataLines().size());
  EXPECT_EQ(stats.quarantined, 0u);
  ExpectConservation(stats);
}

TEST(ScoringServer, MalformedLineGetsErrAndConnectionSurvives) {
  serve::ScoringServer server(TrainedIds());
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(SendStr(fd, "total,garbage\n" + DataLines()[0] + "\n"));
  auto replies = ReadLines(fd, 2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "err,width");
  EXPECT_EQ(replies[1].rfind("ok,", 0), 0u);

  // Same connection keeps scoring after the quarantine.
  ASSERT_TRUE(SendStr(fd, DataLines()[1] + "\n"));
  replies = ReadLines(fd, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ok,", 0), 0u);
  ::close(fd);

  server.Drain();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.ok, 2u);
  ExpectConservation(stats);
}

TEST(ScoringServer, OversizedLineAnsweredAndResynced) {
  serve::ScoringServerConfig cfg;
  cfg.max_line_bytes = 64;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);

  const std::string huge(1000, 'x');
  ASSERT_TRUE(SendStr(fd, huge + "\n" + DataLines()[0] + "\n"));
  const auto replies = ReadLines(fd, 2);
  ::close(fd);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "err,oversized");
  // DataLines are longer than 64 bytes too — the point is the stream
  // resynchronizes at the newline and answers each line exactly once.
  EXPECT_EQ(replies[1], "err,oversized");

  server.Drain();
  EXPECT_EQ(server.Stats().quarantined, 2u);
  ExpectConservation(server.Stats());
}

// ---- backpressure + deadlines ----------------------------------------------

TEST(ScoringServer, ShedsWithBusyWhenQueueFull) {
  std::atomic<bool> release{false};
  serve::ScoringServerConfig cfg;
  cfg.queue_depth = 3;
  cfg.max_batch = 8;
  cfg.score_deadline_ms = 10000;  // nothing goes late in this test
  cfg.before_batch_hook = [&release] {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  serve::ScoringServer server(TrainedIds(), cfg);
  const ReleaseOnExit unhold(release);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  // One write, 5 records: the blocked scorer never pops, so 3 fill the
  // queue and 2 are shed with busy — deterministically.
  std::string payload;
  for (int i = 0; i < 5; ++i) payload += DataLines()[i] + "\n";
  ASSERT_TRUE(SendStr(fd, payload));
  ASSERT_TRUE(Eventually([&] { return server.Stats().shed == 2; }));
  EXPECT_EQ(server.QueueDepth(), 3u);
  release.store(true);

  const auto replies = ReadLines(fd, 5);
  ::close(fd);
  ASSERT_EQ(replies.size(), 5u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(replies[i].rfind("ok,", 0), 0u) << replies[i];
  }
  EXPECT_EQ(replies[3], std::string(serve::kBusyQueueReply));
  EXPECT_EQ(replies[4], std::string(serve::kBusyQueueReply));

  server.Drain();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.ok, 3u);
  ExpectConservation(stats);
}

TEST(ScoringServer, ScoreDeadlineExpiryAnswersLate) {
  std::atomic<bool> release{false};
  serve::ScoringServerConfig cfg;
  cfg.score_deadline_ms = 50;
  cfg.before_batch_hook = [&release] {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  serve::ScoringServer server(TrainedIds(), cfg);
  const ReleaseOnExit unhold(release);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  std::string payload;
  for (int i = 0; i < 3; ++i) payload += DataLines()[i] + "\n";
  ASSERT_TRUE(SendStr(fd, payload));
  ASSERT_TRUE(Eventually([&] { return server.QueueDepth() == 3; }));
  // Hold the scorer past every deadline, then let it find stale work.
  std::this_thread::sleep_for(150ms);
  release.store(true);

  const auto replies = ReadLines(fd, 3);
  ::close(fd);
  ASSERT_EQ(replies.size(), 3u);
  for (const auto& reply : replies) {
    EXPECT_EQ(reply, std::string(serve::kLateDeadlineReply));
  }
  server.Drain();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.late, 3u);
  EXPECT_EQ(stats.ok, 0u);
  ExpectConservation(stats);
}

// Overload that mixes all three outcomes over several connections at
// once. With the scorers held, three connections each write more
// records than the queue holds: the records that reach the queue outlive
// their deadline and the rest are shed. After the release, each
// connection sends a few more, which score ok. The only clock the test
// reads is the hold outlasting the deadline.
TEST(ScoringServer, OverloadMixingShedLateAndOkConservesReplies) {
  constexpr std::size_t kDepth = 4;
  constexpr std::size_t kConns = 3;
  constexpr std::size_t kBurst = 6;  // per connection, more than kDepth
  constexpr std::size_t kAfter = 3;  // per connection after the release
  std::atomic<bool> release{false};
  serve::ScoringServerConfig cfg;
  cfg.scorers = 2;
  cfg.queue_depth = kDepth;
  cfg.score_deadline_ms = 500;
  cfg.before_batch_hook = [&release] {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  serve::ScoringServer server(TrainedIds(), cfg);
  const ReleaseOnExit unhold(release);
  server.Start();

  std::vector<int> fds;
  for (std::size_t c = 0; c < kConns; ++c) {
    const int fd = ConnectTo(server.Port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    std::string payload;
    for (std::size_t i = 0; i < kBurst; ++i) {
      payload += DataLines()[c * kBurst + i] + "\n";
    }
    ASSERT_TRUE(SendStr(fd, payload));
  }
  // The connection threads race for the queue: whichever records get
  // there first fill it, and every later one is shed.
  constexpr std::uint64_t kOffered = kConns * kBurst;
  ASSERT_TRUE(Eventually([&] {
    const auto s = server.Stats();
    return s.records == kOffered && s.shed == kOffered - kDepth;
  }));
  EXPECT_EQ(server.QueueDepth(), kDepth);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(cfg.score_deadline_ms + 100));
  release.store(true);

  // Nothing leaves the full queue while the scorers are held, so within
  // a connection every record after its first shed one is shed too: its
  // replies are late ones followed by busy ones, in send order.
  std::size_t late_replies = 0;
  for (std::size_t c = 0; c < kConns; ++c) {
    const auto replies = ReadLines(fds[c], kBurst);
    ASSERT_EQ(replies.size(), kBurst) << "connection " << c;
    std::size_t i = 0;
    while (i < kBurst && replies[i] == serve::kLateDeadlineReply) ++i;
    late_replies += i;
    for (; i < kBurst; ++i) {
      EXPECT_EQ(replies[i], std::string(serve::kBusyQueueReply))
          << "connection " << c << " reply " << i;
    }
  }
  EXPECT_EQ(late_replies, kDepth);

  // Sent one connection at a time, fewer than the queue holds: ok.
  const auto expected = TrainedIds().InspectAll(WireRows());
  for (std::size_t c = 0; c < kConns; ++c) {
    const std::size_t first = kOffered + c * kAfter;
    std::string payload;
    for (std::size_t i = 0; i < kAfter; ++i) {
      payload += DataLines()[first + i] + "\n";
    }
    ASSERT_TRUE(SendStr(fds[c], payload));
    const auto replies = ReadLines(fds[c], kAfter);
    ASSERT_EQ(replies.size(), kAfter) << "connection " << c;
    for (std::size_t i = 0; i < kAfter; ++i) {
      EXPECT_EQ(replies[i], serve::RenderVerdict(expected[first + i]))
          << "connection " << c << " reply " << i;
    }
  }
  for (const int fd : fds) ::close(fd);

  // Every outcome occurred (14 shed, 4 late, 9 ok), and every record
  // was answered exactly once.
  server.Drain();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.shed, kOffered - kDepth);
  EXPECT_EQ(stats.late, kDepth);
  EXPECT_EQ(stats.ok, kConns * kAfter);
  ExpectConservation(stats);
}

TEST(ScoringServer, ReadDeadlineCutsConnectionStalledMidRecord) {
  serve::ScoringServerConfig cfg;
  cfg.read_deadline_ms = 100;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  // A partial record, then silence: the server must cut us loose.
  ASSERT_TRUE(SendStr(fd, "0.1,0.2,"));
  EXPECT_TRUE(AwaitEof(fd));
  ::close(fd);
  EXPECT_TRUE(Eventually([&] {
    return server.Stats().read_deadline_closes == 1;
  }));
  server.Drain();
  EXPECT_EQ(server.Stats().records, 0u);  // nothing accepted, nothing owed
}

TEST(ScoringServer, IdleTimeoutClosesQuietConnection) {
  serve::ScoringServerConfig cfg;
  cfg.idle_timeout_ms = 100;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(AwaitEof(fd));
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().read_deadline_closes, 0u);
}

TEST(ScoringServer, ConnectionCapShedsWithBusy) {
  serve::ScoringServerConfig cfg;
  cfg.max_connections = 1;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  const int fd1 = ConnectTo(server.Port());
  ASSERT_GE(fd1, 0);
  ASSERT_TRUE(SendStr(fd1, DataLines()[0] + "\n"));
  ASSERT_EQ(ReadLines(fd1, 1).size(), 1u);  // fd1 is established + active

  const int fd2 = ConnectTo(server.Port());
  ASSERT_GE(fd2, 0);
  const auto replies = ReadLines(fd2, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], std::string(serve::kBusyConnectionsReply));
  EXPECT_TRUE(AwaitEof(fd2));
  ::close(fd2);
  ::close(fd1);
  server.Drain();
  EXPECT_EQ(server.Stats().connections_rejected, 1u);
}

// ---- socket-level fault injection ------------------------------------------

TEST(ScoringServer, SurvivesShortReadsShortWritesAndEintr) {
  serve::ScoringServerConfig cfg;
  common::SocketFailPlan plan;
  plan.recv_chunk = 7;
  plan.send_chunk = 5;
  plan.eintr_every = 3;
  cfg.ops = common::FaultySocketOps(plan);
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  std::string payload;
  for (int i = 0; i < 10; ++i) payload += DataLines()[i] + "\n";
  ASSERT_TRUE(SendStr(fd, payload));
  const auto replies = ReadLines(fd, 10);
  ::close(fd);
  ASSERT_EQ(replies.size(), 10u);
  const auto verdicts = TrainedIds().InspectAll(WireRows());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replies[i], serve::RenderVerdict(verdicts[i]));
  }
  server.Drain();
  ExpectConservation(server.Stats());
}

TEST(ScoringServer, SurvivesInjectedEagainBursts) {
  serve::ScoringServerConfig cfg;
  common::SocketFailPlan plan;
  plan.eagain_first = 5;
  cfg.ops = common::FaultySocketOps(plan);
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, DataLines()[0] + "\n"));
  const auto replies = ReadLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ok,", 0), 0u);
  server.Drain();
  ExpectConservation(server.Stats());
}

TEST(ScoringServer, MidRecordTruncationAnswersCompleteLinesOnly) {
  std::string payload;
  for (int i = 0; i < 4; ++i) payload += DataLines()[i] + "\n";

  serve::ScoringServerConfig cfg;
  common::SocketFailPlan plan;
  plan.recv_eof_at = payload.size() - 10;  // EOF mid 4th record
  cfg.ops = common::FaultySocketOps(plan);
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, payload));
  const auto replies = ReadLines(fd, 4);  // only 3 can come back
  EXPECT_TRUE(AwaitEof(fd));
  ::close(fd);
  ASSERT_EQ(replies.size(), 3u);
  for (const auto& reply : replies) {
    EXPECT_EQ(reply.rfind("ok,", 0), 0u);
  }
  server.Drain();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.records, 3u);     // the partial 4th was never accepted
  EXPECT_EQ(stats.truncated, 1u);   // ...but it was counted
  ExpectConservation(stats);
}

TEST(ScoringServer, InjectedConnResetCountedAndServerKeepsRunning) {
  serve::ScoringServerConfig cfg;
  common::SocketFailPlan plan;
  plan.recv_reset_at = 10;
  cfg.ops = common::FaultySocketOps(plan);
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  SendStr(fd, DataLines()[0] + "\n");
  EXPECT_TRUE(AwaitEof(fd));
  ::close(fd);
  EXPECT_TRUE(Eventually([&] { return server.Stats().io_errors == 1; }));
  EXPECT_TRUE(server.Running());  // one dead connection, server lives
  server.Drain();
}

// ---- graceful drain --------------------------------------------------------

TEST(ScoringServer, DrainFlushesInFlightAndConservesAcceptedRecords) {
  serve::ScoringServer server(TrainedIds());
  server.Start();

  // Client A completes a full round trip.
  const int fd_a = ConnectTo(server.Port());
  ASSERT_GE(fd_a, 0);
  std::string payload_a;
  for (int i = 0; i < 20; ++i) payload_a += DataLines()[i] + "\n";
  ASSERT_TRUE(SendStr(fd_a, payload_a));
  ASSERT_EQ(ReadLines(fd_a, 20).size(), 20u);

  // Client B has records in flight when the drain lands.
  const int fd_b = ConnectTo(server.Port());
  ASSERT_GE(fd_b, 0);
  std::string payload_b;
  for (int i = 0; i < 10; ++i) payload_b += DataLines()[i] + "\n";
  ASSERT_TRUE(SendStr(fd_b, payload_b));
  ASSERT_TRUE(Eventually([&] { return server.Stats().records >= 30; }));

  server.Drain();  // stop accepting, flush, join

  // B's accepted records were all answered before the close.
  const auto replies_b = ReadLines(fd_b, 10, 2s);
  EXPECT_EQ(replies_b.size(), 10u);
  ::close(fd_b);
  ::close(fd_a);

  // No accepted record lost: every line got exactly one reply.
  const auto stats = server.Stats();
  EXPECT_EQ(stats.records, 30u);
  EXPECT_EQ(stats.ok, 30u);
  ExpectConservation(stats);
  EXPECT_FALSE(server.Running());

  // And the listener is really gone.
  EXPECT_LT(ConnectTo(server.Port()), 0);
}

// Satellite: N concurrent clients through connect/score/drain — the
// PELICAN_SANITIZE=thread build runs this under TSan.
TEST(ScoringServer, ConcurrentClientsScoreAndDrainCleanly) {
  serve::ScoringServerConfig cfg;
  cfg.queue_depth = 256;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  constexpr int kClients = 6;
  constexpr int kChunks = 3;
  constexpr int kPerChunk = 10;
  std::atomic<int> ok_total{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok_total, c] {
      const int fd = ConnectTo(server.Port());
      ASSERT_GE(fd, 0);
      for (int chunk = 0; chunk < kChunks; ++chunk) {
        std::string payload;
        for (int j = 0; j < kPerChunk; ++j) {
          payload += DataLines()[(c * 7 + chunk * kPerChunk + j) %
                                 DataLines().size()];
          payload += '\n';
        }
        ASSERT_TRUE(SendStr(fd, payload));
        const auto replies = ReadLines(fd, kPerChunk);
        ASSERT_EQ(replies.size(), static_cast<std::size_t>(kPerChunk));
        for (const auto& reply : replies) {
          if (reply.rfind("ok,", 0) == 0) ok_total.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  server.Drain();

  const auto stats = server.Stats();
  EXPECT_EQ(ok_total.load(), kClients * kChunks * kPerChunk);
  EXPECT_EQ(stats.records, static_cast<std::uint64_t>(ok_total.load()));
  ExpectConservation(stats);
}

// ---- metrics export --------------------------------------------------------

TEST(ScoringServer, ExportsCountersAndLatencyHistograms) {
  ObsOff guard;
  obs::EnableMetrics(true);
  auto& reg = obs::Registry::Global();
  // Every pelican_serve_* series carries the predict-engine label.
  const obs::Labels fp32{{"engine", "fp32"}};
  const auto records0 =
      reg.CounterValue("pelican_serve_records_total", fp32);
  const auto ok0 = reg.CounterValue("pelican_serve_ok_total", fp32);
  const auto quarantined0 =
      reg.CounterValue("pelican_serve_quarantined_total", fp32);
  const auto lat0 =
      reg.HistogramValue("pelican_serve_record_seconds", fp32).count;
  const auto rows0 =
      reg.HistogramValue("pelican_serve_batch_rows", fp32).count;

  serve::ScoringServer server(TrainedIds());
  EXPECT_EQ(server.Engine(), "fp32");
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, DataLines()[0] + "\nbad\n" + DataLines()[1] + "\n"));
  ASSERT_EQ(ReadLines(fd, 3).size(), 3u);
  ::close(fd);
  server.Drain();

  EXPECT_EQ(reg.CounterValue("pelican_serve_records_total", fp32) - records0,
            3u);
  EXPECT_EQ(reg.CounterValue("pelican_serve_ok_total", fp32) - ok0, 2u);
  EXPECT_EQ(reg.CounterValue("pelican_serve_quarantined_total", fp32) -
                quarantined0,
            1u);
  EXPECT_EQ(
      reg.HistogramValue("pelican_serve_record_seconds", fp32).count - lat0,
      2u);
  EXPECT_GE(reg.HistogramValue("pelican_serve_batch_rows", fp32).count,
            rows0 + 1);

  const auto json = server.StatsJson();
  EXPECT_NE(json.find("\"engine\": \"fp32\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"records\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined\": 1"), std::string::npos) << json;
}

// ---- hash-indexed wire parser (satellite) ----------------------------------

void ExpectSameParse(const serve::ParsedRecord& a,
                     const serve::ParsedRecord& b, const std::string& what) {
  ASSERT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.error, b.error) << what;
  EXPECT_EQ(a.row, b.row) << what;
  EXPECT_EQ(a.truth, b.truth) << what;
}

// The malformed corpus: one line per quarantine reason token, then a
// seeded byte-mutation fuzz of the fixture lines (the same recipe as
// the server-quarantine fuzz above).
const std::vector<std::string>& MalformedLines() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out = {"", "   ", "total,garbage",
                                    DataLines()[0] + ",ExtraField,More"};
    std::string bad_cat = DataLines()[0];
    const auto comma = bad_cat.find(',');
    bad_cat.replace(0, comma, "no_such_protocol");
    out.push_back(bad_cat);
    std::string bad_label = DataLines()[0];
    bad_label.replace(bad_label.rfind(',') + 1, std::string::npos,
                      "NoSuchClass");
    out.push_back(bad_label);
    std::string bad_number = DataLines()[0];
    bad_number.replace(bad_number.find(",") + 1, 0, "x");
    out.push_back(bad_number);
    // A non-finite cell, alone and behind an unknown label, which is
    // named first.
    const auto& schema = TrainedIds().schema();
    auto fields = Split(DataLines()[1], ',');
    std::size_t numeric = 0;
    while (schema.Column(numeric).kind != data::ColumnKind::kNumeric) {
      ++numeric;
    }
    fields[numeric] = "nan";
    out.push_back(Join(fields, ","));
    fields.back() = "NoSuchClass";
    out.push_back(Join(fields, ","));

    Rng rng(1333);
    for (int round = 0; round < 400; ++round) {
      std::string line = DataLines()[static_cast<std::size_t>(round) %
                                     DataLines().size()];
      const int mutations = 1 + static_cast<int>(rng.Below(3));
      for (int m = 0; m < mutations; ++m) {
        const auto pos = static_cast<std::size_t>(rng.Below(line.size()));
        switch (rng.Below(3)) {
          case 0:
            line[pos] = static_cast<char>(rng.Below(256));
            break;
          case 1:
            line.insert(pos, 1, static_cast<char>(rng.Below(256)));
            break;
          default:
            line.erase(pos, 1);
            break;
        }
        if (line.empty()) line = ",";
      }
      std::erase_if(line, [](char ch) { return ch == '\n' || ch == '\r'; });
      out.push_back(line);
    }
    return out;
  }();
  return lines;
}

TEST(Wire, HashParserMatchesLinearScanReference) {
  const auto& schema = TrainedIds().schema();
  const serve::WireParser parser(schema);

  // Every valid fixture line, labeled and unlabeled.
  for (const auto& line : DataLines()) {
    ExpectSameParse(parser.Parse(line), serve::ParseRecordLine(schema, line),
                    "line: " + line);
    const std::string unlabeled = line.substr(0, line.rfind(','));
    ExpectSameParse(parser.Parse(unlabeled),
                    serve::ParseRecordLine(schema, unlabeled),
                    "unlabeled: " + unlabeled);
  }
  // Every quarantine reason token, and every mutant.
  for (const auto& line : MalformedLines()) {
    ExpectSameParse(parser.Parse(line), serve::ParseRecordLine(schema, line),
                    "malformed: " + line);
  }
}

// ReadCsv's outcome on one data line, read after the schema's header
// and a blank line (so it is line 3).
struct CsvOutcome {
  bool ok = false;
  std::string message;  // the CheckError's text after " — ", when !ok
  std::vector<double> cells;
  std::optional<int> label;  // unset when ReadCsv skipped the line
};

CsvOutcome ReadCsvLine(const data::Schema& schema, const std::string& line) {
  std::string csv;
  for (const auto& col : schema.Columns()) csv += col.name + ",";
  csv += "label\n\n" + line + "\n";
  std::istringstream in(csv);
  CsvOutcome out;
  try {
    const auto ds = data::ReadCsv(schema, in);
    out.ok = true;
    if (ds.Size() == 1) {
      out.cells.assign(ds.Row(0).begin(), ds.Row(0).end());
      out.label = ds.Label(0);
    }
  } catch (const CheckError& e) {
    const std::string what = e.what();
    const std::string dash = " — ";
    out.message = what.substr(what.find(dash) + dash.size());
  }
  return out;
}

// One grammar: ReadCsv and the wire agree on every line — the same
// cells and label where both accept, and where the wire rejects,
// ReadCsv rejects with the same reason, naming the line and the column
// and text of the cell at fault. ReadCsv skips a blank line (the wire's
// `empty`) and requires the label (an unlabeled line is a width error).
TEST(Wire, ReadCsvAgreesWithWireParser) {
  const auto& schema = TrainedIds().schema();
  const serve::WireParser parser(schema);
  const std::map<std::string, std::string> prefix = {
      {"width", "CSV row width mismatch"},
      {"unknown_category", "unknown category '"},
      {"bad_number", "bad numeric cell '"},
      {"non_finite", "non-finite numeric value '"},
      {"unknown_label", "unknown label '"}};
  std::vector<std::string> lines;
  for (const auto& line : DataLines()) {
    lines.push_back(line);
    lines.push_back(line.substr(0, line.rfind(',')));
  }
  lines.insert(lines.end(), MalformedLines().begin(), MalformedLines().end());

  std::map<std::string, int> reasons;
  for (const auto& line : lines) {
    SCOPED_TRACE("line: " + line);
    const auto wire = parser.Parse(line);
    const auto csv = ReadCsvLine(schema, line);
    if (wire.ok && wire.truth.has_value()) {
      ASSERT_TRUE(csv.ok) << csv.message;
      EXPECT_EQ(csv.cells, wire.row);
      EXPECT_EQ(csv.label, wire.truth);
      ++reasons["ok"];
      continue;
    }
    if (wire.error == "empty") {
      EXPECT_TRUE(csv.ok && !csv.label.has_value());
      ++reasons["empty"];
      continue;
    }
    ASSERT_FALSE(csv.ok);
    const std::string reason = wire.ok ? "width" : wire.error;
    ++reasons[reason];
    ASSERT_EQ(prefix.count(reason), 1u) << reason;
    std::string want = prefix.at(reason);
    if (reason != "width") {
      const auto row = data::ParseCsvRow(schema, line, nullptr);
      want += std::string(row.field) + "' in column " +
              (row.column < schema.ColumnCount()
                   ? schema.Column(row.column).name
                   : std::string("label"));
    }
    want += " at line 3";
    // what() is a C string: a NUL byte in the field ends it.
    EXPECT_EQ(csv.message, want.substr(0, want.find('\0')));
  }
  // The corpus reaches every outcome.
  for (const char* outcome : {"ok", "empty", "width", "unknown_category",
                              "bad_number", "non_finite", "unknown_label"}) {
    EXPECT_GT(reasons[outcome], 0) << outcome;
  }
}

// ---- quantized scoring path (tentpole) -------------------------------------

// A second model instance running the int8 engine, restored through the
// `.quant` sidecar so the test covers serialize → load → serve.
const core::PelicanIds& QuantizedIds() {
  static const core::PelicanIds* ids = [] {
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / "pelican_serve_quant";
    std::filesystem::create_directories(dir);
    const auto path = (dir / "model.bin").string();
    TrainedIds().Save(path);
    core::IdsConfig config;
    config.n_blocks = 2;
    config.channels = 8;
    config.train.epochs = 2;
    config.train.batch_size = 32;
    config.train.seed = 7;
    auto* restored = new core::PelicanIds(data::NslKddSchema(), config);
    restored->Load(path);
    restored->EnableQuantized(true);
    return restored;
  }();
  return *ids;
}

TEST(ScoringServer, QuantizedVerdictsMatchQuantizedBatchByteForByte) {
  serve::ScoringServer server(QuantizedIds());
  EXPECT_EQ(server.Engine(), "int8");
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, JoinLines(DataLines())));
  const auto replies = ReadLines(fd, DataLines().size());
  ::close(fd);
  ASSERT_EQ(replies.size(), DataLines().size());

  const auto verdicts = QuantizedIds().InspectAll(WireRows());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    // Byte equality with the batch CLI's --quantized --verdicts-out
    // path, and the exact `ok,<class>,<%.6f>` wire format.
    EXPECT_EQ(replies[i], serve::RenderVerdict(verdicts[i])) << "row " << i;
    ASSERT_EQ(replies[i].rfind("ok,", 0), 0u) << replies[i];
    const auto last_comma = replies[i].rfind(',');
    const std::string confidence = replies[i].substr(last_comma + 1);
    ASSERT_EQ(confidence.size(), 8u) << replies[i];  // d.dddddd
    EXPECT_EQ(confidence[1], '.') << replies[i];
  }

  const auto json = server.StatsJson();
  EXPECT_NE(json.find("\"engine\": \"int8\""), std::string::npos) << json;
  server.Drain();
  ExpectConservation(server.Stats());
}

TEST(ScoringServer, QuantizedAndFp32EnginesAgreeOnVerdictClasses) {
  const auto fp32 = TrainedIds().InspectAll(WireRows());
  const auto int8 = QuantizedIds().InspectAll(WireRows());
  ASSERT_EQ(fp32.size(), int8.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    if (fp32[i].label == int8[i].label) ++agree;
  }
  // Small 2-epoch fixture model: tolerate a couple of boundary flips
  // but nothing systematic.
  EXPECT_GE(agree * 10, fp32.size() * 9)
      << agree << "/" << fp32.size() << " labels agree";
}

// ---- multi-scorer parallel serve plane (tentpole) --------------------------

// Streams every fixture line through one connection of a server running
// `scorers` threads and returns the joined reply stream.
std::string VerdictStreamWithScorers(const core::PelicanIds& ids,
                                     std::size_t scorers) {
  serve::ScoringServerConfig cfg;
  cfg.scorers = scorers;
  serve::ScoringServer server(ids, cfg);
  server.Start();
  EXPECT_EQ(server.ScorerCount(), scorers);
  const int fd = ConnectTo(server.Port());
  EXPECT_GE(fd, 0);
  EXPECT_TRUE(SendStr(fd, JoinLines(DataLines())));
  const auto replies = ReadLines(fd, DataLines().size());
  ::close(fd);
  EXPECT_EQ(replies.size(), DataLines().size());
  server.Drain();
  ExpectConservation(server.Stats());
  return JoinLines(replies);
}

// The determinism contract the issue pins down: verdict bytes are a
// function of the input stream alone, not of how many scorer threads
// happened to race over the queue — for both predict engines.
TEST(ScoringServer, VerdictStreamByteIdenticalAcrossScorerCounts) {
  const std::string fp32_one = VerdictStreamWithScorers(TrainedIds(), 1);
  for (const std::size_t scorers : {2u, 4u}) {
    const std::string got = VerdictStreamWithScorers(TrainedIds(), scorers);
    ASSERT_EQ(got.size(), fp32_one.size()) << "scorers=" << scorers;
    EXPECT_EQ(std::memcmp(got.data(), fp32_one.data(), got.size()), 0)
        << "fp32 verdict stream diverged at scorers=" << scorers;
  }
  const std::string int8_one = VerdictStreamWithScorers(QuantizedIds(), 1);
  for (const std::size_t scorers : {2u, 4u}) {
    const std::string got = VerdictStreamWithScorers(QuantizedIds(), scorers);
    ASSERT_EQ(got.size(), int8_one.size()) << "scorers=" << scorers;
    EXPECT_EQ(std::memcmp(got.data(), int8_one.data(), got.size()), 0)
        << "int8 verdict stream diverged at scorers=" << scorers;
  }
}

// N scorers × M clients hammering the queue concurrently; the
// PELICAN_SANITIZE=thread build runs this under TSan. Small max_batch
// forces many micro-batches so distinct scorers interleave on the same
// connections' reply slots.
TEST(ScoringServer, MultiScorerConcurrentClientsKeepOrderAndConserve) {
  serve::ScoringServerConfig cfg;
  cfg.scorers = 4;
  cfg.max_batch = 4;
  cfg.batch_linger_ms = 0;
  cfg.queue_depth = 512;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();
  ASSERT_EQ(server.ScorerCount(), 4u);

  const auto expected = TrainedIds().InspectAll(WireRows());
  constexpr int kClients = 6;
  constexpr int kChunks = 4;
  constexpr int kPerChunk = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &expected, &mismatches, c] {
      const int fd = ConnectTo(server.Port());
      ASSERT_GE(fd, 0);
      for (int chunk = 0; chunk < kChunks; ++chunk) {
        std::string payload;
        std::vector<std::size_t> sent;
        for (int j = 0; j < kPerChunk; ++j) {
          const std::size_t idx =
              (c * 11 + chunk * kPerChunk + j) % DataLines().size();
          sent.push_back(idx);
          payload += DataLines()[idx];
          payload += '\n';
        }
        ASSERT_TRUE(SendStr(fd, payload));
        const auto replies = ReadLines(fd, kPerChunk);
        ASSERT_EQ(replies.size(), static_cast<std::size_t>(kPerChunk));
        // Per-connection reply order must track send order exactly, no
        // matter which scorer answered each record.
        for (int j = 0; j < kPerChunk; ++j) {
          if (replies[static_cast<std::size_t>(j)] !=
              serve::RenderVerdict(expected[sent[static_cast<std::size_t>(j)]]))
            mismatches.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  server.Drain();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = server.Stats();
  EXPECT_EQ(stats.records,
            static_cast<std::uint64_t>(kClients * kChunks * kPerChunk));
  EXPECT_EQ(stats.ok, stats.records);
  ExpectConservation(stats);
}

// Drain lands while several scorers still have queued work from live
// connections: every accepted record must still be answered exactly
// once before the join.
TEST(ScoringServer, MultiScorerDrainUnderLoadConservesAcceptedRecords) {
  serve::ScoringServerConfig cfg;
  cfg.scorers = 4;
  cfg.max_batch = 4;
  cfg.batch_linger_ms = 0;
  serve::ScoringServer server(TrainedIds(), cfg);
  server.Start();

  constexpr int kClients = 3;
  constexpr int kRows = 16;
  std::vector<int> fds;
  for (int c = 0; c < kClients; ++c) {
    const int fd = ConnectTo(server.Port());
    ASSERT_GE(fd, 0);
    std::string payload;
    for (int i = 0; i < kRows; ++i) payload += DataLines()[i] + "\n";
    ASSERT_TRUE(SendStr(fd, payload));
    fds.push_back(fd);
  }
  ASSERT_TRUE(Eventually(
      [&] { return server.Stats().records >= kClients * kRows; }));

  server.Drain();  // races the scorer pool against in-flight chunks

  for (const int fd : fds) {
    EXPECT_EQ(ReadLines(fd, kRows, 2s).size(), static_cast<std::size_t>(kRows));
    ::close(fd);
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.records, static_cast<std::uint64_t>(kClients * kRows));
  EXPECT_EQ(stats.ok, stats.records);
  ExpectConservation(stats);
  EXPECT_FALSE(server.Running());
}

// ---- request lifecycle & tail-latency attribution (tentpole) ---------------

// Serves every fixture line through `cfg` and returns the server after
// Drain() so callers can inspect its lifecycle exports.
void ServeAllLines(serve::ScoringServer& server) {
  server.Start();
  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, JoinLines(DataLines())));
  ASSERT_EQ(ReadLines(fd, DataLines().size()).size(), DataLines().size());
  ::close(fd);
  server.Drain();
  ExpectConservation(server.Stats());
}

// The reconciliation law the issue pins down: the four stage histograms
// are slices of ONE telescoping clock read per record (admission →
// dequeue → assemble → score → reply write), so their deltas must carry
// the same observation count as pelican_serve_record_seconds and their
// sums must add back up to its sum (float rounding only).
TEST(ScoringServer, StageHistogramsTelescopeIntoRecordSeconds) {
  ObsOff guard;
  obs::EnableMetrics(true);
  auto& reg = obs::Registry::Global();
  const obs::Labels fp32{{"engine", "fp32"}};
  constexpr const char* kStages[] = {"queue", "batch", "score", "reply"};
  const auto total0 = reg.HistogramValue("pelican_serve_record_seconds", fp32);
  std::vector<obs::Registry::HistogramSnapshot> stage0;
  for (const char* stage : kStages) {
    stage0.push_back(reg.HistogramValue(
        "pelican_serve_stage_seconds",
        obs::Labels{{"engine", "fp32"}, {"stage", stage}}));
  }

  serve::ScoringServerConfig cfg;
  cfg.scorers = 2;
  serve::ScoringServer server(TrainedIds(), cfg);
  ServeAllLines(server);

  const auto total1 = reg.HistogramValue("pelican_serve_record_seconds", fp32);
  const auto scored = total1.count - total0.count;
  EXPECT_EQ(scored, DataLines().size());
  double stage_sum = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto after = reg.HistogramValue(
        "pelican_serve_stage_seconds",
        obs::Labels{{"engine", "fp32"}, {"stage", kStages[i]}});
    EXPECT_EQ(after.count - stage0[i].count, scored) << kStages[i];
    stage_sum += after.sum - stage0[i].sum;
  }
  const double total_sum = total1.sum - total0.sum;
  EXPECT_GT(total_sum, 0.0);
  EXPECT_NEAR(stage_sum, total_sum, 1e-9 + 1e-9 * total_sum);
}

// The slow ring's top-K is exact even when writers race: the atomic
// floor is only a fast-path filter (re-checked under the lock), so the
// K largest totals always survive. The PELICAN_SANITIZE=thread build
// runs this under TSan.
TEST(SlowRecordRing, KeepsExactTopKUnderConcurrentWriters) {
  constexpr std::size_t kTopK = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  serve::SlowRecordRing ring(kTopK, 0, "fp32");
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve::RecordLifecycle rec;
        rec.chunk = static_cast<std::uint64_t>(t);
        rec.index = static_cast<std::uint32_t>(i);
        rec.verdict = "ok";
        // All totals distinct across threads, so the winning set is
        // unambiguous no matter how the races resolve.
        rec.total_s = static_cast<double>(t * kPerThread + i) * 1e-6;
        rec.queue_s = rec.total_s;
        ring.Record(rec);
      }
    });
  }
  for (auto& w : writers) w.join();

  constexpr int kTotal = kThreads * kPerThread;
  EXPECT_EQ(ring.Recorded(), static_cast<std::uint64_t>(kTotal));
  auto slow = ring.SlowSnapshot();
  ASSERT_EQ(slow.size(), kTopK);
  std::sort(slow.begin(), slow.end(),
            [](const serve::RecordLifecycle& a,
               const serve::RecordLifecycle& b) { return a.total_s < b.total_s; });
  for (std::size_t i = 0; i < kTopK; ++i) {
    EXPECT_NEAR(slow[i].total_s,
                static_cast<double>(kTotal - static_cast<int>(kTopK) +
                                    static_cast<int>(i)) * 1e-6,
                1e-12);
  }

  // Jsonl orders slow entries slowest-first.
  const auto lines = Lines(ring.Jsonl());
  ASSERT_EQ(lines.size(), kTopK);  // sampling off → slow entries only
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& line : lines) {
    const auto doc = obs::ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->Find("kind")->str, "slow");
    const double total_ms = doc->Find("total_ms")->number;
    EXPECT_LE(total_ms, prev);
    prev = total_ms;
  }
}

// Shared schema check for one /slow or access-log JSONL line.
void ExpectLifecycleLine(const std::string& line) {
  const auto doc = obs::ParseJson(line);
  ASSERT_TRUE(doc.has_value()) << line;
  for (const char* key : {"time", "kind", "engine", "verdict"}) {
    const auto* v = doc->Find(key);
    ASSERT_TRUE(v != nullptr && v->IsString()) << key << ": " << line;
  }
  const std::string& kind = doc->Find("kind")->str;
  EXPECT_TRUE(kind == "slow" || kind == "sample") << line;
  EXPECT_EQ(doc->Find("engine")->str, "fp32") << line;
  for (const char* key : {"chunk", "index", "total_ms"}) {
    const auto* v = doc->Find(key);
    ASSERT_TRUE(v != nullptr && v->IsNumber()) << key << ": " << line;
  }
  // Stage fields are numbers, or null when the stage never ran; when
  // all four ran they telescope back into total_ms.
  double staged = 0.0;
  bool all_ran = true;
  for (const char* key : {"queue_ms", "batch_ms", "score_ms", "reply_ms"}) {
    const auto* v = doc->Find(key);
    ASSERT_NE(v, nullptr) << key << ": " << line;
    ASSERT_TRUE(v->IsNumber() || v->type == obs::JsonValue::Type::kNull)
        << key << ": " << line;
    if (v->IsNumber()) {
      staged += v->number;
    } else {
      all_ran = false;
    }
  }
  if (all_ran) {
    EXPECT_NEAR(staged, doc->Find("total_ms")->number, 1e-5) << line;
  }
}

// /slow payload + access log: every line round-trips through the JSON
// parser with the documented schema, the access log carries one line
// per finalized record at sample_every=1, and both ride the shared
// LineSink (no torn lines even with two scorers appending).
TEST(ScoringServer, SlowJsonlAndAccessLogRoundTripSchema) {
  const auto log_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_access.jsonl")
          .string();
  serve::ScoringServerConfig cfg;
  cfg.scorers = 2;
  cfg.slow_top_k = 4;
  cfg.sample_every = 1;
  cfg.access_log_path = log_path;
  serve::ScoringServer server(TrainedIds(), cfg);
  ASSERT_TRUE(server.SlowRing().AccessLogActive());
  ServeAllLines(server);

  EXPECT_EQ(server.SlowRing().Recorded(), DataLines().size());
  EXPECT_EQ(server.SlowRing().AccessLogFailures(), 0u);

  // /slow: top-K slowest (descending) then every sampled record.
  const auto jsonl = Lines(server.SlowJsonl());
  ASSERT_EQ(jsonl.size(), 4u + DataLines().size());
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < jsonl.size(); ++i) {
    ExpectLifecycleLine(jsonl[i]);
    const auto doc = obs::ParseJson(jsonl[i]);
    EXPECT_EQ(doc->Find("kind")->str, i < 4 ? "slow" : "sample") << jsonl[i];
    if (i < 4) {
      const double total_ms = doc->Find("total_ms")->number;
      EXPECT_LE(total_ms, prev);
      prev = total_ms;
    }
  }

  // Access log: one well-formed line per finalized record.
  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open()) << log_path;
  std::vector<std::string> logged;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) logged.push_back(line);
  }
  ASSERT_EQ(logged.size(), DataLines().size());
  for (const auto& entry : logged) ExpectLifecycleLine(entry);
}

// One trace flow per ingest chunk: its "s" start is emitted on the
// connection thread, at least one "t" step lands on a scorer thread
// (different tid), and the "f" end binds to the enclosing reply slice
// ("bp": "e") back on the connection thread — the Perfetto-visible
// cross-thread arrow the issue requires.
TEST(ScoringServer, TraceFlowEventsLinkConnectionAndScorerThreads) {
  ObsOff guard;
  obs::EnableTracing(true);
  obs::ResetTrace();

  serve::ScoringServerConfig cfg;
  cfg.scorers = 2;
  serve::ScoringServer server(TrainedIds(), cfg);
  ServeAllLines(server);
  obs::EnableTracing(false);

  const auto doc = obs::ParseJson(obs::TraceJson());
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  struct Flow {
    std::vector<double> start_tids, step_tids, end_tids;
    bool end_binds_enclosing = false;
  };
  std::map<std::string, Flow> flows;
  for (const auto& ev : events->array) {
    const auto* ph = ev.Find("ph");
    if (ph == nullptr ||
        (ph->str != "s" && ph->str != "t" && ph->str != "f")) {
      continue;
    }
    const auto* id = ev.Find("id");
    ASSERT_TRUE(id != nullptr && id->IsString());
    const auto* tid = ev.Find("tid");
    ASSERT_TRUE(tid != nullptr && tid->IsNumber());
    Flow& flow = flows[id->str];
    if (ph->str == "s") {
      flow.start_tids.push_back(tid->number);
    } else if (ph->str == "t") {
      flow.step_tids.push_back(tid->number);
    } else {
      flow.end_tids.push_back(tid->number);
      const auto* bp = ev.Find("bp");
      flow.end_binds_enclosing =
          bp != nullptr && bp->IsString() && bp->str == "e";
    }
  }
  ASSERT_FALSE(flows.empty());
  bool crossed_threads = false;
  for (const auto& [id, flow] : flows) {
    ASSERT_EQ(flow.start_tids.size(), 1u) << id;
    ASSERT_EQ(flow.end_tids.size(), 1u) << id;
    ASSERT_FALSE(flow.step_tids.empty()) << id;
    EXPECT_TRUE(flow.end_binds_enclosing) << id;
    for (const double step_tid : flow.step_tids) {
      if (step_tid != flow.start_tids[0]) crossed_threads = true;
    }
  }
  EXPECT_TRUE(crossed_threads)
      << "no flow stepped from a connection thread onto a scorer thread";
}

// The /serve JSON gains the lifecycle summary: scorer utilization, the
// trace-drop counter, slow-ring totals, and per-stage p50/p99 read
// through the shared quantile helper.
TEST(ScoringServer, StatsJsonReportsLifecycleSummaries) {
  ObsOff guard;
  obs::EnableMetrics(true);
  serve::ScoringServerConfig cfg;
  cfg.scorers = 2;
  cfg.sample_every = 4;
  serve::ScoringServer server(TrainedIds(), cfg);
  ServeAllLines(server);

  const auto doc = obs::ParseJson(server.StatsJson());
  ASSERT_TRUE(doc.has_value());
  const auto* busy = doc->Find("scorer_busy_ratio");
  ASSERT_TRUE(busy != nullptr && busy->IsNumber());
  EXPECT_GE(busy->number, 0.0);
  EXPECT_LE(busy->number, 1.0);
  EXPECT_GT(server.ScorerBusyRatio(), 0.0);  // it did score something

  const auto* dropped = doc->Find("trace_dropped");
  ASSERT_TRUE(dropped != nullptr && dropped->IsNumber());
  const auto* slow_recorded = doc->Find("slow_recorded");
  ASSERT_TRUE(slow_recorded != nullptr && slow_recorded->IsNumber());
  EXPECT_EQ(slow_recorded->number,
            static_cast<double>(DataLines().size()));
  ASSERT_NE(doc->Find("access_log_active"), nullptr);
  EXPECT_FALSE(doc->Find("access_log_active")->boolean);
  ASSERT_NE(doc->Find("access_log_failures"), nullptr);

  // End-to-end and per-stage quantiles come from the same global
  // histograms, so with metrics on they must carry mass (> 0).
  const auto* p99 = doc->Find("p99_ms");
  ASSERT_TRUE(p99 != nullptr && p99->IsNumber());
  EXPECT_GT(p99->number, 0.0);
  const auto* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* name : {"queue", "batch", "score", "reply"}) {
    const auto* stage = stages->Find(name);
    ASSERT_NE(stage, nullptr) << name;
    for (const char* q : {"p50_ms", "p99_ms"}) {
      const auto* v = stage->Find(q);
      ASSERT_TRUE(v != nullptr && v->IsNumber()) << name << "." << q;
      EXPECT_GT(v->number, 0.0) << name << "." << q;
    }
  }
}

// ---- HTTP control plane under EINTR (satellite) ----------------------------

TEST(HttpServer, AnswersThroughInjectedEintrAndShortIo) {
  obs::HttpServerConfig cfg;
  common::SocketFailPlan plan;
  plan.recv_chunk = 3;
  plan.send_chunk = 4;
  plan.eintr_every = 2;  // every other syscall is interrupted
  cfg.ops = common::FaultySocketOps(plan);
  obs::HttpServer server(cfg);
  server.Handle("/healthz", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server.Start();

  const int fd = ConnectTo(server.Port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendStr(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string response;
  char buf[1024];
  ssize_t n = 0;
  timeval tv{100 / 1000, (100 % 1000) * 1000};
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.Stop();
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("ok\n"), std::string::npos) << response;
}

// ---- StreamDetector quarantine telemetry (satellite) -----------------------

TEST(StreamQuarantine, CounterAndJsonExported) {
  ObsOff guard;
  obs::EnableMetrics(true);
  auto& reg = obs::Registry::Global();
  const auto before = reg.CounterValue("pelican_stream_quarantined_total");

  core::StreamDetector detector(TrainedIds());
  std::vector<double> bad_width{1.0, 2.0};
  EXPECT_FALSE(detector.Ingest(bad_width).has_value());
  std::vector<double> bad_value(DataRows().Row(0).begin(),
                                DataRows().Row(0).end());
  bad_value[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(detector.Ingest(bad_value).has_value());
  detector.Ingest(DataRows().Row(0));

  EXPECT_EQ(reg.CounterValue("pelican_stream_quarantined_total") - before,
            2u);
  const auto stats = detector.Stats();
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.processed, 3u);
  const auto json = core::StreamStatsJson(stats);
  EXPECT_NE(json.find("\"quarantined\": 2"), std::string::npos) << json;
}

TEST(StreamQuarantine, OutOfVocabCategoricalIndexQuarantined) {
  const auto& schema = TrainedIds().schema();
  std::size_t categorical = schema.ColumnCount();
  for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
    if (schema.Column(c).kind == data::ColumnKind::kCategorical) {
      categorical = c;
      break;
    }
  }
  ASSERT_LT(categorical, schema.ColumnCount());

  std::vector<double> row(DataRows().Row(0).begin(),
                          DataRows().Row(0).end());
  EXPECT_FALSE(core::IsMalformedRecord(schema, row));
  row[categorical] = 1e6;  // way outside the vocabulary
  EXPECT_TRUE(core::IsMalformedRecord(schema, row));
  row[categorical] = 0.5;  // non-integral index
  EXPECT_TRUE(core::IsMalformedRecord(schema, row));

  // The detector quarantines it instead of handing the encoder an
  // out-of-bounds one-hot offset.
  core::StreamDetector detector(TrainedIds());
  row[categorical] = 1e6;
  EXPECT_FALSE(detector.Ingest(row).has_value());
  EXPECT_EQ(detector.Stats().quarantined, 1u);
}

// ---- StreamDetector::IngestAll ----------------------------------------------

void ExpectSameBytes(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": " << a << " vs " << b;
}

void ExpectSameStats(const core::StreamStats& a, const core::StreamStats& b) {
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.labeled, b.labeled);
  EXPECT_EQ(a.per_class, b.per_class);
  EXPECT_EQ(a.window_labeled, b.window_labeled);
  EXPECT_EQ(a.window_drifted_features, b.window_drifted_features);
  ExpectSameBytes(a.window_alert_rate, b.window_alert_rate, "alert rate");
  ExpectSameBytes(a.window_low_confidence, b.window_low_confidence,
                  "low confidence");
  ExpectSameBytes(a.window_detection_rate, b.window_detection_rate, "DR");
  ExpectSameBytes(a.window_accuracy, b.window_accuracy, "ACC");
  ExpectSameBytes(a.window_false_alarm_rate, b.window_false_alarm_rate,
                  "FAR");
  ExpectSameBytes(a.window_drift_score, b.window_drift_score, "drift");
}

// IngestAll gives what per-record Ingest gives on a fresh detector:
// alerts (suppressed ones included), Stats(), counters, latency
// observations and gauges; its verdicts are InspectAll's. 150 labeled
// rows span five slices of the 32-row scoring batch, and every 13th
// holds a NaN cell, so it is quarantined.
TEST(StreamIngestAll, MatchesPerRecordIngest) {
  ObsOff guard;
  obs::EnableMetrics(true);
  auto& reg = obs::Registry::Global();
  const auto& ids = TrainedIds();
  ASSERT_EQ(ids.scoring_batch(), 32u);

  Rng rng(61);
  const auto source = data::GenerateNslKdd(150, rng);
  const auto& schema = source.schema();
  std::size_t numeric = 0;
  while (schema.Column(numeric).kind != data::ColumnKind::kNumeric) ++numeric;
  data::RawDataset records(schema);
  std::vector<bool> quarantined;
  for (std::size_t i = 0; i < source.Size(); ++i) {
    std::vector<double> row(source.Row(i).begin(), source.Row(i).end());
    quarantined.push_back(i % 13 == 5);
    if (quarantined.back()) {
      row[numeric] = std::numeric_limits<double>::quiet_NaN();
    }
    records.Add(std::move(row), source.Label(i));
  }
  core::StreamConfig config;
  config.window = 40;
  config.max_window_alert_rate = 0.2;  // low: some alerts are suppressed

  // The pelican_stream_* counters and the latency histogram's count.
  const auto metrics = [&reg] {
    std::vector<double> v;
    for (const char* name :
         {"pelican_stream_records_total", "pelican_stream_alerts_total",
          "pelican_stream_quarantined_total",
          "pelican_stream_labeled_total"}) {
      v.push_back(static_cast<double>(reg.CounterValue(name)));
    }
    v.push_back(static_cast<double>(
        reg.HistogramValue("pelican_stream_record_seconds").count));
    return v;
  };
  const auto gauges = [&reg] {
    std::vector<double> v;
    for (const char* name :
         {"pelican_stream_drift_score", "pelican_stream_drifted_features",
          "pelican_stream_window_detection_rate",
          "pelican_stream_window_accuracy",
          "pelican_stream_window_false_alarm_rate"}) {
      v.push_back(reg.GaugeValue(name));
    }
    return v;
  };
  const auto delta = [](std::vector<double> after,
                        const std::vector<double>& before) {
    for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };

  auto before = metrics();
  core::StreamDetector per_record(ids, config);
  std::vector<core::Alert> want;
  for (std::size_t i = 0; i < records.Size(); ++i) {
    if (auto alert = per_record.Ingest(records.Row(i), records.Label(i))) {
      want.push_back(*alert);
    }
  }
  const auto want_metrics = delta(metrics(), before);
  const auto want_gauges = gauges();

  before = metrics();
  core::StreamDetector batched(ids, config);
  std::vector<core::Alert> got;
  const auto verdicts = batched.IngestAll(
      records, [&got](const core::Alert& alert) { got.push_back(alert); },
      /*labels_for_quality=*/true);
  EXPECT_EQ(delta(metrics(), before), want_metrics);
  EXPECT_EQ(want_metrics[0], 150.0);
  EXPECT_EQ(want_metrics[4], 150.0);  // one latency observation each
  const auto got_gauges = gauges();
  for (std::size_t i = 0; i < got_gauges.size(); ++i) {
    ExpectSameBytes(got_gauges[i], want_gauges[i], "gauge");
  }

  ASSERT_EQ(got.size(), want.size());
  std::size_t suppressed = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, want[i].sequence) << i;
    EXPECT_EQ(got[i].label, want[i].label) << i;
    EXPECT_EQ(got[i].class_name, want[i].class_name) << i;
    EXPECT_EQ(std::memcmp(&got[i].confidence, &want[i].confidence,
                          sizeof(float)),
              0)
        << i;
    EXPECT_EQ(got[i].suppressed, want[i].suppressed) << i;
    suppressed += got[i].suppressed ? 1 : 0;
  }
  EXPECT_GT(suppressed, 0u);
  EXPECT_LT(suppressed, got.size());
  const auto stats = batched.Stats();
  ExpectSameStats(stats, per_record.Stats());
  EXPECT_EQ(stats.quarantined, 12u);

  const auto expected = ids.InspectAll(records);
  std::size_t scored = 0;
  for (std::size_t i = 0; i < records.Size(); ++i) {
    if (quarantined[i]) continue;
    ASSERT_LT(scored, verdicts.size());
    const auto& v = verdicts[scored++];
    EXPECT_EQ(serve::RenderVerdict(v), serve::RenderVerdict(expected[i]));
    EXPECT_EQ(v.label, expected[i].label);
    EXPECT_EQ(v.is_attack, expected[i].is_attack);
    EXPECT_EQ(std::memcmp(&v.confidence, &expected[i].confidence,
                          sizeof(float)),
              0)
        << i;
  }
  EXPECT_EQ(scored, verdicts.size());

  // The flood limiter and the window rates, recounted over a plain
  // deque of the last `window` scored verdicts.
  std::deque<const core::PelicanIds::Verdict*> window;
  const auto share = [&window](auto&& pred) {
    return static_cast<double>(
               std::count_if(window.begin(), window.end(), pred)) /
           static_cast<double>(window.size());
  };
  const auto attack = [](const auto* v) { return v->is_attack; };
  std::vector<bool> want_suppressed;
  for (std::size_t i = 0; i < records.Size(); ++i) {
    if (quarantined[i]) continue;
    const double rate = window.empty() ? 0.0 : share(attack);
    if (expected[i].is_attack) {
      want_suppressed.push_back(rate > config.max_window_alert_rate);
    }
    window.push_back(&expected[i]);
    if (window.size() > config.window) window.pop_front();
  }
  ASSERT_EQ(want_suppressed.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].suppressed, want_suppressed[i]) << i;
  }
  ExpectSameBytes(stats.window_alert_rate, share(attack), "alert rate");
  ExpectSameBytes(stats.window_low_confidence,
                  share([&config](const auto* v) {
                    return v->confidence < config.low_confidence;
                  }),
                  "low confidence");
}

// Stats() may be read from another thread, and from the alert callback,
// while IngestAll runs (the TSan build checks the first; the second
// would deadlock if the callback ran under the detector's lock).
TEST(StreamIngestAll, StatsReadConcurrently) {
  core::StreamDetector detector(TrainedIds());
  Rng rng(62);
  const auto records = data::GenerateNslKdd(320, rng);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  bool monotonic = true;
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const auto stats = detector.Stats();
      monotonic = monotonic && stats.processed >= last;
      last = stats.processed;
      (void)core::StreamStatsJson(stats);
      reads.fetch_add(1);
    }
  });
  std::uint64_t seen_in_callback = 0;
  const auto verdicts = detector.IngestAll(
      records,
      [&](const core::Alert& alert) {
        if (seen_in_callback == 0) {
          // Hold the first alert until the reader has read mid-run.
          const std::size_t before = reads.load();
          while (reads.load() == before) std::this_thread::yield();
        }
        seen_in_callback = detector.Stats().processed;
        EXPECT_GT(seen_in_callback, alert.sequence);
      },
      /*labels_for_quality=*/true);
  done.store(true);
  reader.join();
  EXPECT_TRUE(monotonic);
  EXPECT_GT(seen_in_callback, 0u);
  EXPECT_EQ(verdicts.size(), records.Size());
  EXPECT_EQ(detector.Stats().processed, records.Size());
}

}  // namespace
}  // namespace pelican
