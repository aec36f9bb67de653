#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace fastjoin::telemetry {
namespace {

TEST(TraceLog, BeginEndProducesClosedSpan) {
  TraceLog log;
  const auto h = log.begin("migrate", "migration");
  ASSERT_NE(h, TraceLog::kInvalid);
  log.arg(h, "src", 3);
  log.end(h);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped(), 0u);

  std::ostringstream os;
  log.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"migrate\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\": \"migration\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"src\": 3"), std::string::npos);
}

TEST(TraceLog, DoubleEndIsIdempotent) {
  TraceLog log;
  const auto h = log.begin("s", "c");
  log.end(h);
  log.end(h);  // second close must not rewrite the duration
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, InstantEvents) {
  TraceLog log;
  log.instant("crash", "fault");
  std::ostringstream os;
  log.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"crash\""), std::string::npos);
}

TEST(TraceLog, ScopedSpanClosesOnDestruction) {
  TraceLog log;
  {
    ScopedSpan span(log, "extract", "migration");
    span.arg("keys", 12);
  }
  std::ostringstream os;
  log.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"keys\": 12"), std::string::npos);
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, EscapesQuotesAndControlChars) {
  TraceLog log;
  log.instant("we\"ird\nname", "c");
  std::ostringstream os;
  log.write_chrome_trace(os);
  EXPECT_NE(os.str().find("we\\\"ird name"), std::string::npos);
}

TEST(TraceLog, InvalidHandleOpsAreNoOps) {
  TraceLog log;
  log.end(TraceLog::kInvalid);
  log.arg(TraceLog::kInvalid, "k", 1);
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLog, ClearEmptiesTheLog) {
  TraceLog log;
  log.instant("a", "b");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLog, SpansFromDifferentThreadsGetDifferentTids) {
  TraceLog log;
  log.instant("main", "c");
  std::thread other([&log] { log.instant("other", "c"); });
  other.join();
  ASSERT_EQ(log.size(), 2u);
  std::ostringstream os;
  log.write_chrome_trace(os);
  const std::string out = os.str();
  // Both events present; Perfetto assigns them separate tracks.
  EXPECT_NE(out.find("\"name\": \"main\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"other\""), std::string::npos);
}

TEST(TraceLog, WriteToFileRoundTrips) {
  TraceLog log;
  log.instant("marker", "test");
  const std::string path = ::testing::TempDir() + "trace_test.json";
  ASSERT_TRUE(log.write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"marker\""), std::string::npos);
}

TEST(TraceLog, ConcurrentSpansAreAllRecorded) {
  TraceLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(log, "work", "test");
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(log.size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace fastjoin::telemetry
