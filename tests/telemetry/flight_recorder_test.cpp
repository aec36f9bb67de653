#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include "telemetry/clock.hpp"

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace fastjoin::telemetry {
namespace {

// The recorder is process-global (rings are retained after thread
// exit, which is the point), so these tests assert on the presence of
// their own distinctive events rather than on global emptiness.

std::string dump() {
  std::ostringstream os;
  flight_dump(os);
  return os.str();
}

TEST(FlightRecorder, RecordsAreCountedAndDumped) {
  const std::uint64_t before = flight_recorded_total();
  flight_record(FlightEvent::kCtrlHold, 77001, 42);
  EXPECT_EQ(flight_recorded_total(), before + 1);
  const std::string out = dump();
  EXPECT_NE(out.find("ctrl_hold a=77001 b=42"), std::string::npos) << out;
}

TEST(FlightRecorder, ThreadLabelAppearsInDump) {
  std::thread t([] {
    set_thread_label("labeled-worker");
    flight_record(FlightEvent::kCtrlWindow, 88002, 0);
  });
  t.join();
  const std::string out = dump();
  EXPECT_NE(out.find("[labeled-worker]"), std::string::npos);
  // The exited thread's ring is retained, marked as such.
  EXPECT_NE(out.find("(exited)"), std::string::npos);
  EXPECT_NE(out.find("ctrl_window a=88002"), std::string::npos);
}

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  std::thread t([] {
    set_thread_label("wrap-test");
    for (std::uint64_t i = 0; i < kFlightRingCapacity + 100; ++i) {
      flight_record(FlightEvent::kBatchPushed, /*a=*/990000 + i, i);
    }
  });
  t.join();
  const std::string out = dump();
  // Oldest 100 events were overwritten; the newest survives.
  EXPECT_EQ(out.find("batch_pushed a=990000 "), std::string::npos);
  EXPECT_EQ(out.find("batch_pushed a=990099 "), std::string::npos);
  EXPECT_NE(out.find("batch_pushed a=990100 "), std::string::npos);
  std::ostringstream last;
  last << "batch_pushed a=" << (990000 + kFlightRingCapacity + 99);
  EXPECT_NE(out.find(last.str()), std::string::npos);
}

TEST(FlightRecorder, ConcurrentRecordersEachKeepTheirRing) {
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      std::string label = "conc-" + std::to_string(t);
      set_thread_label(label.c_str());
      for (int i = 0; i < 500; ++i) {
        flight_record(FlightEvent::kIngestAppend,
                      static_cast<std::uint64_t>(t), 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  const std::string out = dump();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(out.find("[conc-" + std::to_string(t) + "]"),
              std::string::npos);
  }
}

TEST(FlightRecorder, DumpToFile) {
  flight_record(FlightEvent::kMigrationDone, 55003, 9);
  const std::string path = ::testing::TempDir() + "flight_test.dump";
  ASSERT_TRUE(flight_dump(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("migration_done a=55003 b=9"),
            std::string::npos);
  EXPECT_NE(buf.str().find("=== end flight recorder dump ==="),
            std::string::npos);
}

TEST(FlightRecorder, FlightIdPacksSideAndInstance) {
  EXPECT_EQ(flight_id(0, 0), 0u);
  EXPECT_EQ(flight_id(1, 3), (1ull << 32) | 3);
  EXPECT_EQ(flight_id(1, 0xffffffffull) >> 32, 1u);
  EXPECT_EQ(flight_id(0, 7) & 0xffffffffull, 7u);
}

TEST(FlightRecorder, EventNamesAreStable) {
  EXPECT_STREQ(flight_event_name(FlightEvent::kCrash), "crash");
  EXPECT_STREQ(flight_event_name(FlightEvent::kCtrlHoldAck),
               "ctrl_hold_ack");
  EXPECT_STREQ(flight_event_name(FlightEvent::kIngestBackpressure),
               "ingest_backpressure");
  EXPECT_STREQ(flight_event_name(static_cast<FlightEvent>(60'000)), "?");
}

}  // namespace
}  // namespace fastjoin::telemetry
