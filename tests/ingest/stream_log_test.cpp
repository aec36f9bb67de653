// StreamLog: partitioned append-only log semantics — dense monotone
// offsets, segment rolling, retention truncation, backpressure
// admission control, concurrent appenders, and file-backed recovery via
// StreamLog::open().
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ingest/stream_log.hpp"

namespace fastjoin {
namespace {

Record rec_of(std::uint64_t i, Side side = Side::kR) {
  Record r;
  r.key = i % 17;
  r.seq = i;
  r.payload = i * 3;
  r.ts = static_cast<SimTime>(i);
  r.side = side;
  return r;
}

std::string temp_dir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("fastjoin_streamlog_" + name + "_" +
           std::to_string(::getpid())))
      .string();
}

TEST(StreamLog, OffsetsAreDenseAndMonotone) {
  IngestConfig cfg;
  cfg.partitions = 2;
  StreamLog log(cfg);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(log.append(0, rec_of(i)), i);
  }
  // Partitions number independently.
  EXPECT_EQ(log.append(1, rec_of(0)), 0u);
  EXPECT_EQ(log.start_offset(0), 0u);
  EXPECT_EQ(log.end_offset(0), 100u);
  EXPECT_EQ(log.end_offset(1), 1u);
  EXPECT_EQ(log.stats().appended_records, 101u);
}

TEST(StreamLog, ReadRoundtripsRecordsAndRouting) {
  IngestConfig cfg;
  StreamLog log(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.append(0, rec_of(i, i % 2 ? Side::kS : Side::kR),
               static_cast<InstanceId>(i % 3),
               static_cast<InstanceId>(i % 5));
  }
  std::vector<LogRecord> got;
  EXPECT_EQ(log.read(0, 0, 100, got), 10u);
  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i].offset, i);
    EXPECT_EQ(got[i].rec.seq, i);
    EXPECT_EQ(got[i].rec.payload, i * 3);
    EXPECT_EQ(got[i].rec.side, i % 2 ? Side::kS : Side::kR);
    EXPECT_EQ(got[i].store_dst, static_cast<InstanceId>(i % 3));
    EXPECT_EQ(got[i].probe_dst, static_cast<InstanceId>(i % 5));
  }
  // Bounded and offset reads.
  got.clear();
  EXPECT_EQ(log.read(0, 4, 3, got), 3u);
  EXPECT_EQ(got.front().offset, 4u);
  EXPECT_EQ(got.back().offset, 6u);
  got.clear();
  EXPECT_EQ(log.read(0, 10, 5, got), 0u);  // at end
}

TEST(StreamLog, SegmentRollPreservesOffsets) {
  IngestConfig cfg;
  cfg.segment_bytes = 4 * kLogRecordBytes;  // tiny: rolls every 4 records
  StreamLog log(cfg);
  const std::uint64_t n = 41;
  for (std::uint64_t i = 0; i < n; ++i) log.append(0, rec_of(i));
  EXPECT_GE(log.stats().segments_rolled, 9u);
  std::vector<LogRecord> got;
  EXPECT_EQ(log.read(0, 0, n + 10, got), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].offset, i);
    EXPECT_EQ(got[i].rec.seq, i);
  }
}

TEST(StreamLog, TruncateDropsWholeSegmentsOnly) {
  IngestConfig cfg;
  cfg.segment_bytes = 4 * kLogRecordBytes;
  StreamLog log(cfg);
  for (std::uint64_t i = 0; i < 20; ++i) log.append(0, rec_of(i));
  // Safe offset 6 lies inside the second segment [4, 8): only the first
  // segment [0, 4) may go.
  EXPECT_EQ(log.truncate_before(0, 6), 4u);
  EXPECT_EQ(log.start_offset(0), 4u);
  EXPECT_EQ(log.end_offset(0), 20u);
  // Reads below the retention floor are clamped up, offsets intact.
  std::vector<LogRecord> got;
  EXPECT_EQ(log.read(0, 0, 100, got), 16u);
  EXPECT_EQ(got.front().offset, 4u);
  EXPECT_EQ(got.front().rec.seq, 4u);
  // The active segment is never truncated, even when fully covered:
  // only [4,8), [8,12) and [12,16) go; [16,20) stays.
  EXPECT_EQ(log.truncate_before(0, 1000), 12u);
  EXPECT_EQ(log.start_offset(0), 16u);
  EXPECT_EQ(log.end_offset(0), 20u);
  EXPECT_EQ(log.stats().records_truncated, 16u);
}

TEST(StreamLog, BackpressureRefusesThenFlushClears) {
  IngestConfig cfg;
  cfg.max_unflushed_bytes = 3 * kLogRecordBytes;
  StreamLog log(cfg);
  // append() self-flushes at the unflushed bound: it always succeeds,
  // each hit is counted and flushed, and offsets stay dense.
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(log.append(0, rec_of(i)), i);
  }
  EXPECT_GT(log.stats().backpressure_hits, 1u);
  EXPECT_GT(log.stats().flushes, 1u);
}

TEST(StreamLog, SubRecordBackpressureBoundIsClamped) {
  IngestConfig cfg;
  cfg.max_unflushed_bytes = 1;  // below one record: would livelock raw
  StreamLog log(cfg);
  // append() must still terminate (the bound is clamped to one record).
  EXPECT_EQ(log.append(0, rec_of(0)), 0u);
  EXPECT_EQ(log.append(0, rec_of(1)), 1u);
}

TEST(StreamLog, ConcurrentAppendersGetUniqueDenseOffsets) {
  IngestConfig cfg;
  cfg.segment_bytes = 16 * kLogRecordBytes;
  StreamLog log(cfg);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 500;
  std::vector<std::vector<std::uint64_t>> offsets(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        offsets[t].push_back(log.append(0, rec_of(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : offsets) {
    for (auto o : v) EXPECT_TRUE(all.insert(o).second) << "offset " << o;
    // Each appender's own offsets are strictly increasing.
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
  }
  EXPECT_EQ(all.size(), kThreads * kPer);
  EXPECT_EQ(*all.rbegin(), kThreads * kPer - 1);
  EXPECT_EQ(log.end_offset(0), kThreads * kPer);
}

TEST(StreamLog, FileBackendOpenRecoversAcrossInstances) {
  const std::string dir = temp_dir("recover");
  std::filesystem::remove_all(dir);
  IngestConfig cfg;
  cfg.backend = SegmentBackend::kFile;
  cfg.dir = dir;
  cfg.partitions = 2;
  cfg.segment_bytes = 8 * kLogRecordBytes;
  {
    StreamLog log(cfg);
    for (std::uint64_t i = 0; i < 30; ++i) log.append(0, rec_of(i));
    for (std::uint64_t i = 0; i < 5; ++i) {
      log.append(1, rec_of(1000 + i, Side::kS));
    }
    log.flush_all();
  }  // "process" ends
  auto log = StreamLog::open(cfg);
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->end_offset(0), 30u);
  EXPECT_EQ(log->end_offset(1), 5u);
  std::vector<LogRecord> got;
  EXPECT_EQ(log->read(0, 28, 10, got), 2u);
  EXPECT_EQ(got[0].rec.seq, 28u);
  EXPECT_EQ(got[1].rec.seq, 29u);
  got.clear();
  EXPECT_EQ(log->read(1, 0, 10, got), 5u);
  EXPECT_EQ(got[0].rec.seq, 1000u);
  EXPECT_EQ(got[0].rec.side, Side::kS);
  // The reopened log keeps appending where the old one stopped.
  EXPECT_EQ(log->append(0, rec_of(30)), 30u);
  std::filesystem::remove_all(dir);
}

TEST(StreamLog, FileTruncationUnlinksSegmentFiles) {
  const std::string dir = temp_dir("unlink");
  std::filesystem::remove_all(dir);
  IngestConfig cfg;
  cfg.backend = SegmentBackend::kFile;
  cfg.dir = dir;
  cfg.segment_bytes = 4 * kLogRecordBytes;
  StreamLog log(cfg);
  for (std::uint64_t i = 0; i < 20; ++i) log.append(0, rec_of(i));
  const auto count_files = [&] {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      (void)e;
      ++n;
    }
    return n;
  };
  const std::size_t before = count_files();
  EXPECT_EQ(log.truncate_before(0, 12), 12u);
  EXPECT_EQ(count_files(), before - 3);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastjoin
