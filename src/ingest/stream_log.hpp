// StreamLog: the durable, replayable, partitioned ingest log — the
// Kafka stand-in between record sources and the live engine.
//
// Shape of the thing:
//  * N partitions, each an append-only chain of fixed-capacity
//    SegmentFiles (memory- or file-backed). Appends go to the active
//    (last) segment; when it lacks room it is flushed and a new one is
//    rolled.
//  * Per-partition monotone offsets: the i-th record ever appended to a
//    partition has offset i, forever — truncation removes old segments
//    but never renumbers. An (offset, partition) pair is therefore a
//    stable name for a record, which is what worker checkpoints record
//    and what crash recovery replays from.
//  * Backpressure instead of unbounded buffering: an append that would
//    take a partition past IngestConfig::max_unflushed_bytes flushes
//    it in place first (and counts the hit), so the appender pays for
//    the flush — producer-side admission control.
//  * Retention: truncate_before() drops whole expired segments below a
//    safe offset (the engine uses the minimum checkpointed offset
//    across workers — everything below it can never be replayed).
//
// Thread safety: every public method is safe under concurrent callers;
// a per-partition mutex serializes appenders, readers and truncation of
// that partition, and distinct partitions never contend.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_safety.hpp"
#include "ingest/log_record.hpp"
#include "ingest/segment.hpp"

namespace fastjoin {

/// Configuration of the ingest log (embedded in LiveConfig as
/// `ingest`; also usable standalone).
struct IngestConfig {
  /// Master switch for the engine integration. When true the engine
  /// logs every record and, at respawn, replays a crashed worker's
  /// deliveries from its last checkpointed offsets (the
  /// records_dropped == 0 mode). When false the engine never
  /// instantiates a log and recovery is checkpoint-only.
  bool enabled = false;
  /// Partition count. The engine overrides this with its lane count
  /// (max_producers + 1) so partition order mirrors lane FIFO order.
  std::uint32_t partitions = 1;
  /// Capacity of one segment in bytes (rounded up to one record).
  std::size_t segment_bytes = 256 * 1024;
  /// Backpressure bound: an append that would leave more than this
  /// many unflushed bytes in a partition flushes it first.
  std::size_t max_unflushed_bytes = 4 * 1024 * 1024;
  SegmentBackend backend = SegmentBackend::kMemory;
  /// Directory for segment files (kFile only); created if missing.
  std::string dir = "streamlog";
};

/// Monotone counters, readable while the log is live.
struct StreamLogStats {
  std::uint64_t appended_records = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t backpressure_hits = 0;  ///< appends that flushed first
  std::uint64_t flushes = 0;
  std::uint64_t segments_rolled = 0;    ///< segments created beyond the first
  std::uint64_t segments_truncated = 0;
  std::uint64_t records_truncated = 0;  ///< records dropped by retention
};

class StreamLog {
 public:
  explicit StreamLog(const IngestConfig& cfg);

  /// Recovery constructor for the file backend: scan cfg.dir for
  /// segment files written by a previous process and resume each
  /// partition after its last flushed record. Falls back to a fresh log
  /// when the directory has no segments.
  static std::unique_ptr<StreamLog> open(const IngestConfig& cfg);

  std::uint32_t partitions() const {
    return static_cast<std::uint32_t>(parts_.size());
  }
  const IngestConfig& config() const { return cfg_; }

  /// Append one record: append_batch() with a run of one. Always
  /// succeeds; returns the record's offset.
  std::uint64_t append(std::uint32_t partition, const Record& rec,
                       InstanceId store_dst = kUnroutedDst,
                       InstanceId probe_dst = kUnroutedDst);

  /// Append a run of records under ONE lock acquisition: recs[i] gets
  /// offset `return + i`. When the unflushed bound is hit mid-run the
  /// partition is flushed in place (counted as a backpressure hit) and
  /// the run continues. The hot path for the engine's per-producer
  /// batches: one lock and one backend write per chunk instead of per
  /// record.
  std::uint64_t append_batch(std::uint32_t partition,
                             const LogRecord* recs, std::size_t n);

  void flush(std::uint32_t partition);
  void flush_all();

  /// Offset of the oldest retained record (== end_offset when empty).
  std::uint64_t start_offset(std::uint32_t partition) const;
  /// One past the newest record's offset.
  std::uint64_t end_offset(std::uint32_t partition) const;

  /// Read up to `max` records with offsets in [from, end) into `out`
  /// (appended; offsets filled in). `from` below the retention floor is
  /// clamped up to start_offset(). Returns the records read.
  std::size_t read(std::uint32_t partition, std::uint64_t from,
                   std::size_t max, std::vector<LogRecord>& out) const;

  /// Drop whole segments that lie entirely below `offset` (the active
  /// segment is never dropped). Returns records removed.
  std::uint64_t truncate_before(std::uint32_t partition,
                                std::uint64_t offset);

  StreamLogStats stats() const;

 private:
  struct Seg {
    std::unique_ptr<SegmentFile> file;
    std::uint64_t base = 0;  ///< offset of the segment's first record
    std::uint64_t records() const {
      return file->size() / kLogRecordBytes;
    }
  };
  struct Partition {
    mutable Mutex mu;
    std::deque<Seg> segments GUARDED_BY(mu);
    std::uint64_t next_offset GUARDED_BY(mu) = 0;
    /// Distinct file names across rolls.
    std::uint64_t seg_seq GUARDED_BY(mu) = 0;
    /// truncate_before() has dropped a segment here.
    bool truncated GUARDED_BY(mu) = false;
  };

  std::string segment_path(std::uint32_t partition,
                           std::uint64_t base) const;
  /// Ensure the partition's active segment has room; rolls (flushing
  /// the finished segment) when needed. Caller holds p.mu.
  SegmentFile& writable_segment(std::uint32_t idx, Partition& p)
      REQUIRES(p.mu);
  std::size_t unflushed_locked(const Partition& p) const REQUIRES(p.mu);

  IngestConfig cfg_;
  std::size_t seg_capacity_ = 0;  ///< cfg.segment_bytes, record-aligned
  std::vector<std::unique_ptr<Partition>> parts_;

  mutable std::atomic<std::uint64_t> appended_records_{0};
  mutable std::atomic<std::uint64_t> appended_bytes_{0};
  mutable std::atomic<std::uint64_t> backpressure_hits_{0};
  mutable std::atomic<std::uint64_t> flushes_{0};
  mutable std::atomic<std::uint64_t> segments_rolled_{0};
  mutable std::atomic<std::uint64_t> segments_truncated_{0};
  mutable std::atomic<std::uint64_t> records_truncated_{0};
};

}  // namespace fastjoin
