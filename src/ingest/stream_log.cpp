#include "ingest/stream_log.hpp"

#include <algorithm>
#include <filesystem>

#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace fastjoin {

namespace tel = telemetry;

namespace {
/// Records per read() refill; bounds stack/heap churn on big scans.
constexpr std::size_t kReadChunk = 256;

/// Cached registry handles.
struct IngestMetrics {
  tel::Counter& appended;
  tel::Counter& backpressure;
  tel::Counter& truncated;
  tel::Counter& flushes;
};

IngestMetrics& ingest_metrics() {
  auto& reg = tel::MetricRegistry::global();
  static IngestMetrics m{
      reg.counter("ingest.appended"),
      reg.counter("ingest.backpressure"),
      reg.counter("ingest.truncated"),
      reg.counter("ingest.flushes"),
  };
  return m;
}
}  // namespace

StreamLog::StreamLog(const IngestConfig& cfg) : cfg_(cfg) {
  if (cfg_.partitions == 0) cfg_.partitions = 1;
  // At least one record per segment, and whole records only: a record
  // never straddles a segment boundary.
  seg_capacity_ = std::max(cfg_.segment_bytes, kLogRecordBytes);
  seg_capacity_ -= seg_capacity_ % kLogRecordBytes;
  // A bound below one record would make append() flush-and-retry
  // forever: flushing zeroes unflushed bytes, yet one record still
  // overflows the bound.
  cfg_.max_unflushed_bytes =
      std::max(cfg_.max_unflushed_bytes, kLogRecordBytes);
  if (cfg_.backend == SegmentBackend::kFile) {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec) {
      FJ_ERROR("ingest") << "cannot create " << cfg_.dir << " ("
                         << ec.message()
                         << "); using the memory backend";
      cfg_.backend = SegmentBackend::kMemory;
    }
  }
  parts_.reserve(cfg_.partitions);
  for (std::uint32_t p = 0; p < cfg_.partitions; ++p) {
    parts_.push_back(std::make_unique<Partition>());
  }
}

std::unique_ptr<StreamLog> StreamLog::open(const IngestConfig& cfg) {
  auto log = std::make_unique<StreamLog>(cfg);
  if (log->cfg_.backend != SegmentBackend::kFile) return log;
  // Segment files are named p<partition>_<base>.seg; base is the offset
  // of the first record, so sorting by base rebuilds the chain and the
  // last segment's base + records() restores next_offset.
  struct Found {
    std::uint64_t base;
    std::filesystem::path path;
  };
  std::vector<std::vector<Found>> found(log->cfg_.partitions);
  std::error_code ec;
  for (const auto& ent :
       std::filesystem::directory_iterator(log->cfg_.dir, ec)) {
    const std::string name = ent.path().filename().string();
    unsigned p = 0;
    unsigned long long base = 0;
    if (std::sscanf(name.c_str(), "p%u_%llu.seg", &p, &base) != 2) {
      continue;
    }
    if (p >= log->cfg_.partitions) continue;
    found[p].push_back({base, ent.path()});
  }
  for (std::uint32_t p = 0; p < log->cfg_.partitions; ++p) {
    auto& fs = found[p];
    std::sort(fs.begin(), fs.end(),
              [](const Found& a, const Found& b) { return a.base < b.base; });
    Partition& part = *log->parts_[p];
    // Recovery is single-threaded, but the lock keeps the analysis'
    // (and TSan's) view uniform: segments are only ever touched under
    // the partition mutex.
    MutexLock lock(part.mu);
    for (auto& f : fs) {
      auto seg = SegmentFile::reopen(f.path.string(), log->seg_capacity_);
      if (!seg) continue;
      // Drop a trailing torn write (crash mid-record).
      const std::uint64_t n = seg->size() / kLogRecordBytes;
      // A hostile or corrupted directory can present segments whose
      // base overlaps the chain rebuilt so far (which would march
      // next_offset backwards and alias offsets) or sits so close to
      // 2^64 that appends would wrap the offset counter. Drop those;
      // gaps (base > next_offset) are tolerated — offsets stay
      // strictly monotone either way. The headroom bound is stable
      // under appends (it depends on base only), so a chain that
      // recovers once recovers identically after more writes.
      constexpr std::uint64_t kOffsetHeadroom = std::uint64_t{1} << 32;
      if (!part.segments.empty() && f.base < part.next_offset) continue;
      if (f.base > ~std::uint64_t{0} - kOffsetHeadroom) continue;
      if (n > ~std::uint64_t{0} - kOffsetHeadroom - f.base) continue;
      part.segments.push_back(Seg{std::move(seg), f.base});
      part.next_offset = f.base + n;
      part.seg_seq = part.segments.size();
    }
  }
  return log;
}

std::string StreamLog::segment_path(std::uint32_t partition,
                                    std::uint64_t base) const {
  return cfg_.dir + "/p" + std::to_string(partition) + "_" +
         std::to_string(base) + ".seg";
}

SegmentFile& StreamLog::writable_segment(std::uint32_t idx, Partition& p) {
  if (p.segments.empty() ||
      !p.segments.back().file->has_room(kLogRecordBytes)) {
    if (!p.segments.empty()) {
      p.segments.back().file->flush();
      flushes_.fetch_add(1, std::memory_order_relaxed);
      segments_rolled_.fetch_add(1, std::memory_order_relaxed);
    }
    Seg seg;
    seg.base = p.next_offset;
    seg.file = std::make_unique<SegmentFile>(
        cfg_.backend, segment_path(idx, seg.base), seg_capacity_);
    // An untruncated partition only ever gets fresh pages: fault them
    // in once, at the roll, instead of in the appends that fill the
    // segment. A truncated one can reuse the pages it freed.
    if (!p.truncated) seg.file->prefault();
    ++p.seg_seq;
    p.segments.push_back(std::move(seg));
  }
  return *p.segments.back().file;
}

std::size_t StreamLog::unflushed_locked(const Partition& p) const {
  // Only the active segment can hold unflushed bytes: rolls flush the
  // segment they retire.
  return p.segments.empty() ? 0
                            : p.segments.back().file->unflushed_bytes();
}

std::uint64_t StreamLog::append(std::uint32_t partition, const Record& rec,
                                InstanceId store_dst,
                                InstanceId probe_dst) {
  const LogRecord lr{rec, store_dst, probe_dst, 0};
  return append_batch(partition, &lr, 1);
}

std::uint64_t StreamLog::append_batch(std::uint32_t partition,
                                      const LogRecord* recs,
                                      std::size_t n) {
  // One encode buffer per chunk keeps the stack bounded while letting
  // the backend see multi-record writes (one fwrite per chunk on the
  // file backend instead of one per record).
  constexpr std::size_t kChunk = 64;
  std::byte buf[kChunk * kLogRecordBytes];

  Partition& p = *parts_[partition];
  MutexLock lock(p.mu);
  const std::uint64_t base = p.next_offset;
  std::size_t done = 0;
  while (done < n) {
    if (unflushed_locked(p) + kLogRecordBytes >
        cfg_.max_unflushed_bytes) {
      // Admission control mid-run: we already hold the partition lock,
      // so flush in place rather than unlocking and retrying.
      backpressure_hits_.fetch_add(1, std::memory_order_relaxed);
      ingest_metrics().backpressure.add(1);
      tel::flight_record(tel::FlightEvent::kIngestBackpressure,
                         partition);
      p.segments.back().file->flush();
      flushes_.fetch_add(1, std::memory_order_relaxed);
      ingest_metrics().flushes.add(1);
    }
    SegmentFile& seg = writable_segment(partition, p);
    const std::size_t seg_room =
        (seg.capacity() - seg.size()) / kLogRecordBytes;
    const std::size_t bp_room =
        (cfg_.max_unflushed_bytes - seg.unflushed_bytes()) /
        kLogRecordBytes;
    const std::size_t k =
        std::min({n - done, seg_room, bp_room, kChunk});
    if (k == 0) continue;  // next turn flushes or rolls to make room
    for (std::size_t i = 0; i < k; ++i) {
      encode_log_record(recs[done + i], buf + i * kLogRecordBytes);
    }
    seg.append(buf, k * kLogRecordBytes);
    done += k;
    p.next_offset += k;
  }
  appended_records_.fetch_add(n, std::memory_order_relaxed);
  appended_bytes_.fetch_add(n * kLogRecordBytes,
                            std::memory_order_relaxed);
  ingest_metrics().appended.add(n);
  tel::flight_record(tel::FlightEvent::kIngestAppend, partition, n);
  return base;
}

void StreamLog::flush(std::uint32_t partition) {
  Partition& p = *parts_[partition];
  MutexLock lock(p.mu);
  if (!p.segments.empty()) {
    p.segments.back().file->flush();
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void StreamLog::flush_all() {
  for (std::uint32_t p = 0; p < partitions(); ++p) flush(p);
}

std::uint64_t StreamLog::start_offset(std::uint32_t partition) const {
  const Partition& p = *parts_[partition];
  MutexLock lock(p.mu);
  return p.segments.empty() ? p.next_offset : p.segments.front().base;
}

std::uint64_t StreamLog::end_offset(std::uint32_t partition) const {
  const Partition& p = *parts_[partition];
  MutexLock lock(p.mu);
  return p.next_offset;
}

std::size_t StreamLog::read(std::uint32_t partition, std::uint64_t from,
                            std::size_t max,
                            std::vector<LogRecord>& out) const {
  const Partition& p = *parts_[partition];
  MutexLock lock(p.mu);
  if (p.segments.empty() || max == 0) return 0;
  from = std::max(from, p.segments.front().base);
  std::size_t got = 0;
  std::byte buf[kReadChunk * kLogRecordBytes];
  for (const Seg& seg : p.segments) {
    const std::uint64_t seg_end = seg.base + seg.records();
    if (seg_end <= from) continue;
    std::uint64_t off = std::max(from, seg.base);
    while (off < seg_end && got < max) {
      const std::size_t want =
          std::min<std::uint64_t>({seg_end - off, max - got, kReadChunk});
      const std::size_t bytes =
          seg.file->read((off - seg.base) * kLogRecordBytes, buf,
                         want * kLogRecordBytes);
      const std::size_t n = bytes / kLogRecordBytes;
      if (n == 0) return got;  // torn tail / IO error: stop cleanly
      for (std::size_t i = 0; i < n; ++i) {
        LogRecord lr = decode_log_record(buf + i * kLogRecordBytes);
        lr.offset = off + i;
        out.push_back(lr);
      }
      off += n;
      got += n;
    }
    if (got >= max) break;
  }
  if (got > 0) {
    tel::flight_record(tel::FlightEvent::kIngestReplayRead, partition,
                       got);
  }
  return got;
}

std::uint64_t StreamLog::truncate_before(std::uint32_t partition,
                                         std::uint64_t offset) {
  Partition& p = *parts_[partition];
  MutexLock lock(p.mu);
  std::uint64_t removed = 0;
  while (p.segments.size() > 1) {
    const Seg& front = p.segments.front();
    if (front.base + front.records() > offset) break;
    removed += front.records();
    if (front.file->backend() == SegmentBackend::kFile) {
      std::error_code ec;
      std::filesystem::remove(front.file->path(), ec);
    }
    p.segments.pop_front();
    p.truncated = true;
    segments_truncated_.fetch_add(1, std::memory_order_relaxed);
  }
  if (removed > 0) {
    records_truncated_.fetch_add(removed, std::memory_order_relaxed);
    ingest_metrics().truncated.add(removed);
    tel::flight_record(tel::FlightEvent::kIngestTruncate, partition,
                       removed);
  }
  return removed;
}

StreamLogStats StreamLog::stats() const {
  StreamLogStats s;
  s.appended_records = appended_records_.load(std::memory_order_relaxed);
  s.appended_bytes = appended_bytes_.load(std::memory_order_relaxed);
  s.backpressure_hits =
      backpressure_hits_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.segments_rolled = segments_rolled_.load(std::memory_order_relaxed);
  s.segments_truncated =
      segments_truncated_.load(std::memory_order_relaxed);
  s.records_truncated =
      records_truncated_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fastjoin
