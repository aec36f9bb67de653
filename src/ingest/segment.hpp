// SegmentFile: one fixed-capacity extent of a StreamLog partition.
//
// A partition is a chain of segments; only the last (active) segment
// accepts appends. Two backends share the interface: kMemory (a byte
// vector, the default for tests and for runs that only need
// crash-in-process replay) and kFile (C stdio, flushed on demand, and
// reopenable after a process restart — the entry format is fixed-size,
// so a reopened segment's record count is just size/entry bytes).
//
// A SegmentFile is not thread-safe; StreamLog serializes access with a
// per-partition mutex.
#pragma once

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace fastjoin {

/// Storage backend for StreamLog segments.
enum class SegmentBackend : std::uint8_t {
  kMemory,  ///< byte vector; durable for the process lifetime only
  kFile,    ///< stdio file; survives process restart after flush()
};

const char* segment_backend_name(SegmentBackend b);

class SegmentFile {
 public:
  /// Create a fresh, empty segment. For kFile the file at `path` is
  /// created (truncated); for kMemory `path` is a label only.
  SegmentFile(SegmentBackend backend, std::string path,
              std::size_t capacity_bytes);
  ~SegmentFile();

  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Reopen an existing file-backed segment (recovery path). Returns
  /// null if the file cannot be opened. The size is taken from the file;
  /// whatever was not flushed before the crash is gone, which is exactly
  /// the durability contract.
  static std::unique_ptr<SegmentFile> reopen(std::string path,
                                             std::size_t capacity_bytes);

  /// Append `n` bytes; returns false (and writes nothing) when the
  /// segment lacks capacity — the caller rolls to a new segment.
  bool append(const void* data, std::size_t n);

  /// Read up to `n` bytes starting at byte position `pos` into `out`;
  /// returns the bytes actually read (bounded by size()).
  std::size_t read(std::size_t pos, void* out, std::size_t n) const;

  /// Bytes appended so far.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool has_room(std::size_t n) const { return size_ + n <= capacity_; }

  /// kMemory, while empty: touch the whole buffer now, so the appends
  /// that fill the segment take no page faults. No-op otherwise.
  void prefault();

  /// Bytes appended since the last flush() — the backpressure input.
  std::size_t unflushed_bytes() const { return size_ - flushed_; }
  /// Make appended bytes durable (fflush for kFile; bookkeeping only
  /// for kMemory, which is always as durable as it will ever be).
  void flush();

  SegmentBackend backend() const { return backend_; }
  const std::string& path() const { return path_; }

 private:
  SegmentFile() = default;

  SegmentBackend backend_ = SegmentBackend::kMemory;
  std::string path_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::size_t flushed_ = 0;
  std::vector<std::byte> mem_;
  /// kFile only. mutable: read() seeks, which C stdio counts as
  /// mutation; logical const-ness is "does not change contents".
  mutable std::FILE* file_ = nullptr;
};

}  // namespace fastjoin
